// Package qotp is the public API of the queue-oriented transaction
// processing library, a from-scratch Go reproduction of "A Queue-oriented
// Transaction Processing Paradigm" (Qadah, Middleware 2019).
//
// Applications talk to the store through a Client: individual transactions
// go in (Submit), per-transaction outcomes come out (Future), and an
// internal batch former groups submissions into the deterministic batches
// the engine executes — group commit on size/time triggers, with bounded
// queueing and backpressure:
//
//	gen, _ := qotp.NewYCSB(qotp.YCSBConfig{Partitions: 8, Theta: 0.9})
//	db, _ := qotp.Open(gen, 8)
//	eng, _ := qotp.NewQueCC(db, qotp.QueCCOptions{Planners: 2, Executors: 4, Pipeline: true})
//	cli, _ := qotp.NewClient(eng, qotp.ClientOptions{MaxBatch: 4096, MaxDelay: time.Millisecond})
//	defer cli.Close()
//	sess := cli.Session()
//	out, _ := sess.Exec(ctx, oneTxn)   // out.Committed, out.Latency
//
// The batch interface underneath — NewQueCC/New building an Engine whose
// ExecBatch consumes generator batches directly — remains available as the
// harness interface: benchmarks and determinism tests drive it so batch
// contents stay bit-reproducible. Every baseline protocol the paper compares
// against is constructible through New with a protocol name, so applications
// and experiments can swap concurrency-control strategies behind one
// interface.
//
// See the examples/ directory for runnable programs (examples/quickstart for
// the Client API, examples/server for the TCP client port) and cmd/qotpbench
// for the experiment harness that regenerates the paper's tables and figures.
package qotp

import (
	"fmt"
	"net"

	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/metrics"
	"github.com/exploratory-systems/qotp/internal/obs"
	"github.com/exploratory-systems/qotp/internal/serve"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/wal"
	"github.com/exploratory-systems/qotp/internal/workload"
	"github.com/exploratory-systems/qotp/internal/workload/bank"
	"github.com/exploratory-systems/qotp/internal/workload/tpcc"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

// Re-exported core types. Engine is the common protocol interface; Txn is a
// fragmented transaction; Generator produces deterministic batches; Stats
// and Snapshot report performance.
type (
	// Engine executes transaction batches under one concurrency-control
	// protocol.
	Engine = engine.Engine
	// Txn is a fragmented transaction (paper §3.1).
	Txn = txn.Txn
	// Fragment is one unit of transaction logic bound to a single record.
	Fragment = txn.Fragment
	// Generator produces deterministic transaction batches.
	Generator = workload.Generator
	// Stats is the engine metrics accumulator.
	Stats = metrics.Stats
	// Snapshot is an immutable metrics snapshot.
	Snapshot = metrics.Snapshot
	// DB is an opened, loaded store.
	DB = storage.Store
	// YCSBConfig parameterizes the YCSB workload.
	YCSBConfig = ycsb.Config
	// TPCCConfig parameterizes the TPC-C workload.
	TPCCConfig = tpcc.Config
	// BankConfig parameterizes the bank transfer workload.
	BankConfig = bank.Config
	// Registry maps fragment opcodes to executable logic (Generator.Registry).
	Registry = txn.Registry
)

// Serving-layer types (see NewClient). Outcome is one transaction's verdict
// at its batch commit point; Future its pending result; Session a logical
// client's ordered submission handle; ClientOptions the batch-former tuning;
// RemoteClient the TCP twin of Client used against a ListenAndServe port.
type (
	Outcome       = serve.Outcome
	Future        = serve.Future
	Session       = serve.Session
	SessionStats  = serve.SessionStats
	ClientOptions = serve.Config
	RemoteClient  = serve.RemoteClient
	ClientServer  = serve.TCPServer
	// FailoverClient is Dial's HA twin (see DialFailover): it reconnects
	// across leader failovers and resubmits in-flight transactions, with the
	// cluster-side DedupWindow guaranteeing exactly-once resolution.
	FailoverClient  = serve.FailoverClient
	FailoverOptions = serve.FailoverOptions
	// DedupWindow is the replicated exactly-once resubmission window (see
	// ClientOptions.Dedup); a promoted leader passes the window it rebuilt
	// from log replay so pre-failover commits resolve without re-executing.
	DedupWindow = serve.DedupWindow
	// MetricsRegistry is the observability registry (internal/obs): set
	// ClientOptions.MetricsAddr to expose /healthz, /readyz, and /metrics
	// (Prometheus text + JSON) for the client's lifetime — queue depth,
	// batch fill, forming latency, shed counts, commit/abort/latency series
	// all live. Pass a shared registry via ClientOptions.Metrics to merge
	// several components onto one page; Client.Metrics returns it.
	MetricsRegistry = obs.Registry
)

// NewMetricsRegistry returns an empty observability registry, to be shared
// across components via ClientOptions.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.New() }

// NewDedupWindow returns an empty exactly-once resubmission window, to be
// filled by replay (DedupWindow.ObserveBatch) and installed as
// ClientOptions.Dedup on a promoted leader's serving layer.
func NewDedupWindow() *DedupWindow { return serve.NewDedupWindow() }

// Serving-layer sentinel errors.
var (
	// ErrOverloaded rejects a submission when the client's bounded queue is
	// full and ClientOptions.Block is false.
	ErrOverloaded = serve.ErrOverloaded
	// ErrClientClosed rejects submissions after Client.Close.
	ErrClientClosed = serve.ErrClosed
	// ErrConnClosed resolves a RemoteClient's outstanding Futures when the
	// client itself closes the connection.
	ErrConnClosed = serve.ErrConnClosed
	// ErrConnLost resolves a RemoteClient's outstanding Futures — and fails
	// its in-flight Submits — when the connection drops out from under it
	// (server crash, network failure). The marked submissions are retryable
	// on a fresh Dial; match with errors.Is.
	ErrConnLost = serve.ErrConnLost
)

// Client is the client-facing submission front end over one engine: Submit
// individual transactions, get per-transaction Futures, let the internal
// batch former group submissions into deterministic batches (group commit:
// a batch closes at MaxBatch, as soon as the queue is dry while the engine is
// idle, or at the MaxDelay ceiling while it is busy) and route each verdict
// back at the batch commit point. The Client becomes the engine's single driver and — unlike
// the internal serving layer — owns the engine: Close drains accepted work,
// then closes the engine.
type Client struct {
	*serve.Server
	eng Engine
}

// NewClient starts the serving layer over eng (any Engine from New/NewQueCC
// or a distributed constructor). When the engine implements the pipelined
// Submit/Drain driver (QueCCOptions.Pipeline, quecc-pipe, the -pipe
// distributed engines), forming batch k+1 overlaps executing batch k.
func NewClient(eng Engine, opts ClientOptions) (*Client, error) {
	srv, err := serve.New(eng, opts)
	if err != nil {
		return nil, err
	}
	return &Client{Server: srv, eng: eng}, nil
}

// Close stops accepting submissions, drains every accepted transaction
// (their Futures all resolve), closes the engine, and returns the terminal
// engine error if one occurred.
func (c *Client) Close() error {
	err := c.Server.Close()
	c.eng.Close()
	return err
}

// ListenAndServe exposes the client on a TCP address (the "client port"):
// remote RemoteClients submit wire-encoded transactions and receive
// per-transaction outcomes. reg resolves incoming opcodes to logic — pass
// the workload generator's Registry(). Returns the running server (its Addr
// reports the bound address for ":0" listeners).
func (c *Client) ListenAndServe(addr string, reg Registry) (*ClientServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serve.ServeTCP(lis, c.Server, reg), nil
}

// Dial connects a RemoteClient to a Client's TCP port.
func Dial(addr string) (*RemoteClient, error) { return serve.DialTCP(addr) }

// DialFailover connects a FailoverClient to a replicated cluster's advertised
// peer list. Every transaction is stamped with (ClientID, ClientSeq); on a
// lost connection — or an explicit retry verdict from a demoted leader — the
// client redials the list until the promoted leader answers and resubmits its
// in-flight transactions, which the new leader's dedup window resolves
// exactly once.
func DialFailover(opts FailoverOptions) (*FailoverClient, error) {
	return serve.DialFailover(opts)
}

// ErrAbort aborts the enclosing transaction when returned by fragment logic.
var ErrAbort = txn.ErrAbort

// Durability types (see OpenWAL/RecoverWAL). WAL is the segmented write-ahead
// log; install it as ClientOptions.WAL (the serving layer logs each formed
// batch before dispatch) or QueCCOptions.Logger (the engine logs each batch
// before commit) — one of the two, not both. RecoveryInfo summarizes a
// RecoverWAL pass.
type (
	WAL          = wal.Writer
	WALOptions   = wal.Options
	RecoveryInfo = wal.RecoveryInfo
)

// WAL sync policies (WALOptions.Sync): fsync per batch, per group of batches,
// or never.
const (
	WALSyncEachBatch = wal.SyncEachBatch
	WALSyncGroup     = wal.SyncGroup
	WALSyncOff       = wal.SyncOff
)

// OpenWAL creates or reopens the write-ahead log in dir, repairing any torn
// tail from a crash. To rebuild state after a crash, call RecoverWAL first —
// OpenWAL truncates unreachable bytes, RecoverWAL only reads.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) { return wal.Open(dir, opts) }

// RecoverWAL rebuilds pre-crash state from a wal directory into db: it
// restores the latest snapshot (if any) and replays every intact logged batch
// through a fresh engine, reproducing the pre-crash StateHash. db must be
// freshly opened and loaded (Open with the same generator config as the
// crashed run); reg is the workload's Registry(). Per the client contract,
// recovery re-resolves nothing — submissions in flight at the crash are the
// clients' to resubmit. Afterwards, OpenWAL the same dir and resume.
func RecoverWAL(dir string, db *DB, reg Registry) (RecoveryInfo, error) {
	eng, err := core.New(db, core.Config{Planners: 1, Executors: 2})
	if err != nil {
		return RecoveryInfo{}, err
	}
	defer eng.Close()
	return wal.RecoverFrom(dir, nil, db, reg, func(_ uint64, txns []*Txn) error {
		return eng.ExecBatch(txns)
	})
}

// Open creates a store for the generator's schema and loads the initial
// database.
func Open(gen Generator, partitions int) (*DB, error) {
	s, err := storage.Open(gen.StoreConfig(partitions))
	if err != nil {
		return nil, err
	}
	if err := gen.Load(s); err != nil {
		return nil, fmt.Errorf("qotp: load: %w", err)
	}
	return s, nil
}

// Mechanism selects the queue-execution mechanism (paper §3.2).
type Mechanism = core.Mechanism

// Isolation selects the isolation level (paper §3.2).
type Isolation = core.Isolation

// Re-exported mechanism and isolation constants.
const (
	Speculative   = core.Speculative
	Conservative  = core.Conservative
	Serializable  = core.Serializable
	ReadCommitted = core.ReadCommitted
)

// QueCCOptions configures the queue-oriented engine.
type QueCCOptions struct {
	// Planners and Executors are the two phases' thread counts (both
	// default to 2).
	Planners  int
	Executors int
	// Mechanism defaults to Speculative; Isolation to Serializable.
	Mechanism Mechanism
	Isolation Isolation
	// Logger, when non-nil, receives each batch before commit (see the
	// wal package).
	Logger core.BatchLogger
	// Pipeline enables the Submit/Drain driver: planning of batch k+1
	// overlaps execution of batch k (see core.Config.Pipeline).
	Pipeline bool
	// CrossBatch enables cross-batch speculative execution (implies
	// Pipeline; requires the Speculative mechanism and Serializable
	// isolation): batch k+1 executes before batch k's verdict fixpoint
	// completes, and an abort in k cascades onto k+1 through a joint repair
	// (see core.Config.CrossBatch). Pair with ClientOptions.SpeculativeAcks
	// for early, revocable client acknowledgements.
	CrossBatch bool
}

// NewQueCC creates the paper's queue-oriented deterministic engine.
func NewQueCC(db *DB, opts QueCCOptions) (Engine, error) {
	if opts.Planners == 0 {
		opts.Planners = 2
	}
	if opts.Executors == 0 {
		opts.Executors = 2
	}
	return core.New(db, core.Config{
		Planners:   opts.Planners,
		Executors:  opts.Executors,
		Mechanism:  opts.Mechanism,
		Isolation:  opts.Isolation,
		Logger:     opts.Logger,
		Pipeline:   opts.Pipeline,
		CrossBatch: opts.CrossBatch,
	})
}

// Protocols lists the centralized protocol names accepted by New.
func Protocols() []string {
	names := make([]string, len(engine.Protocols))
	for i, p := range engine.Protocols {
		names[i] = p.Name
	}
	return names
}

// New constructs a centralized engine by protocol name with `threads`
// workers (for the queue engine: 2 planners and `threads` executors).
func New(name string, db *DB, threads int) (Engine, error) {
	p, err := engine.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("qotp: %w (have %v)", err, Protocols())
	}
	return p.New(db, 2, threads, nil)
}

// NewYCSB constructs the YCSB workload generator.
func NewYCSB(cfg YCSBConfig) (Generator, error) { return ycsb.New(cfg) }

// NewTPCC constructs the TPC-C workload generator.
func NewTPCC(cfg TPCCConfig) (Generator, error) { return tpcc.New(cfg) }

// NewBank constructs the bank-transfer workload generator.
func NewBank(cfg BankConfig) (Generator, error) { return bank.New(cfg) }

// StateHash fingerprints the database state (determinism checks).
func StateHash(db *DB) uint64 { return db.StateHash() }

// BankTotal sums all account balances of a bank-workload database (the
// conservation invariant).
func BankTotal(db *DB) uint64 { return bank.TotalBalance(db) }

// BankMin returns the smallest account balance (negative values expose
// isolation violations).
func BankMin(db *DB) int64 { return bank.MinBalance(db) }

// TPCCCheck runs the TPC-C consistency conditions against a database
// produced by the given generator (must be the same instance that generated
// the executed transactions).
func TPCCCheck(gen Generator, db *DB) error {
	tg, ok := gen.(*tpcc.Workload)
	if !ok {
		return fmt.Errorf("qotp: TPCCCheck requires a TPC-C generator, got %s", gen.Name())
	}
	return tg.CheckConsistency(db)
}
