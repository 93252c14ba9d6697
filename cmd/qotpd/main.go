// Command qotpd demonstrates the distributed queue-oriented engine over the
// real TCP transport (stdlib net + gob framing): it launches an n-node
// cluster on loopback sockets, runs a multi-partition workload through
// QueCC-D, and verifies the cluster state against a serial centralized run.
//
// The -workload tpcc variant runs distributed TPC-C (partition-per-warehouse)
// with remote NewOrder lines, whose item prices are forwarded across nodes in
// the MsgVars round — cross-node data dependencies over real sockets.
//
// With -pipeline the leader runs the Submit/Drain pipelined driver: batch
// k+1 is planned and encoded while the cluster executes batch k over the
// sockets — the leader-side overlap, verified against the same serial
// reference.
//
// With -serve the daemon opens a client port in front of the distributed
// leader: the batch-native cluster is driven not by a harness loop but by
// remote clients submitting single transactions over TCP (serve.RemoteClient),
// which the leader's batch former groups into deterministic batches
// (group commit on -batch / -maxdelay triggers) and answers one outcome per
// transaction. -clients/-ctxns size the demo load; -loop picks closed
// (submit, wait, repeat) or open (submit continuously against the bounded
// queue). With -clients 1 the submission order is deterministic, so the
// cluster state is additionally verified against the serial reference over
// the full wire path.
//
// With -waldir the leader writes every batch's input to a segmented
// write-ahead log before shipping it (sync policy per -walsync). On startup
// the same flag recovers: intact logged batches are replayed through the
// cluster, the generator stream advances past them, and the run continues
// mid-stream — a killed cluster restarts where the log ends. -crashafter n
// simulates the kill: the process exits without cleanup after n batches.
//
// With -replicas n the leader streams its queue log to n standby full
// replicas over a second loopback TCP mesh (internal/repl): each follower
// persists the batch inputs at the leader's epochs and applies them through
// its own serial engine, so every standby independently reproduces the
// cluster state. -ackmode picks the durability price (async, or k=N to gate
// each commit on N follower acks with bounded degradation when followers
// die). -killnode b severs follower 1's sockets and goroutines after batch b
// — the leader keeps committing — and -rejoin b2 restarts it after batch b2:
// the follower replays its local log, asks the leader for the missing tail,
// and re-enters the live stream mid-run without stopping the cluster. At
// exit every replica's state hash is checked against the cluster (and, when
// deterministic, the serial reference).
//
// With -failover the fault flips sides: the replication LEADER is SIGKILLed
// at batch -leaderkill (randomized when 0). The followers' failure detectors
// fire, they run the deterministic claim-exchange election among themselves
// (longest durable prefix wins, ties to the lowest node id — no external
// coordinator), the winner reopens its sealed log at the bumped term, and the
// batch stream resumes through the promoted node, which now both replicates
// to the survivors and applies locally. Requires -ackmode k=N so every batch
// the cluster committed is follower-durable — the demo then pins every
// surviving replica's state hash against the serial reference.
//
// Usage:
//
//	qotpd -nodes 4 -batches 10 -batch 2000
//	qotpd -nodes 4 -workload tpcc -warehouses 8 -remote 0.1
//	qotpd -nodes 4 -pipeline
//	qotpd -nodes 2 -serve -clients 8 -ctxns 1000 -loop open
//	qotpd -nodes 2 -serve -clients 1 -pipeline
//	qotpd -nodes 2 -batches 6 -waldir /tmp/qotpd-wal -crashafter 3
//	qotpd -nodes 2 -batches 6 -waldir /tmp/qotpd-wal   # recovers, finishes, verifies
//	qotpd -nodes 2 -batches 10 -replicas 2 -ackmode k=1 -killnode 3 -rejoin 7
//	qotpd -nodes 2 -batches 10 -replicas 2 -ackmode k=1 -failover -leaderkill 4
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/dist"
	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/obs"
	"github.com/exploratory-systems/qotp/internal/repl"
	"github.com/exploratory-systems/qotp/internal/serve"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/wal"
	"github.com/exploratory-systems/qotp/internal/workload"
	"github.com/exploratory-systems/qotp/internal/workload/tpcc"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

func main() {
	var (
		nodes      = flag.Int("nodes", 2, "cluster size")
		batches    = flag.Int("batches", 5, "number of batches")
		batchSize  = flag.Int("batch", 2000, "transactions per batch (MaxBatch in -serve mode)")
		execs      = flag.Int("executors", 2, "executors per node")
		wl         = flag.String("workload", "ycsb", "workload: ycsb or tpcc")
		warehouses = flag.Int("warehouses", 0, "tpcc warehouses (default 2x nodes; must be >= nodes)")
		remote     = flag.Float64("remote", 0.1, "tpcc remote order-line fraction (cross-node data dependencies)")
		pipeline   = flag.Bool("pipeline", false, "pipelined leader: plan/encode batch k+1 while the cluster executes batch k")
		serveMode  = flag.Bool("serve", false, "open a TCP client port in front of the leader and drive it with remote clients")
		clients    = flag.Int("clients", 8, "concurrent remote clients (-serve mode)")
		ctxns      = flag.Int("ctxns", 1000, "transactions submitted per client (-serve mode)")
		loop       = flag.String("loop", "closed", "client loop in -serve mode: closed or open")
		maxDelay   = flag.Duration("maxdelay", time.Millisecond, "batch former MaxDelay (-serve mode)")
		waldir     = flag.String("waldir", "", "write-ahead log directory on the leader: recover from it, then log every batch")
		walsync    = flag.String("walsync", "each", "wal sync policy: each (fsync per batch), group, or off")
		crashAfter = flag.Int("crashafter", 0, "simulate a kill: exit without cleanup after this many batches this run (0 = never)")
		replicas   = flag.Int("replicas", 0, "standby full replicas streaming the leader's queue log over their own TCP mesh (0 = replication off)")
		ackmode    = flag.String("ackmode", "async", "replication ack mode: async, or k=N to gate each commit on N follower acks")
		killNode   = flag.Int("killnode", 0, "sever replica follower 1 (sockets + goroutines, log kept) after this many batches (0 = never; requires -replicas and -rejoin)")
		rejoinAt   = flag.Int("rejoin", 0, "restart the killed follower after this many batches: replay local log, fetch the gap, rejoin live (requires -killnode)")
		failover   = flag.Bool("failover", false, "SIGKILL the replication leader mid-stream and let the followers elect a replacement with no external coordinator (requires -replicas >= 2 and -ackmode k=N)")
		leaderKill = flag.Int("leaderkill", 0, "sever the replication leader after this many batches (-failover mode; 0 = a randomized mid-stream batch)")
		httpAddr   = flag.String("http", "", "observability HTTP endpoint exposing /healthz, /readyz and /metrics (Prometheus text + JSON) for queue depth, batch fill, repl lag, WAL fsync latency and more; e.g. :8080 (empty = off)")
		linger     = flag.Duration("linger", 0, "keep the process and its -http endpoint alive this long after the final report, so an external scraper can take a last sample that matches the printed numbers (requires -http)")
	)
	flag.Parse()
	if *nodes < 1 {
		log.Fatalf("qotpd: -nodes must be >= 1, got %d", *nodes)
	}
	if *batches < 1 || *batchSize < 1 || *execs < 1 {
		log.Fatal("qotpd: -batches, -batch and -executors must be >= 1")
	}
	if *serveMode && (*clients < 1 || *ctxns < 1) {
		log.Fatal("qotpd: -clients and -ctxns must be >= 1")
	}
	if *loop != "closed" && *loop != "open" {
		log.Fatalf("qotpd: -loop must be closed or open, got %q", *loop)
	}
	walPolicy, err := wal.ParseSyncPolicy(*walsync)
	if err != nil {
		log.Fatalf("qotpd: -walsync: %v", err)
	}
	if *waldir != "" && *serveMode {
		// Concurrent remote clients make the submission stream nondeterministic,
		// so the generator cannot be advanced past replayed batches; use
		// ClientOptions.WAL through the library for a serving-path log.
		log.Fatal("qotpd: -waldir is a harness-mode flag; it cannot be combined with -serve")
	}
	if *replicas > 0 {
		if *waldir != "" {
			log.Fatal("qotpd: -replicas subsumes -waldir — the replicated queue log IS the leader's write-ahead log")
		}
		if *crashAfter > 0 {
			log.Fatal("qotpd: -crashafter demonstrates single-node WAL recovery (-waldir); with -replicas use -killnode/-rejoin instead")
		}
	}
	if *killNode > 0 && (*replicas < 1 || *rejoinAt <= *killNode) {
		log.Fatal("qotpd: -killnode requires -replicas >= 1 and -rejoin > -killnode (the demo kills AND rejoins)")
	}
	if *rejoinAt > 0 && *killNode == 0 {
		log.Fatal("qotpd: -rejoin requires -killnode")
	}
	if _, _, err := repl.ParseAckMode(*ackmode); err != nil {
		log.Fatalf("qotpd: %v", err)
	}
	if *failover {
		if *replicas < 2 {
			log.Fatal("qotpd: -failover requires -replicas >= 2 (the survivors elect among themselves)")
		}
		if *serveMode {
			log.Fatal("qotpd: -failover is a harness-mode demo; it cannot be combined with -serve")
		}
		if *killNode > 0 {
			log.Fatal("qotpd: -failover and -killnode are separate fault schedules; pick one")
		}
		if ack, _, _ := repl.ParseAckMode(*ackmode); ack != repl.AckWaitK {
			// The acked-commit guarantee is what the demo pins: with async acks
			// the engine may run ahead of replication, and batches only the dead
			// leader held are legitimately lost — but then the cluster state
			// cannot be checked against the replicas.
			log.Fatal("qotpd: -failover requires -ackmode k=N so every committed batch is follower-durable")
		}
		if *leaderKill == 0 {
			*leaderKill = 2 + rand.Intn(max(*batches-3, 1))
		}
		if *leaderKill >= *batches {
			log.Fatalf("qotpd: -leaderkill %d must leave batches to run after the failover (-batches %d)", *leaderKill, *batches)
		}
	} else if *leaderKill > 0 {
		log.Fatal("qotpd: -leaderkill requires -failover")
	}
	if *linger > 0 && *httpAddr == "" {
		log.Fatal("qotpd: -linger requires -http")
	}

	// Observability: one registry shared by every layer — serve, repl, wal,
	// cluster, the engine — rendered live at -http. All layer config fields
	// accept a nil registry, so the wiring below is unconditional.
	var reg *obs.Registry
	var obsSrv *obs.HTTPServer
	if *httpAddr != "" {
		reg = obs.New()
		s, err := obs.Serve(*httpAddr, reg)
		if err != nil {
			log.Fatalf("qotpd: %v", err)
		}
		obsSrv = s
		fmt.Printf("observability endpoint on http://%s (/healthz /readyz /metrics)\n", s.Addr())
	}
	// finishObs runs AFTER the end-of-run report prints: every counter behind
	// the registry is final by then (the formers are drained), so a scrape
	// during the linger window matches the printed numbers exactly. Only then
	// is the listener closed.
	finishObs := func() {
		if obsSrv == nil {
			return
		}
		if *linger > 0 {
			fmt.Printf("obs endpoint lingering %v at %s for a final scrape\n", *linger, obsSrv.Addr())
			time.Sleep(*linger)
		}
		_ = obsSrv.Close()
	}

	var parts int
	var mkGen func() workload.Generator
	switch *wl {
	case "ycsb":
		parts = *nodes * 2
		mkGen = func() workload.Generator {
			return ycsb.MustNew(ycsb.Config{
				Records: 1 << 14, OpsPerTxn: 8, ReadRatio: 0.5, RMWRatio: 0.25,
				Theta: 0.6, MultiPartitionRatio: 0.3, MultiPartitionCount: 2,
				Partitions: parts, Seed: 99,
			})
		}
	case "tpcc":
		w := *warehouses
		if w == 0 {
			w = *nodes * 2
		}
		if w < *nodes {
			log.Fatalf("qotpd: -warehouses (%d) must be >= -nodes (%d): TPC-C is partition-per-warehouse", w, *nodes)
		}
		parts = w
		mkGen = func() workload.Generator {
			return tpcc.MustNew(tpcc.Config{
				Warehouses: w, Partitions: w,
				Items: 2000, CustomersPerDistrict: 300, InitialOrdersPerDistrict: 50,
				RemoteStockProb: *remote, Seed: 99,
			})
		}
	default:
		log.Fatalf("qotpd: unknown workload %q (have ycsb, tpcc)", *wl)
	}

	// Serial reference for verification. A deterministic submission order is
	// required, so it applies to the harness mode and to -serve with a single
	// closed-loop client; concurrent clients interleave nondeterministically
	// and are verified by outcome accounting instead.
	verifiable := !*serveMode || (*clients == 1 && *loop == "closed")
	var refStore *storage.Store
	if verifiable {
		refGen := mkGen()
		refStore = storage.MustOpen(refGen.StoreConfig(parts))
		if err := refGen.Load(refStore); err != nil {
			log.Fatal(err)
		}
		refEng, err := core.New(refStore, core.Config{Planners: 1, Executors: 1})
		if err != nil {
			log.Fatal(err)
		}
		total := *batches * *batchSize
		if *serveMode {
			total = *clients * *ctxns
		}
		for total > 0 {
			n := min(total, *batchSize)
			total -= n
			if err := refEng.ExecBatch(refGen.NextBatch(n)); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Real TCP transports on loopback (cluster.StartLoopbackTCP): bind with
	// :0, share addresses, connect the mesh. qotpd demonstrates the wire
	// path in one process; production deploys one TCPTransport per host with
	// a static address list.
	engineMeshOpts := cluster.DefaultTCPOptions()
	engineMeshOpts.Metrics, engineMeshOpts.MetricsMesh = reg, "engine"
	multi, err := cluster.StartLoopbackTCPOpts(*nodes, engineMeshOpts)
	if err != nil {
		log.Fatal(err)
	}
	defer multi.Close()
	for i, addr := range multi.Addrs() {
		fmt.Printf("node %d listening on %s\n", i, addr)
	}

	// QueCC-D drives all nodes; node 0's transport carries the leader role.
	// The engine is transport-agnostic: the same code ran over ChanTransport
	// in the benchmarks.
	gen := mkGen()
	var opts []dist.Option
	if *pipeline {
		opts = append(opts, dist.ArgPipeline)
	}
	eng, err := dist.NewQueCCD(multi, gen, parts, *execs, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if reg != nil {
		obs.CollectStats(reg, "qotp_engine", eng.Stats())
	}

	// Recovery before logging: replay the log's intact batches through the
	// cluster (read-only pass), advance the generator past them, then open the
	// writer and continue the stream where the crashed run's log ends.
	recovered := 0
	if *waldir != "" {
		info, err := wal.RecoverFrom(*waldir, nil, nil, gen.Registry(), func(_ uint64, txns []*txn.Txn) error {
			return eng.ExecBatch(txns)
		})
		if err != nil {
			log.Fatal(err)
		}
		recovered = int(info.NextEpoch)
		if recovered > 0 {
			fmt.Printf("recovered %d batches from %s\n", recovered, *waldir)
			for i := 0; i < recovered; i++ {
				gen.NextBatch(*batchSize) // replayed input: skip, don't re-run
			}
		}
		w, err := wal.Open(*waldir, wal.Options{Sync: walPolicy, Metrics: reg})
		if err != nil {
			log.Fatal(err)
		}
		defer w.Close()
		eng.SetLogger(w)
	}

	// Replication: a standby fleet on its own loopback TCP mesh, fed by the
	// engine's batch-logger hook. The hook also drives the fault schedule —
	// kill and rejoin land exactly at batch boundaries.
	var rs *replSet
	if *replicas > 0 {
		rs, err = startRepl(*replicas, *ackmode, *killNode, *rejoinAt, *leaderKill, mkGen, parts, *execs, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer rs.Close()
		eng.SetLogger(rs)
		fmt.Printf("replication: %d standby replicas on their own TCP mesh, ack=%s\n", *replicas, *ackmode)
	}

	if *serveMode {
		srv, err := serve.New(eng, serve.Config{MaxBatch: *batchSize, MaxDelay: *maxDelay, Block: true, Metrics: reg})
		if err != nil {
			log.Fatal(err)
		}
		serveClients(srv, gen, *clients, *ctxns, *batchSize, *loop == "open")
		if err := srv.Close(); err != nil {
			log.Fatal(err)
		}
		verifyHash(eng, mkGen, parts, refStore)
		if rs != nil {
			rs.finish(eng, mkGen, parts, refStore != nil)
		}
		finishObs()
		return
	}

	// One driver whether or not -pipeline made the leader a pipelined one:
	// Submit returns once the batch (synchronous) or its predecessor
	// (pipelined) has committed.
	drv := engine.Drive(eng)
	start := time.Now()
	for b := 0; b < *batches-recovered; b++ {
		if err := drv.Submit(gen.NextBatch(*batchSize)); err != nil {
			log.Fatal(err)
		}
		if *crashAfter > 0 && b+1 >= *crashAfter {
			// Simulated kill: no Drain, no Close, no wal.Close — the log holds
			// whatever the sync policy made durable. A rerun with the same
			// -waldir recovers and finishes the stream.
			fmt.Printf("simulated crash after %d batches (wal holds the input; rerun to recover)\n", b+1)
			os.Exit(0)
		}
	}
	if err := drv.Drain(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	snap := eng.Stats().Snap(elapsed)
	fmt.Printf("\ncommitted %d txns in %v over TCP — %.0f txn/s, %d messages\n",
		snap.Committed, elapsed.Round(time.Millisecond), snap.Throughput, multi.Messages())
	verifyHash(eng, mkGen, parts, refStore)
	if rs != nil {
		rs.finish(eng, mkGen, parts, refStore != nil)
	}
	finishObs()
}

// verifyHash checks the cluster state against the serial reference when one
// exists (nil refStore = nondeterministic submission order, skip).
func verifyHash(eng *dist.QueCCD, mkGen func() workload.Generator, parts int, refStore *storage.Store) {
	if refStore == nil {
		fmt.Println("state-hash verification skipped: concurrent clients have no deterministic reference order")
		return
	}
	var tables []storage.TableID
	for _, ts := range mkGen().StoreConfig(parts).Tables {
		tables = append(tables, ts.ID)
	}
	got := dist.ClusterStateHash(eng.Stores(), tables)
	want := refStore.StateHash()
	if got != want {
		log.Fatalf("cluster state %x != serial reference %x", got, want)
	}
	fmt.Printf("cluster state hash %x matches the serial reference — deterministic over real sockets\n", got)
}

// replicaNode is one standby full replica: a loaded store and a serial
// engine that applies the replicated batch stream. Applying the leader's
// logged inputs through a deterministic engine reproduces the leader's exact
// state — the stream of batch inputs IS the replication protocol.
type replicaNode struct {
	store *storage.Store
	eng   *core.Engine
	gen   workload.Generator
}

func newReplicaNode(mkGen func() workload.Generator, parts, execs int) (*replicaNode, error) {
	gen := mkGen()
	store := storage.MustOpen(gen.StoreConfig(parts))
	if err := gen.Load(store); err != nil {
		return nil, err
	}
	eng, err := core.New(store, core.Config{Planners: 1, Executors: execs})
	if err != nil {
		return nil, err
	}
	return &replicaNode{store: store, eng: eng, gen: gen}, nil
}

func (r *replicaNode) followerOptions(dir string) repl.FollowerOptions {
	return repl.FollowerOptions{
		Dir: dir, Store: r.store, Registry: r.gen.Registry(),
		Apply:     func(_ uint64, txns []*txn.Txn) error { return r.eng.ExecBatch(txns) },
		Heartbeat: 20 * time.Millisecond,
	}
}

// applyEncoded decodes one replicated batch and executes it on the replica's
// own engine — the promoted node's apply path once it leads the stream (fresh
// transaction objects, exactly as a follower would decode them off the wire).
func (r *replicaNode) applyEncoded(payload []byte) error {
	txns, _, err := txn.DecodeBatch(payload)
	if err != nil {
		return err
	}
	reg := r.gen.Registry()
	for _, t := range txns {
		if err := reg.Resolve(t); err != nil {
			return err
		}
	}
	return r.eng.ExecBatch(txns)
}

// replSet is the -replicas standby fleet: leader endpoint 0 plus n follower
// endpoints on a dedicated loopback TCP mesh, each follower a full replica.
// It implements core.BatchLogger, so it plugs straight into the engine's
// durability hook; the hook counts batches and fires the -killnode/-rejoin
// fault schedule at exact batch boundaries.
type replSet struct {
	lb     *cluster.LoopbackTCP
	leader *repl.Leader
	root   string // temp root holding every node's log directory
	dirs   []string
	reps   []*replicaNode
	fls    []*repl.Follower

	mkGen        func() workload.Generator
	parts, execs int
	reg          *obs.Registry

	killAt, rejoinAt int
	batches          int

	// -failover state: the leader-kill schedule, the election outcome channel
	// the followers' OnPromoted callbacks report on, and — once a follower has
	// won — the reopened leader on the winner's log plus the winner's replica
	// index (its engine applies the continued stream; it leads now).
	leaderKillAt  int
	ack           repl.AckMode
	waitFor       int
	promoCh       chan promoted
	newLeader     *repl.Leader
	winner        int
	scratch       []byte
}

// promoted is one follower's election win, as reported by its OnPromoted hook.
type promoted struct {
	id   int
	term uint64
}

func startRepl(n int, ackmode string, killAt, rejoinAt, leaderKillAt int, mkGen func() workload.Generator, parts, execs int, reg *obs.Registry) (*replSet, error) {
	ack, waitFor, err := repl.ParseAckMode(ackmode)
	if err != nil {
		return nil, err
	}
	lb, err := cluster.StartLoopbackTCPOpts(n+1, cluster.TCPOptions{
		HeartbeatEvery: 20 * time.Millisecond,
		SuspectAfter:   300 * time.Millisecond,
		Metrics:        reg,
		MetricsMesh:    "repl",
	})
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp("", "qotpd-repl-")
	if err != nil {
		lb.Close()
		return nil, err
	}
	rs := &replSet{
		lb: lb, root: root, mkGen: mkGen, parts: parts, execs: execs, reg: reg,
		killAt: killAt, rejoinAt: rejoinAt,
		leaderKillAt: leaderKillAt, ack: ack, waitFor: waitFor,
		promoCh: make(chan promoted, n), winner: -1,
	}
	fail := func(err error) (*replSet, error) {
		rs.Close()
		return nil, err
	}
	followers := make([]int, 0, n)
	for id := 1; id <= n; id++ {
		dir := fmt.Sprintf("%s/node%d", root, id)
		rep, err := newReplicaNode(mkGen, parts, execs)
		if err != nil {
			return fail(err)
		}
		fo := rep.followerOptions(dir)
		fo.Metrics = reg
		fo.WAL.Metrics = reg
		if leaderKillAt > 0 {
			// Election-enabled standby: peers are the other followers; a win is
			// reported so the batch stream can hand over to the new leader.
			id := id
			var peers []int
			for p := 1; p <= n; p++ {
				if p != id {
					peers = append(peers, p)
				}
			}
			fo.Peers = peers
			fo.ElectionTimeout = 150 * time.Millisecond
			fo.OnPromoted = func(term uint64) { rs.promoCh <- promoted{id: id, term: term} }
		}
		f, err := repl.StartFollower(lb, id, 0, fo)
		if err != nil {
			return fail(err)
		}
		rs.dirs = append(rs.dirs, dir)
		rs.reps = append(rs.reps, rep)
		rs.fls = append(rs.fls, f)
		followers = append(followers, id)
	}
	ldr, err := repl.OpenLeader(root+"/leader", lb, 0, followers, repl.Options{
		Ack: ack, WaitFor: waitFor, AckTimeout: 2 * time.Second,
		Metrics: reg, WAL: wal.Options{Metrics: reg},
	})
	if err != nil {
		return fail(err)
	}
	rs.leader = ldr
	return rs, nil
}

// LogBatch implements core.BatchLogger: replicate the batch input, then run
// the fault schedule. The engine calls it once per batch in commit order, so
// kill, rejoin and the leader failover all land deterministically between
// batches.
func (rs *replSet) LogBatch(epoch uint64, txns []*txn.Txn) error {
	if rs.newLeader != nil {
		// Post-failover: the promoted node owns the stream — it replicates to
		// the survivors and applies the batch on its own replica engine (its
		// follower-time apply hook sealed with the election win).
		if err := rs.newLeader.LogBatch(epoch, txns); err != nil {
			return err
		}
		rs.scratch = txn.AppendBatch(rs.scratch[:0], txns)
		if err := rs.reps[rs.winner].applyEncoded(rs.scratch); err != nil {
			return fmt.Errorf("promoted replica apply: %w", err)
		}
		rs.batches++
		return nil
	}
	if err := rs.leader.LogBatch(epoch, txns); err != nil {
		return err
	}
	rs.batches++
	if rs.killAt > 0 && rs.batches == rs.killAt {
		rs.kill()
	}
	if rs.rejoinAt > 0 && rs.batches == rs.rejoinAt {
		if err := rs.rejoin(); err != nil {
			return err
		}
	}
	if rs.leaderKillAt > 0 && rs.batches == rs.leaderKillAt {
		if err := rs.killLeader(); err != nil {
			return err
		}
	}
	return nil
}

// killLeader is the failover chaos point: SIGKILL the replication leader
// (sever its sockets mid-stream), wait for the followers' failure detectors
// to fire and their claim-exchange election to promote one of them, then
// reopen the winner's sealed log as the new stream head. The batch stream
// blocks here — the gap between the kill and the handover IS the failover
// downtime, and it is bounded by detector + election timeouts, not by any
// external coordinator.
func (rs *replSet) killLeader() error {
	rs.lb.Endpoint(0).Close()
	fmt.Printf("leader killed after batch %d — %d followers must elect a replacement on their own\n",
		rs.batches, len(rs.fls))
	start := time.Now()
	var won promoted
	select {
	case won = <-rs.promoCh:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("no follower promoted itself within 30s")
	}
	idx := won.id - 1
	var survivors []int
	for id := 1; id <= len(rs.fls); id++ {
		if id != won.id {
			survivors = append(survivors, id)
		}
	}
	waitFor := rs.waitFor
	if waitFor > len(survivors) {
		waitFor = len(survivors)
	}
	ldr, err := repl.OpenLeader(rs.dirs[idx], rs.lb, won.id, survivors, repl.Options{
		Ack: rs.ack, WaitFor: waitFor, AckTimeout: 2 * time.Second,
		Metrics: rs.reg, WAL: wal.Options{Metrics: rs.reg},
	})
	if err != nil {
		return fmt.Errorf("takeover on node %d: %w", won.id, err)
	}
	rs.newLeader, rs.winner = ldr, idx
	fmt.Printf("follower %d promoted to leader at term %d after batch %d (downtime %v)\n",
		won.id, won.term, rs.batches, time.Since(start).Round(time.Millisecond))
	return nil
}

// kill simulates SIGKILL on follower 1: sever its sockets, stop its
// goroutines, keep its log directory. The leader keeps committing against
// whatever quorum survives (degrading if the ack mode demanded this node).
func (rs *replSet) kill() {
	rs.lb.Endpoint(1).Close()
	rs.fls[0].Abandon()
	fmt.Printf("follower 1 killed after batch %d (leader continues on the surviving quorum)\n", rs.batches)
}

// rejoin restarts the killed follower while the leader is still streaming: a
// fresh transport on the same address, a fresh replica state machine, and a
// follower on the same log directory — it replays the local segments,
// requests the missing tail from the leader's log, and re-enters the live
// stream at a batch boundary.
func (rs *replSet) rejoin() error {
	if _, err := rs.lb.Restart(1); err != nil {
		return err
	}
	rep, err := newReplicaNode(rs.mkGen, rs.parts, rs.execs)
	if err != nil {
		return err
	}
	fo := rep.followerOptions(rs.dirs[0])
	fo.Metrics = rs.reg
	fo.WAL.Metrics = rs.reg
	f, err := repl.StartFollower(rs.lb, 1, 0, fo)
	if err != nil {
		return err
	}
	rs.reps[0], rs.fls[0] = rep, f
	fmt.Printf("follower 1 restarted after batch %d, rejoining mid-stream\n", rs.batches)
	return nil
}

// finish waits for every replica to catch up, then checks each one's state
// hash against the live cluster (and transitively the serial reference, when
// the run was deterministic — verifyHash already equated the two).
func (rs *replSet) finish(eng *dist.QueCCD, mkGen func() workload.Generator, parts int, hasRef bool) {
	ldr := rs.leader
	if rs.newLeader != nil {
		ldr = rs.newLeader
	}
	if err := ldr.WaitCaughtUp(30 * time.Second); err != nil {
		log.Fatalf("qotpd: replicas never caught up: %v (leader stats %+v)", err, ldr.Stats())
	}
	var tables []storage.TableID
	for _, ts := range mkGen().StoreConfig(parts).Tables {
		tables = append(tables, ts.ID)
	}
	clusterHash := dist.ClusterStateHash(eng.Stores(), tables)
	against := "the cluster state"
	if hasRef {
		against = "the serial reference"
	}
	for i, rep := range rs.reps {
		if got := rep.store.StateHash(); got != clusterHash {
			log.Fatalf("qotpd: replica %d state hash %x != cluster %x", i+1, got, clusterHash)
		}
		fmt.Printf("replica %d state hash matches %s\n", i+1, against)
	}
	st := ldr.Stats()
	if rs.rejoinAt > 0 && st.Rejoins == 0 {
		log.Fatalf("qotpd: follower restarted but never completed a rejoin: %+v", st)
	}
	fmt.Printf("replication: %d batches to %d replicas — rejoins=%d catchup=%d snapshots=%d degraded=%d shed=%d\n",
		rs.batches, len(rs.reps), st.Rejoins, st.CatchupRecords, st.SnapshotsSent, st.Degraded, st.Shed)
}

// Close tears the fleet down: leader first (stops the stream), then the
// followers, the mesh, and the temp logs.
func (rs *replSet) Close() {
	if rs.newLeader != nil {
		_ = rs.newLeader.Close()
	}
	if rs.leader != nil {
		_ = rs.leader.Close()
	}
	for _, f := range rs.fls {
		_ = f.Close()
	}
	for _, rep := range rs.reps {
		rep.eng.Close()
	}
	rs.lb.Close()
	_ = os.RemoveAll(rs.root)
}

// serveClients opens the client port and drives it with remote clients over
// real TCP, then reports per-transaction latency percentiles (enqueue to
// commit) and outcome accounting.
func serveClients(srv *serve.Server, gen workload.Generator, clients, ctxns, genChunk int, open bool) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ts := serve.ServeTCP(lis, srv, gen.Registry())
	defer ts.Close()
	fmt.Printf("client port listening on %s (%d clients x %d txns, %s loop)\n",
		ts.Addr(), clients, ctxns, map[bool]string{true: "open", false: "closed"}[open])

	// One generator feeds all clients: pre-generate and split round-robin so
	// the offered work is the same deterministic stream the harness would
	// run, chunked exactly as the serial reference generated it (see
	// workload.GenStream for why the chunking matters).
	stream := workload.GenStream(gen, clients*ctxns, genChunk)
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed, aborted, failed := 0, 0, 0
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rc, err := serve.DialTCP(ts.Addr().String())
			if err != nil {
				log.Fatalf("client %d: %v", c, err)
			}
			defer rc.Close()
			ctx := context.Background()
			var futs []*serve.Future
			ok, ab, bad := 0, 0, 0
			count := func(out serve.Outcome) {
				switch {
				case out.Err != nil:
					bad++
				case out.Committed:
					ok++
				default:
					ab++
				}
			}
			for i := c; i < len(stream); i += clients {
				if open {
					fut, err := rc.Submit(ctx, stream[i])
					if err != nil {
						log.Fatalf("client %d submit: %v", c, err)
					}
					futs = append(futs, fut)
					continue
				}
				out, err := rc.Exec(ctx, stream[i])
				if err != nil {
					log.Fatalf("client %d exec: %v", c, err)
				}
				count(out)
			}
			for _, fut := range futs {
				count(fut.Outcome())
			}
			mu.Lock()
			committed += ok
			aborted += ab
			failed += bad
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if committed+aborted+failed != len(stream) || failed > 0 {
		log.Fatalf("outcome accounting broken: committed=%d aborted=%d failed=%d of %d",
			committed, aborted, failed, len(stream))
	}
	snap := srv.Stats().Snap(elapsed)
	fmt.Printf("\n%d committed, %d aborted by logic in %v — %.0f txn/s through the client port\n",
		committed, aborted, elapsed.Round(time.Millisecond), snap.Throughput)
	fmt.Printf("per-txn latency (enqueue->commit): mean=%v p50=%v p99=%v p999=%v\n",
		snap.MeanLat, snap.P50, snap.P99, snap.P999)
}
