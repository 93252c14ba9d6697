// Package serve is the client-facing submission layer over the batch-native
// engines: callers submit individual transactions and receive per-transaction
// outcomes, while an internal batch former groups submissions into the
// deterministic batches the engines actually execute.
//
// This is the missing front half of the paper's pipeline — QueCC's planners
// consume "a batch delivered by the client transaction stream", and the HA
// follow-up (Qadah & Sadoghi 2021) assumes a leader that *forms* batches from
// client submissions. Gray's "Queues Are Databases" argument supplies the
// interface shape: queue the request, let the engine drain the queue in
// batches, answer each requester with its own outcome.
//
// # Batch forming (group commit)
//
// One former goroutine owns the engine (the engines are single-driver by
// contract). It gathers submissions from a bounded queue into a batch and
// closes it on the first of three triggers: MaxBatch transactions have
// accumulated; the queue is momentarily dry while no earlier batch is still
// executing or unfinal (an idle engine is never kept waiting for a fuller
// batch); or MaxDelay has elapsed since the batch's first transaction
// arrived. MaxDelay is thus a ceiling that binds only while the engine is
// busy, and batch size follows service time as in classic group commit:
// small batches at low load, full ones under saturation. It then numbers the
// batch, logs it (Config.WAL) and hands it to the engine through the one
// driver contract every engine is given by engine.Drive: Submit the batch,
// then watch two watermarks — how many submitted batches have drained, and
// how many are final. The batch joins a window of
// submitted-but-unfinal batches, each entry carrying its own sequence number.
// What overlaps with what is the engine's business, not a second code path
// here: a speculating engine (core.Config.CrossBatch) executes batch k+1
// before batch k's verdicts are final; a pipelined engine (core.Config.Pipeline,
// dist.ArgPipeline) has drained == final and overlaps forming and planning
// batch k+1 with the execution of batch k; a synchronous engine is final when
// Submit returns, so its window is always empty, the queue buffers arrivals
// during execution, and every batch closes as soon as the queue is dry.
//
// # Verdict routing
//
// Engines report per-transaction verdicts through the transaction itself: at
// the batch commit point every transaction is either committed or carries the
// deterministic logic-abort bit (txn.Aborted). The former polls the
// watermarks between arrivals, around every Submit and when the queue goes
// idle; a window entry at or below the final watermark has its bits read and
// each submission's Future resolved with a committed/aborted Outcome, the
// entry's batch number and the transaction's true end-to-end latency (enqueue
// to commit). An entry that has drained but is not final can publish a
// provisional ack first (Config.SpeculativeAcks). An engine error is terminal
// (deterministic engines cannot resynchronize mid-batch): every outstanding
// and future submission fails with that error.
//
// # Backpressure
//
// The submission queue is bounded by MaxPending. A full queue either rejects
// immediately with ErrOverloaded (Block=false, the shed-load default) or
// blocks the caller until space frees or its context cancels (Block=true) —
// the caller's choice, per Config.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/metrics"
	"github.com/exploratory-systems/qotp/internal/obs"
	"github.com/exploratory-systems/qotp/internal/txn"
)

// ErrOverloaded is returned by Submit when the submission queue is full and
// the server is configured to shed load (Config.Block=false). The transaction
// was not accepted; the caller may retry after backing off.
var ErrOverloaded = errors.New("serve: submission queue full")

// ErrClosed is returned by Submit after Close has been called. Transactions
// accepted before Close still run to completion and resolve their Futures.
var ErrClosed = errors.New("serve: server closed")

// Config tunes the batch former and the submission queue.
type Config struct {
	// MaxBatch is the size trigger: a forming batch is dispatched as soon as
	// it holds this many transactions. Default 512.
	MaxBatch int
	// MaxDelay is the busy-engine ceiling on forming: while an earlier batch
	// is still executing or unfinal, a forming batch waits for more arrivals
	// at most this long after its first transaction arrived, full or not.
	// An idle engine never waits: the batch is dispatched as soon as the
	// queue is dry. Zero selects the 1ms default; a negative value selects
	// the no-wait mode — dispatch with whatever is queued even while the
	// engine is busy (pure size trigger with opportunistic gathering).
	MaxDelay time.Duration
	// MaxPending bounds the submission queue (accepted but not yet formed
	// into a dispatched batch). Default 4*MaxBatch.
	MaxPending int
	// Block selects the backpressure mode when the queue is full: false
	// rejects with ErrOverloaded, true blocks the submitter until space
	// frees or its context cancels.
	Block bool
	// SpeculativeAcks publishes a provisional early outcome per transaction
	// when the engine implements cross-batch speculative execution
	// (engine.Speculator with Speculating() true — core.Config.CrossBatch,
	// "quecc-spec"): Future.Speculative resolves with an Outcome marked
	// Speculative as soon as the transaction's batch drains, ahead of the
	// verdict fixpoint; the final Outcome follows — identical in the common
	// case, or a retraction (Future.Retracted) when a cross-batch abort
	// cascade flipped the verdict. Ignored for engines without the
	// speculative driver. Off by default: early acks are provisional by
	// construction, and clients must opt into observing them.
	SpeculativeAcks bool
	// WAL, when non-nil, receives every formed batch (in dispatch order, with
	// the batch sequence number as its epoch) BEFORE the batch is handed to
	// the engine — the durability point of the serving path. A WAL error is
	// terminal exactly like an engine error. Recovery replays logged batches
	// through a bare engine and re-resolves nothing: submissions that were
	// in flight at the crash are the clients' to resubmit. Use either this or
	// an engine-level logger (core.Config.Logger), not both — they would log
	// the same batches twice.
	WAL BatchLogger
	// Metrics, when non-nil, is the observability registry the server wires
	// its instruments into: queue depth, batch fill ratio, forming latency,
	// shed/block backpressure counts, dedup-window hits, per-session
	// counters, and the commit/abort/latency statistics exported live. A
	// registry shared with the other layers' configs (repl, wal, cluster)
	// yields one /metrics page for the whole node.
	Metrics *obs.Registry
	// MetricsAddr, when non-empty, starts an embedded observability HTTP
	// endpoint (obs.Serve: /healthz, /readyz, /metrics) on this address for
	// the server's lifetime — ":0" picks a free port, readable via
	// Server.MetricsAddr. If Metrics is nil a fresh registry is created.
	// Close shuts the listener down after the former drains, so a scrape
	// during drain still observes final counters.
	MetricsAddr string
	// Dedup is the exactly-once resubmission window consulted for every
	// submission carrying a client identity (txn.ClientID != 0). Nil creates
	// a fresh empty window. A promoted replication leader passes the window
	// it rebuilt from log replay, so transactions the dead leader committed
	// resolve from the window instead of executing twice when their clients
	// resubmit.
	Dedup *DedupWindow
}

// BatchLogger is the durability hook the former calls with each formed batch
// before dispatch; *wal.Writer implements it. Mirrors core.BatchLogger so the
// serve layer does not import the engine internals.
type BatchLogger interface {
	LogBatch(epoch uint64, txns []*txn.Txn) error
}

func (c *Config) normalize() error {
	if c.MaxBatch == 0 {
		c.MaxBatch = 512
	}
	if c.MaxBatch < 0 {
		return fmt.Errorf("serve: MaxBatch must be >= 1, got %d", c.MaxBatch)
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = time.Millisecond
	} else if c.MaxDelay < 0 {
		c.MaxDelay = 0 // no-wait mode: the gather loop skips the timer entirely
	}
	if c.MaxPending == 0 {
		c.MaxPending = 4 * c.MaxBatch
	}
	if c.MaxPending < 1 {
		return fmt.Errorf("serve: MaxPending must be >= 1, got %d", c.MaxPending)
	}
	return nil
}

// Outcome is one transaction's result as observed at its batch commit point.
type Outcome struct {
	// Committed reports the transaction committed; false with a nil Err means
	// the transaction's own logic aborted it (deterministic, permanent).
	Committed bool
	// Err is a terminal engine failure (never a logic abort). When set, the
	// transaction's effects are undefined and the server is dead.
	Err error
	// Latency is the end-to-end time from Submit accepting the transaction to
	// its batch committing — the honest per-transaction number the batch
	// harness's shared-commit-point accounting (Histogram.ObserveN) cannot
	// give.
	Latency time.Duration
	// Batch is the sequence number of the formed batch the transaction rode
	// in (group-commit evidence: transactions submitted together share it).
	Batch uint64
	// Speculative marks a provisional early ack (Config.SpeculativeAcks):
	// the verdict was read at the batch's speculative drain point and may
	// still be retracted by the cross-batch verdict fixpoint. Final outcomes
	// always carry Speculative=false.
	Speculative bool
}

// Aborted reports a deterministic logic abort (as opposed to engine failure).
func (o Outcome) Aborted() bool { return !o.Committed && o.Err == nil }

// Future is the pending result of one submitted transaction. With
// Config.SpeculativeAcks on a speculating engine it additionally carries a
// provisional early outcome: Speculative resolves first (at the batch's
// drain point), Done later (at the verdict fixpoint); Retracted reports
// whether the final outcome contradicted the early ack.
type Future struct {
	done     chan struct{}
	out      Outcome
	resolved atomic.Bool

	// Speculative-ack state; specDone is nil unless the submission opted in.
	// specSet publishes specOut (atomic store/load pairs give the reader
	// happens-before); specClosed makes the specDone close idempotent across
	// the speculative and final resolution paths; retracted is set before
	// done closes, so a client that observed the final outcome observes the
	// retraction verdict too.
	specDone   chan struct{}
	specOut    Outcome
	specSet    atomic.Bool
	specClosed atomic.Bool
	retracted  atomic.Bool
}

func newFuture() *Future { return &Future{done: make(chan struct{})} }

// Done returns a channel closed when the outcome is available.
func (f *Future) Done() <-chan struct{} { return f.done }

// Outcome blocks until the transaction's batch resolves and returns the
// outcome.
func (f *Future) Outcome() Outcome {
	<-f.done
	return f.out
}

// Speculative returns a channel closed when a provisional outcome is
// available (see SpeculativeOutcome). It is closed no later than Done — for
// submissions without speculative acks it IS the Done channel — so waiting
// on Speculative never outlasts the final outcome.
func (f *Future) Speculative() <-chan struct{} {
	if f.specDone == nil {
		return f.done
	}
	return f.specDone
}

// SpeculativeOutcome returns the provisional outcome published at the
// transaction's speculative drain point, if one was. ok=false means the
// future resolved finally without a distinct speculative ack (fast path, or
// speculative acks not enabled).
func (f *Future) SpeculativeOutcome() (Outcome, bool) {
	if !f.specSet.Load() {
		return Outcome{}, false
	}
	return f.specOut, true
}

// Retracted reports that the final outcome contradicted a published
// speculative ack: the cross-batch verdict fixpoint flipped the provisional
// verdict (or the engine failed after the ack). Guaranteed to be set before
// Done closes.
func (f *Future) Retracted() bool { return f.retracted.Load() }

// resolveSpec publishes the provisional outcome and wakes Speculative
// waiters. Former-goroutine-only, like resolve; no-op after final
// resolution or a duplicate speculative ack.
func (f *Future) resolveSpec(out Outcome) {
	if f.specDone == nil || f.resolved.Load() || f.specSet.Load() {
		return
	}
	f.specOut = out
	f.specSet.Store(true)
	if f.specClosed.CompareAndSwap(false, true) {
		close(f.specDone)
	}
}

// Wait is Outcome bounded by a context. A context error abandons the wait
// only — the transaction is already accepted and will still execute; its
// outcome remains readable from the Future afterwards.
func (f *Future) Wait(ctx context.Context) (Outcome, error) {
	select {
	case <-f.done:
		return f.out, nil
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	}
}

// resolve is idempotent: the failure paths may sweep a batch that the normal
// path (or an earlier failure) already resolved.
func (f *Future) resolve(out Outcome) {
	if !f.resolved.CompareAndSwap(false, true) {
		return
	}
	if f.specSet.Load() && (out.Err != nil || f.specOut.Committed != out.Committed) {
		f.retracted.Store(true)
	}
	f.out = out
	if f.specDone != nil && f.specClosed.CompareAndSwap(false, true) {
		close(f.specDone)
	}
	close(f.done)
}

// submission is one queued transaction: the txn, its future, its owning
// session (nil for direct submits) and its enqueue instant.
type submission struct {
	t    *txn.Txn
	fut  *Future
	sess *Session
	enq  time.Time
}

// Server is the client-facing submission front end over one engine. Create
// with New; submit with Submit or through Sessions; stop with Close. All
// methods are safe for concurrent use.
type Server struct {
	drv engine.Speculator // engine.Drive(eng): the single batch driver
	cfg Config

	// specAcks gates publishing early acks to futures: Config.SpeculativeAcks
	// on an engine whose drained watermark can run ahead of its final one.
	specAcks bool

	in chan submission

	mu     sync.RWMutex // guards closed against in-flight Submit sends
	closed bool

	// failure holds the terminal engine error once one occurs (atomic so
	// Submit can fail fast without taking the former's locks).
	failure atomic.Value // error

	stats    metrics.Stats
	started  time.Time
	batchSeq atomic.Uint64
	dedup    *DedupWindow

	// Observability (all nil-safe / always-valid: the atomics count whether
	// or not a registry is attached, the windows are nil without one).
	sheds     atomic.Uint64 // ErrOverloaded rejections (shed-load mode)
	blocked   atomic.Uint64 // Block-mode submitters that had to wait for space
	dedupHits atomic.Uint64 // submissions answered from the dedup window
	sessSeq   atomic.Uint64 // session ids for per-session series labels
	reg       *obs.Registry
	obsSrv    *obs.HTTPServer
	wForming  *obs.Window // forming latency per batch (first-enqueue → dispatch)
	wFill     *obs.Window // batch fill ratio per batch (len/MaxBatch)

	done chan struct{} // closed when the former has drained and exited

	// The former's batch buffers (former goroutine only): a rotating
	// triple, one per batch the window can hold plus the one being gathered.
	// Batch k can still be *pending* (drained, verdicts provisional) while
	// k+1 executes and k+2 is being gathered — three live generations; a
	// pipelined engine uses two of them, a synchronous one a single one. A
	// buffer is reused only when its batch is final.
	subs    []submission
	txns    []*txn.Txn
	subsBuf [3][]submission
	txnsBuf [3][]*txn.Txn
	bufIdx  int

	// window holds the submitted-but-unfinal batches (former goroutine only;
	// at most two entries: one pending-final, one executing). submitIdx is the
	// driver's count of submitted batches — the scale its drained/final
	// watermarks are on — so entries can be compared against them.
	window    []windowEntry
	submitIdx uint64
}

// windowEntry is one submitted-but-unfinal batch.
type windowEntry struct {
	subs  []submission
	seq   uint64 // formed-batch sequence (Outcome.Batch)
	idx   uint64 // the batch's ordinal on the driver's watermark scale
	acked bool   // speculative acks already published
}

// New starts a server over eng. The server becomes the engine's single
// driver: no other goroutine may call ExecBatch/Submit/Drain on eng while
// the server is open. Close drains accepted work but does not close eng —
// the caller keeps engine ownership (qotp.Client bundles the two).
func New(eng engine.Engine, cfg Config) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	s := &Server{
		drv:     engine.Drive(eng),
		cfg:     cfg,
		dedup:   cfg.Dedup,
		in:      make(chan submission, cfg.MaxPending),
		done:    make(chan struct{}),
		started: time.Now(),
	}
	if s.dedup == nil {
		s.dedup = NewDedupWindow()
	}
	s.specAcks = cfg.SpeculativeAcks && s.drv.Speculating()
	// The engine is idle at hand-over, so every batch it has ever been given
	// has drained: the next Submit is batch drained+1 on its watermark scale,
	// however many batches (warm-up, replay) ran before the server existed.
	s.submitIdx, _ = s.drv.SpecStatus()
	s.reg = cfg.Metrics
	if s.reg == nil && cfg.MetricsAddr != "" {
		s.reg = obs.New()
	}
	if s.reg != nil {
		s.registerMetrics()
	}
	if cfg.MetricsAddr != "" {
		srv, err := obs.Serve(cfg.MetricsAddr, s.reg)
		if err != nil {
			return nil, err
		}
		s.obsSrv = srv
	}
	go s.run()
	return s, nil
}

// registerMetrics wires the serving layer's instruments into s.reg: the
// submission queue, backpressure counters, the forming windows, and the
// commit/abort/latency statistics exported live.
func (s *Server) registerMetrics() {
	r := s.reg
	r.Gauge("qotp_serve_queue_depth", "submissions accepted but not yet formed", func() float64 { return float64(len(s.in)) })
	r.Gauge("qotp_serve_queue_capacity", "submission queue bound (MaxPending)", func() float64 { return float64(cap(s.in)) })
	r.GaugeUint("qotp_serve_sheds_total", "submissions rejected with ErrOverloaded (shed-load mode)", &s.sheds)
	r.GaugeUint("qotp_serve_blocked_total", "Block-mode submitters that waited for queue space", &s.blocked)
	r.GaugeUint("qotp_serve_dedup_hits_total", "submissions answered from the exactly-once dedup window", &s.dedupHits)
	r.GaugeUint("qotp_serve_batches_total", "batches formed and dispatched", &s.batchSeq)
	s.wForming = r.WindowOpts("qotp_serve_forming_seconds", "batch forming latency (first enqueue to dispatch)", 10*time.Second, 20)
	s.wFill = r.WindowOpts("qotp_serve_batch_fill_ratio", "formed batch size / MaxBatch", 10*time.Second, 20)
	obs.CollectStats(r, "qotp_serve", &s.stats)
	r.Health("serve", s.Err)
	r.Ready("serve", func() error {
		if err := s.Err(); err != nil {
			return err
		}
		s.mu.RLock()
		closed := s.closed
		s.mu.RUnlock()
		if closed {
			return ErrClosed
		}
		return nil
	})
}

// Metrics returns the server's observability registry, nil when none was
// configured.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// MetricsAddr returns the bound address of the embedded observability
// endpoint ("" when Config.MetricsAddr was empty).
func (s *Server) MetricsAddr() string {
	if s.obsSrv == nil {
		return ""
	}
	return s.obsSrv.Addr().String()
}

// QueueDepth reports the submissions accepted but not yet formed into a
// dispatched batch — the live backpressure signal.
func (s *Server) QueueDepth() int { return len(s.in) }

// Sheds reports the cumulative ErrOverloaded rejections.
func (s *Server) Sheds() uint64 { return s.sheds.Load() }

// Stats returns the serving-layer metrics: per-transaction commit/abort
// counters and the end-to-end latency histogram (one Observe per transaction,
// enqueue to commit — not the engine's shared-commit-point histogram).
func (s *Server) Stats() *metrics.Stats { return &s.stats }

// Snapshot returns the serving-layer metrics snapshot over the server's
// lifetime so far.
func (s *Server) Snapshot() metrics.Snapshot { return s.stats.Snap(time.Since(s.started)) }

// Err returns the terminal engine error, if one has occurred.
func (s *Server) Err() error {
	err, _ := s.failure.Load().(error)
	return err
}

// Session opens a logical client session. Sessions are cheap handles sharing
// the server's queue; each tracks its own submitted/committed/aborted counts.
// A session is a single client's submission ordering context: transactions
// submitted sequentially through one session enter the stream (and therefore
// the deterministic execution order) in submission order.
//
// With a metrics registry attached, the first maxSessionSeries sessions get
// per-session series (submitted/committed/aborted/shed, labeled session="N");
// later sessions still count internally but are not exported individually, so
// label cardinality stays bounded no matter how many clients connect.
func (s *Server) Session() *Session {
	sess := &Session{srv: s, id: s.sessSeq.Add(1)}
	if s.reg != nil && sess.id <= maxSessionSeries {
		l := obs.L("session", strconv.FormatUint(sess.id, 10))
		s.reg.GaugeUint("qotp_serve_session_submitted_total", "transactions accepted per session", &sess.submitted, l)
		s.reg.GaugeUint("qotp_serve_session_committed_total", "transactions committed per session", &sess.committed, l)
		s.reg.GaugeUint("qotp_serve_session_aborted_total", "logic aborts per session", &sess.aborted, l)
		s.reg.GaugeUint("qotp_serve_session_shed_total", "ErrOverloaded rejections per session", &sess.shed, l)
	}
	return sess
}

// maxSessionSeries bounds per-session label cardinality on /metrics.
const maxSessionSeries = 64

// Submit enqueues one transaction and returns its Future. The transaction
// must be fully built (txn.Txn.Finish called — workload generators do this);
// the server takes ownership until the Future resolves. ctx bounds only the
// enqueue wait (Block mode); a ctx error means the transaction was NOT
// accepted. Rejections (ErrOverloaded, ErrClosed, terminal engine errors)
// also mean not accepted.
func (s *Server) Submit(ctx context.Context, t *txn.Txn) (*Future, error) {
	return s.submit(ctx, t, nil)
}

func (s *Server) submit(ctx context.Context, t *txn.Txn, sess *Session) (*Future, error) {
	if err := s.Err(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fut := newFuture()
	if s.specAcks {
		fut.specDone = make(chan struct{})
	}
	if t.ClientID != 0 {
		// Exactly-once resubmission: a duplicate of an in-flight submission
		// shares its Future (one execution, two observers); a duplicate of a
		// resolved one replays the recorded verdict without executing.
		prior, committed, state := s.dedup.Admit(t.ClientID, t.ClientSeq, fut)
		switch state {
		case dedupInflight:
			s.dedupHits.Add(1)
			return prior, nil
		case dedupResolved:
			s.dedupHits.Add(1)
			fut.resolve(Outcome{Committed: committed})
			return fut, nil
		}
	}
	sub := submission{t: t, fut: fut, sess: sess, enq: time.Now()}

	// The RLock fences Submit sends against Close: Close flips closed under
	// the write lock, which waits out every in-flight send, so no send can
	// race the channel close that follows.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		s.dedup.Forget(t.ClientID, t.ClientSeq)
		return nil, ErrClosed
	}
	// Count the submission *before* handing it to the former: once the send
	// lands, the outcome counters may advance immediately, and a session's
	// Submitted must never trail its Committed+Aborted. The rejection paths
	// below undo the count (briefly overstating Submitted, which is the
	// documented direction of the transient).
	if sess != nil {
		sess.submitted.Add(1)
	}
	reject := func(err error) (*Future, error) {
		if sess != nil {
			sess.submitted.Add(^uint64(0))
		}
		s.dedup.Forget(t.ClientID, t.ClientSeq)
		return nil, err
	}
	if s.cfg.Block {
		select {
		case s.in <- sub:
		default:
			// Full: wait for space or cancellation.
			s.blocked.Add(1)
			select {
			case s.in <- sub:
			case <-ctx.Done():
				return reject(ctx.Err())
			}
		}
	} else {
		select {
		case s.in <- sub:
		default:
			s.sheds.Add(1)
			if sess != nil {
				sess.shed.Add(1)
			}
			return reject(ErrOverloaded)
		}
	}
	return sub.fut, nil
}

// Close stops accepting new submissions, waits for every accepted
// transaction to execute and resolve its Future (the final partial batch is
// formed and dispatched immediately), and returns the terminal engine error,
// if any occurred. The engine itself is not closed. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.in)
	}
	s.mu.Unlock()
	<-s.done
	// The former has drained: every counter is final. Only now close the
	// embedded obs listener, so a scrape during drain reflects the end state.
	if s.obsSrv != nil {
		_ = s.obsSrv.Close()
	}
	return s.Err()
}

// run is the batch former: the engine's single driver goroutine.
func (s *Server) run() {
	defer close(s.done)

	// abort is the terminal-error epilogue: fail the window and the batch in
	// hand, then keep consuming until Close so Block-mode submitters can never
	// wedge on a full queue nobody drains; each straggler fails fast.
	abort := func(err error, batch []submission) {
		err = s.fail(err)
		s.failBatch(batch, err)
		for sub := range s.in {
			sub.fut.resolve(Outcome{Err: err})
		}
	}

	for {
		first, ok := s.next()
		if !ok {
			break
		}
		if err := s.Err(); err != nil {
			// next() saw the window fail; first was already accepted, so it
			// fails along with everything else.
			abort(err, []submission{first})
			return
		}
		s.subs = s.subsBuf[s.bufIdx][:0]
		s.txns = s.txnsBuf[s.bufIdx][:0]
		batch := s.gather(first)
		s.subsBuf[s.bufIdx] = s.subs
		s.txnsBuf[s.bufIdx] = s.txns
		s.bufIdx = (s.bufIdx + 1) % 3
		// Per-batch observability: forming latency (first enqueue to here)
		// and fill ratio. Nil-safe — no registry, no cost beyond two calls.
		s.wForming.ObserveDuration(time.Since(first.enq))
		s.wFill.Observe(float64(len(batch)) / float64(s.cfg.MaxBatch))
		if err := s.Err(); err != nil {
			// A mid-gather poll surfaced a terminal error.
			abort(err, batch)
			return
		}
		seq := s.batchSeq.Add(1)
		if s.cfg.WAL != nil {
			// Log the formed batch before the engine sees it: once execution
			// starts, its input is already durable per the sync policy.
			if err := s.cfg.WAL.LogBatch(seq, s.txns); err != nil {
				abort(err, batch)
				return
			}
		}
		// Answer a predecessor that finished meanwhile before planning this
		// batch, not after. Then Submit: it returns once the previous batch
		// has drained — final for most engines, provisional for a speculating
		// one — so nothing is resolved off its return; the batch joins the
		// window and the watermarks say what is ready. An error may belong to
		// this batch's planning or to a windowed batch's execution; the engine
		// cannot be resynchronized either way, so all of them fail.
		s.poll()
		if err := s.drv.Submit(s.txns); err != nil {
			abort(err, batch)
			return
		}
		s.submitIdx++
		s.window = append(s.window, windowEntry{subs: batch, seq: seq, idx: s.submitIdx})
		s.poll()
	}
	// Input closed and drained. next() closes out the window before it reports
	// that, so every accepted transaction is already resolved.
}

// isDemotion reports whether err marks a replication-leadership handover
// (repl.ErrDemoted) rather than a genuine engine/WAL failure. Detected
// structurally so the serving layer stays decoupled from the repl package.
func isDemotion(err error) bool {
	var d interface{ Demoted() bool }
	return errors.As(err, &d) && d.Demoted()
}

// fail records the terminal error — the first one wins — and fails every
// batch still in the window, returning the error clients are told. Retraction
// semantics hold here too: a future that was speculatively acked committed
// and now resolves with an error reports Retracted.
func (s *Server) fail(err error) error {
	if isDemotion(err) {
		// Leadership handover, not an engine failure: the replication layer
		// fenced this node off because a newer-term leader owns the stream.
		// Pending and future submissions resolve with the retryable
		// ErrConnLost, telling clients to redial the new leader and resubmit
		// (the dedup window there makes the resubmission exactly-once).
		// Nothing here poisons the engine; its state is simply no longer
		// authoritative.
		err = ErrConnLost
	}
	s.failure.CompareAndSwap(nil, err)
	for _, w := range s.window {
		s.failBatch(w.subs, err)
	}
	s.window = s.window[:0]
	return err
}

// poll advances the window against the driver's batch watermarks: entries at
// or below the final watermark resolve their futures with final verdicts (and
// are popped); drained-but-unfinal entries get speculative acks published
// once (Config.SpeculativeAcks). It reports whether it published a new
// speculative ack — i.e. whether some client just received a provisional
// answer it may respond to with a resubmission. The drained watermark is
// stored after the execution phase completes, so reading txn verdict bits
// after observing it is race-free; verdicts read this way are provisional by
// contract.
func (s *Server) poll() (acked bool) {
	if len(s.window) == 0 {
		return false
	}
	drained, final := s.drv.SpecStatus()
	for len(s.window) > 0 && s.window[0].idx <= final {
		w := s.window[0]
		copy(s.window, s.window[1:])
		s.window = s.window[:len(s.window)-1]
		s.resolveBatch(w.subs, w.seq)
	}
	if !s.specAcks {
		return false
	}
	for i := range s.window {
		w := &s.window[i]
		if !w.acked && w.idx <= drained {
			w.acked = true
			acked = true
			s.specResolveBatch(w.subs, w.seq)
		}
	}
	return acked
}

// pollEngine is the former's between-arrivals engine poll: it advances the
// window, surfaces an execution error, and — when the engine has gone idle
// with a batch still pending finalization — forces the deferred fixpoint so
// retractions resolve promptly rather than at the next forming window.
func (s *Server) pollEngine() {
	s.poll()
	if len(s.window) == 0 {
		return
	}
	done, err := s.drv.TryDrain()
	if err != nil {
		s.fail(err)
	} else if done {
		// Engine idle: nothing is executing, so a pending batch has no
		// successor to piggyback its fixpoint on. Finalize now.
		s.finalize()
	}
}

// finalize forces the window final — waiting out an executing batch and
// running any deferred verdict fixpoint — and resolves it.
func (s *Server) finalize() {
	if err := s.drv.Finalize(); err != nil {
		s.fail(err)
		return
	}
	s.poll()
}

// specResolveBatch publishes provisional outcomes for a drained batch. Only
// the latency histogram is fed here (time-to-first-ack is the client-visible
// response time when speculative acks are on); the commit/abort counters
// wait for the final verdicts in resolveBatch.
func (s *Server) specResolveBatch(batch []submission, seq uint64) {
	now := time.Now()
	for i := range batch {
		sub := &batch[i]
		lat := now.Sub(sub.enq)
		s.stats.Latency.Observe(lat)
		sub.fut.resolveSpec(Outcome{
			Committed:   !sub.t.Aborted(),
			Latency:     lat,
			Batch:       seq,
			Speculative: true,
		})
	}
}

// next blocks for the first submission of the next batch. With batches still
// in the window and an idle queue it first closes them out — resolving their
// futures as early as possible instead of parking them until the next
// arrival — then blocks. Returns ok=false when the input is closed and empty;
// the window is empty by then, so this is also the shutdown drain.
func (s *Server) next() (submission, bool) {
	s.poll()
	if len(s.window) > 0 {
		if sub, ok := s.recv(0); ok {
			return sub, true
		}
		// Queue idle (or closed): the engine has nothing to overlap with, so
		// wait for the executing batch to *drain* — WaitDrained returns at the
		// watermark, before any deferred fixpoint work — and answer its
		// clients. Where that answer is a speculative ack, the acked clients
		// are exactly the ones whose resubmissions form the successor batch
		// that piggybacks the fixpoint, so the repair runs during their think
		// time and the next forming window, off every ack path: grant them
		// one forming window to come back. Only if the queue stays idle (no
		// client is returning) force the deferred fixpoint and answer every
		// windowed client finally. A failure there surfaces through the normal
		// path: the next accepted submission (if any) fails in run's check.
		s.drv.WaitDrained()
		var grace time.Duration
		if s.poll() {
			grace = s.cfg.MaxDelay
		}
		if sub, ok := s.recv(grace); ok {
			return sub, true
		}
		s.finalize()
	}
	sub, ok := <-s.in
	return sub, ok
}

// recv takes a queued submission, waiting at most d for one to arrive (not at
// all when d <= 0); ok=false when none came or the input is closed.
func (s *Server) recv(d time.Duration) (submission, bool) {
	if d <= 0 {
		select {
		case sub, ok := <-s.in:
			return sub, ok
		default:
			return submission{}, false
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case sub, ok := <-s.in:
		return sub, ok
	case <-t.C:
		return submission{}, false
	}
}

// gather forms one batch starting from first: it takes whatever is already
// queued, and closes the batch as soon as the queue is dry while the window
// is empty — no submitted batch is executing or unfinal, so waiting would
// only idle the engine. While a predecessor is in the window it keeps
// accepting until MaxBatch transactions are in hand or MaxDelay has passed
// since first arrived, polling the window every 100µs so its clients resolve
// at commit rather than after this forming window (the latency-honesty
// requirement: a gather can last up to MaxDelay) and so the batch closes
// within one poll of the engine going idle. It appends into s.subs/s.txns,
// which run() points at the batch's rotation buffer beforehand; the returned
// slice stays valid until that buffer's next reuse, one full batch after
// this one resolves.
func (s *Server) gather(first submission) []submission {
	s.subs = append(s.subs[:0], first)
	deadline := first.enq.Add(s.cfg.MaxDelay)
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for len(s.subs) < s.cfg.MaxBatch {
		s.pollEngine()
		if s.failure.Load() != nil {
			// Terminal failure surfaced mid-gather: stop forming now so
			// run() fails the gathered submissions immediately — waiting
			// out MaxDelay for arrivals that Submit is already rejecting
			// would strand these callers.
			break
		}
		// Fast path: take whatever is already queued without arming a timer.
		select {
		case sub, ok := <-s.in:
			if !ok {
				goto formed
			}
			s.subs = append(s.subs, sub)
			continue
		default:
		}
		if len(s.window) == 0 {
			break // adaptive close: the engine is idle and the queue is dry
		}
		if wait := time.Until(deadline); wait > 0 {
			// Bound the timer wait so commits — and speculative
			// finalizations with their possible retractions — are observed
			// promptly mid-gather rather than at the next forming window, and
			// so the batch closes within one tick of the engine going idle.
			wait = min(wait, 100*time.Microsecond)
			if timer == nil {
				timer = time.NewTimer(wait)
			} else {
				timer.Reset(wait)
			}
			select {
			case sub, ok := <-s.in:
				if !ok {
					goto formed
				}
				s.subs = append(s.subs, sub)
				continue
			case <-timer.C:
				if time.Now().Before(deadline) {
					continue // bounded wait tick, not the batch deadline
				}
			}
		}
		break // time trigger fired (or no-wait mode and the queue is empty)
	}
formed:
	s.txns = s.txns[:0]
	for i := range s.subs {
		s.txns = append(s.txns, s.subs[i].t)
	}
	return s.subs
}

// resolveBatch reads each transaction's verdict at the batch commit point and
// resolves its future with the honest per-transaction latency.
func (s *Server) resolveBatch(batch []submission, seq uint64) {
	now := time.Now()
	for i := range batch {
		sub := &batch[i]
		lat := now.Sub(sub.enq)
		committed := !sub.t.Aborted()
		if committed {
			s.stats.Committed.Add(1)
		} else {
			s.stats.UserAborts.Add(1)
		}
		if !sub.fut.specSet.Load() {
			// Speculatively-acked futures already observed their
			// time-to-first-ack latency; everything else observes the final
			// commit-point latency here.
			s.stats.Latency.Observe(lat)
		}
		if sub.sess != nil {
			if committed {
				sub.sess.committed.Add(1)
			} else {
				sub.sess.aborted.Add(1)
			}
		}
		s.dedup.Observe(sub.t.ClientID, sub.t.ClientSeq, committed)
		sub.fut.resolve(Outcome{Committed: committed, Latency: lat, Batch: seq})
	}
}

// failBatch resolves every future of a batch with a terminal engine error.
// The batch never reached its commit point, so its client-identified entries
// leave the dedup window: a resubmission must execute, not replay.
func (s *Server) failBatch(batch []submission, err error) {
	for i := range batch {
		s.dedup.Forget(batch[i].t.ClientID, batch[i].t.ClientSeq)
		batch[i].fut.resolve(Outcome{Err: err})
	}
}

// Session is one logical client's handle on a Server: a submission ordering
// context with per-session accounting. Sessions must not be shared between
// goroutines if the client cares about its own submission order (the usual
// single-client contract); the underlying server is fully concurrent.
type Session struct {
	srv       *Server
	id        uint64
	submitted atomic.Uint64
	committed atomic.Uint64
	aborted   atomic.Uint64
	shed      atomic.Uint64
}

// Submit enqueues one transaction on the session's server; see Server.Submit.
func (s *Session) Submit(ctx context.Context, t *txn.Txn) (*Future, error) {
	return s.srv.submit(ctx, t, s)
}

// Exec is the closed-loop convenience: Submit then Wait. The outcome's Err
// (engine failure) is also returned as Exec's error.
func (s *Session) Exec(ctx context.Context, t *txn.Txn) (Outcome, error) {
	fut, err := s.Submit(ctx, t)
	if err != nil {
		return Outcome{}, err
	}
	out, err := fut.Wait(ctx)
	if err != nil {
		return Outcome{}, err
	}
	return out, out.Err
}

// SessionStats is a session's accumulated accounting.
type SessionStats struct {
	Submitted uint64 // accepted by the queue
	Committed uint64
	Aborted   uint64 // deterministic logic aborts
	Shed      uint64 // rejected with ErrOverloaded (never accepted)
}

// Stats returns the session's counters. Submitted can exceed
// Committed+Aborted while outcomes are still pending; Shed accounts for the
// submissions that never entered the queue at all, so
// Submitted+Shed covers every Submit call that did not fail for another
// reason.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Submitted: s.submitted.Load(),
		Committed: s.committed.Load(),
		Aborted:   s.aborted.Load(),
		Shed:      s.shed.Load(),
	}
}
