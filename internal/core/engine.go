package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exploratory-systems/qotp/internal/metrics"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
)

// Engine is the queue-oriented deterministic transaction engine. It is not
// safe for concurrent ExecBatch calls: batches are the unit of concurrency
// inside the engine (planner and executor goroutines), exactly as in the
// paper's two-phase design. With Config.Pipeline, the Submit driver overlaps
// the planning of one batch with the execution of the previous one —
// execution itself remains strictly one batch at a time.
type Engine struct {
	store *storage.Store
	cfg   Config
	stats metrics.Stats
	epoch uint64

	// pbs are the engine-owned PlannedBatch double buffer the planning phase
	// writes into; queue backing arrays are reused across batches. Plan
	// rotates through them (pbIdx), so a plan stays valid while the next
	// batch is being planned — the property the pipelined driver relies on.
	// External plans (e.g. reconstructed from shipped queues) flow through
	// ExecPlanned instead.
	pbs   [2]PlannedBatch
	pbIdx int

	// inflight reports that the pipelined driver has a batch executing whose
	// result is not yet collected; execDone is the engine-owned channel that
	// batch reports its result on. It is buffered, so the execution goroutine
	// never blocks, and Drain/TryDrain empty it before the next Submit, so
	// one channel serves every batch. inflight is touched only by the driver
	// goroutine (Submit/Drain/ExecBatch callers).
	inflight bool
	execDone chan error

	// planWG and execWG join the planner and executor goroutines of one
	// phase. They are fields, not locals, so no batch allocates one; the
	// phases get one each because a pipelined plan overlaps execution.
	planWG sync.WaitGroup
	execWG sync.WaitGroup

	// Cross-batch speculative state (Config.CrossBatch). specPending is the
	// drained-but-unfinalized predecessor batch: it had logic aborts, so its
	// verdict fixpoint was deferred to run jointly with the successor's
	// execution (or Finalize). It is written by the execution goroutine and
	// read by the next one; the driver's Drain between them sequences the
	// handoff. specGen is the executor log/arena generation the next batch
	// will use (flipped per batch, so a pending batch's before-images survive
	// its successor's execution); specDrained counts batches whose execution
	// phase completed — the speculative-verdict watermark SpecStatus exposes,
	// with Epoch() as the finalized watermark.
	specPending *pendingSpec
	specGen     int
	specDrained atomic.Uint64

	// specDrainCh is closed by the in-flight execSpec goroutine the moment
	// its execution phase completes — before any deferred fixpoint work that
	// runs on the same goroutine. WaitDrained blocks on it so a driver can
	// act on the drain watermark (publish speculative acks) without waiting
	// out a predecessor's joint repair. Driver-goroutine state, like
	// inflight.
	specDrainCh chan struct{}

	// planScratch holds per-planner results for the planning phase, reused
	// across batches (planning is serialized even when pipelined).
	planScratch []planResult

	execs []*executor

	// repairFlips collects speculative versions created by the repair pass
	// under read-committed isolation (single-threaded appends only).
	repairFlips []*storage.Record

	// Repair scratch, reused by every pass (repair runs on one goroutine):
	// the abort-set and taint marks by global position, the per-record scan
	// state of records abort-set members touched, and runTxnSerial's undo
	// log, before-image arena and fragment context.
	inA, tainted []bool
	recState     map[*storage.Record]uint8
	undo         []serialUndo
	undoArena    []byte
	serialCtx    txn.FragCtx

	// failure is the first fragment-execution error of the current batch
	// (workload bugs, missing records); reset at the start of every
	// execution. Planning reports its errors through planResult instead, so
	// an overlapped plan never races the executing batch on this slot.
	failure atomic.Value // error
}

// planResult is one planner goroutine's outcome.
type planResult struct {
	hasAbortable bool
	err          error
}

// pendingSpec is a batch that has drained with logic aborts under cross-batch
// speculation: its transactions carry provisional verdicts and its executors'
// generation-gen access logs hold the before-images needed to repair it.
type pendingSpec struct {
	txns  []*txn.Txn
	start time.Time
	gen   int
}

// New creates an engine over the given store.
func New(store *storage.Store, cfg Config) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	e := &Engine{store: store, cfg: cfg, execDone: make(chan error, 1), recState: make(map[*storage.Record]uint8)}
	nPart := store.Partitions()
	for b := range e.pbs {
		e.pbs[b].Ordered = make([][][]*txn.Fragment, cfg.Planners)
		e.pbs[b].RC = make([][][]*txn.Fragment, cfg.Planners)
		for p := 0; p < cfg.Planners; p++ {
			e.pbs[b].Ordered[p] = make([][]*txn.Fragment, nPart)
			e.pbs[b].RC[p] = make([][]*txn.Fragment, nPart)
		}
	}
	e.planScratch = make([]planResult, cfg.Planners)
	e.execs = make([]*executor, cfg.Executors)
	for i := range e.execs {
		e.execs[i] = newExecutor(e, i)
	}
	return e, nil
}

// Name implements the engine interface.
func (e *Engine) Name() string {
	if e.cfg.CrossBatch {
		return fmt.Sprintf("quecc+spec/%s/%s", e.cfg.Mechanism, e.cfg.Isolation)
	}
	if e.cfg.Pipeline {
		return fmt.Sprintf("quecc+pipe/%s/%s", e.cfg.Mechanism, e.cfg.Isolation)
	}
	return fmt.Sprintf("quecc/%s/%s", e.cfg.Mechanism, e.cfg.Isolation)
}

// Stats returns the engine's accumulated metrics.
func (e *Engine) Stats() *metrics.Stats { return &e.stats }

// Epoch returns the number of committed batches.
func (e *Engine) Epoch() uint64 { return atomic.LoadUint64(&e.epoch) }

// Close implements the engine interface: it drains any batch still executing
// from the pipelined driver and finalizes any pending speculative batch (the
// errors, if any, are lost — call Drain/Finalize first to observe them);
// beyond that the engine holds no background resources.
func (e *Engine) Close() { _ = e.Finalize() }

// Mechanism returns the configured execution mechanism.
func (e *Engine) Mechanism() Mechanism { return e.cfg.Mechanism }

// Isolation returns the configured isolation level.
func (e *Engine) Isolation() Isolation { return e.cfg.Isolation }

func (e *Engine) fail(err error) {
	e.failure.CompareAndSwap(nil, err) // keep the first failure
}

// ExecBatch plans, executes and commits one batch of transactions. On return
// every transaction in the batch is either committed or (deterministically)
// aborted by its own logic; Stats reflect the outcome. It is exactly
// Plan followed by ExecPlanned on the resulting PlannedBatch. Any batch still
// in flight from the pipelined driver is drained first, so ExecBatch and
// Submit may be mixed (from the same goroutine).
func (e *Engine) ExecBatch(txns []*txn.Txn) error {
	// Preserve ExecBatch's synchronous contract: wait out a batch in flight
	// and, under CrossBatch, flush any pending speculative batch first, then
	// finalize this one before returning.
	if err := e.Finalize(); err != nil {
		return err
	}
	if len(txns) == 0 {
		return nil
	}
	start := time.Now()
	pb, err := e.Plan(txns)
	if err != nil {
		return err
	}
	if !e.cfg.CrossBatch {
		return e.execPlanned(pb, start)
	}
	if err := e.execSpec(pb, start, nil); err != nil {
		return err
	}
	return e.Finalize()
}

// Submit is the pipelined driver API (requires Config.Pipeline): it plans the
// batch immediately — overlapping the execution of the previously submitted
// batch — then, once that batch has committed, launches this one's execution
// in the background and returns. Errors from the previous batch's execution
// surface here (or in Drain). Determinism is preserved because planning
// touches no storage and batches still execute and commit strictly in
// submission order. Call Drain after the last Submit; not safe for concurrent
// use (one driver goroutine, like ExecBatch).
func (e *Engine) Submit(txns []*txn.Txn) error {
	if !e.cfg.Pipeline {
		return fmt.Errorf("core: Submit requires Config.Pipeline")
	}
	start := time.Now()
	var pb *PlannedBatch
	var planErr error
	if len(txns) > 0 {
		pb, planErr = e.Plan(txns)
	}
	// The previous batch must commit before this one may execute (and before
	// its buffers — shared executor state, epoch — are touched).
	if err := e.Drain(); err != nil {
		return err
	}
	if planErr != nil || pb == nil {
		return planErr
	}
	e.inflight = true
	if e.cfg.CrossBatch {
		drained := make(chan struct{})
		e.specDrainCh = drained
		go func() { e.execDone <- e.execSpec(pb, start, drained) }()
	} else {
		go func() { e.execDone <- e.execPlanned(pb, start) }()
	}
	return nil
}

// WaitDrained blocks until the in-flight speculative batch's execution phase
// has completed — the drained watermark of SpecStatus — without waiting for
// the deferred fixpoint work (a pending predecessor's joint repair) that runs
// on the same goroutine afterwards. A no-op on an idle or non-speculating
// engine. Driver-goroutine-only; errors stay with Drain/Finalize.
func (e *Engine) WaitDrained() {
	if e.specDrainCh != nil {
		<-e.specDrainCh
		e.specDrainCh = nil
	}
}

// Pipelined reports whether the Submit/Drain driver is enabled.
func (e *Engine) Pipelined() bool { return e.cfg.Pipeline }

// Drain waits for the batch launched by the last Submit (if any) and returns
// its execution error. A no-op on an idle engine.
func (e *Engine) Drain() error {
	if !e.inflight {
		return nil
	}
	e.inflight = false
	return <-e.execDone
}

// TryDrain is the non-blocking Drain: done reports whether no submitted
// batch remains in flight (either none was, or one just completed and its
// error — if any — is returned). Driver-goroutine-only, like Drain. The
// serving layer polls it to resolve a committed batch's clients immediately
// instead of waiting for the next Submit.
func (e *Engine) TryDrain() (done bool, err error) {
	if !e.inflight {
		return true, nil
	}
	select {
	case err := <-e.execDone:
		e.inflight = false
		return true, err
	default:
		return false, nil
	}
}

// ---------------------------------------------------------------------------
// Cross-batch speculative driver (Config.CrossBatch)
// ---------------------------------------------------------------------------

// Speculating reports whether cross-batch speculative execution is enabled.
func (e *Engine) Speculating() bool { return e.cfg.CrossBatch }

// SpecStatus returns the two monotonic batch watermarks of the cross-batch
// speculative driver: drained counts batches whose execution phase has
// completed (their transactions carry speculative verdicts, readable but
// provisional), final counts batches whose verdict fixpoint has committed
// (== Epoch(); verdicts immutable, state equals serial execution). Their
// difference is the speculation window — at most one batch. drained is
// published with release semantics from the execution goroutine, so a driver
// that observes drained >= k may read batch k's verdicts.
func (e *Engine) SpecStatus() (drained, final uint64) {
	return e.specDrained.Load(), e.Epoch()
}

// Finalize forces the verdict fixpoint of a drained-but-unfinalized batch
// (Drain-ing first if one is still executing). The cross-batch driver
// normally piggybacks a pending batch's repair on its successor's drain;
// Finalize is for drivers with no successor to submit — an idle serving
// layer resolving retractions promptly, or shutdown. Driver-goroutine-only.
// Without Config.CrossBatch no batch is ever pending, so it is just Drain.
func (e *Engine) Finalize() error {
	if err := e.Drain(); err != nil {
		return err
	}
	p := e.specPending
	if p == nil {
		return nil
	}
	e.specPending = nil
	if err := e.repairCross(nil, 0, p.txns, p.gen); err != nil {
		return err
	}
	return e.finalizeBatch(p.txns, p.start)
}

// execSpec is execPlanned's cross-batch speculative counterpart: it runs the
// execution phase of one batch against the (possibly speculative) state left
// by its predecessor, then either finalizes immediately — no predecessor
// pending and no logic aborts of its own — or participates in the deferred
// verdict protocol: a pending predecessor is jointly repaired with this
// batch in one cross-batch fixpoint, and a batch that drains with aborts of
// its own becomes the new pending batch, its fixpoint deferred to the next
// execSpec or Finalize.
func (e *Engine) execSpec(pb *PlannedBatch, start time.Time, drained chan<- struct{}) error {
	// signalDrained wakes WaitDrained at the drain point; the deferred close
	// covers early error returns so a waiting driver can never hang.
	signalDrained := func() {
		if drained != nil {
			close(drained)
			drained = nil
		}
	}
	defer signalDrained()
	txns := pb.Txns
	if len(txns) == 0 {
		return nil
	}
	execStart := time.Now()

	prev := e.specPending
	gen := e.specGen
	e.specGen ^= 1
	// Track accesses whenever this batch could abort OR a pending
	// predecessor's repair could roll back state this batch read: both feed
	// the cross-batch cascade fixpoint. The generation parity guarantees
	// gen's previous contents belong to batch k-2, final since its successor
	// k-1 drained — this reset is the before-image watermark.
	anyAborted, err := e.drainQueues(pb, pb.HasAbortable || prev != nil, gen)
	if err != nil {
		return err
	}
	// Execution done: this batch's speculative verdicts are now readable.
	e.specDrained.Add(1)
	signalDrained()

	switch {
	case prev != nil:
		// Joint cross-batch fixpoint: the predecessor's deferred repair
		// cascades onto this batch's transactions that read rolled-back
		// state; this batch's own logic aborts join the same abort set. On
		// return both batches equal their serial-order state — finalize both.
		e.specPending = nil
		if err = e.repairCross(prev.txns, prev.gen, txns, gen); err == nil {
			if err = e.finalizeBatch(prev.txns, prev.start); err == nil {
				err = e.finalizeBatch(txns, start)
			}
		}
	case !anyAborted:
		// Fast path: clean drain over final state is already final.
		err = e.finalizeBatch(txns, start)
	default:
		// Defer this batch's verdict fixpoint: the successor executes
		// speculatively against its dirty state and repairs both at once.
		e.specPending = &pendingSpec{txns: txns, start: start, gen: gen}
	}
	e.stats.ExecNs.Add(uint64(time.Since(execStart).Nanoseconds()))
	return err
}

// drainQueues is the execution phase: every executor drains its partitions'
// queues of the planned batch, logging accesses into generation gen when
// trackSpec is set. It reports whether any transaction's logic aborted, or
// the first fragment-execution error.
func (e *Engine) drainQueues(pb *PlannedBatch, trackSpec bool, gen int) (anyAborted bool, err error) {
	e.failure = atomic.Value{}
	for _, ex := range e.execs {
		e.execWG.Add(1)
		go func() {
			defer e.execWG.Done()
			ex.run(pb, trackSpec, gen)
		}()
	}
	e.execWG.Wait()
	if err, _ := e.failure.Load().(error); err != nil {
		return false, err
	}
	for _, t := range pb.Txns {
		if t.Aborted() {
			return true, nil
		}
	}
	return false, nil
}

// finalizeBatch is the commit point of one batch whose state is final: log
// it, install the read-committed speculative versions (none under cross-batch
// mode, which is serializable-only), advance the epoch and record the outcome
// counters.
func (e *Engine) finalizeBatch(txns []*txn.Txn, start time.Time) error {
	logicAborted := 0
	for _, t := range txns {
		if t.Aborted() {
			logicAborted++
		}
	}
	if e.cfg.Logger != nil {
		if err := e.cfg.Logger.LogBatch(e.epoch, txns); err != nil {
			return fmt.Errorf("core: command log: %w", err)
		}
	}
	if e.cfg.Isolation == ReadCommitted {
		e.flipSpeculativeVersions()
	}
	atomic.AddUint64(&e.epoch, 1)
	committed := len(txns) - logicAborted
	e.stats.Committed.Add(uint64(committed))
	e.stats.UserAborts.Add(uint64(logicAborted))
	e.stats.Latency.ObserveN(time.Since(start), committed)
	return nil
}

// execPlanned runs execution, repair and commit over a planned batch.
// Latency is observed from start (ExecBatch passes the pre-planning instant
// so per-transaction commit latency includes the planning phase).
func (e *Engine) execPlanned(pb *PlannedBatch, start time.Time) error {
	if len(pb.Txns) == 0 {
		return nil
	}
	execStart := time.Now()
	trackSpec := e.cfg.Mechanism == Speculative && pb.HasAbortable
	anyAborted, err := e.drainQueues(pb, trackSpec, 0)
	if err != nil {
		return err
	}
	// Deterministic abort repair, then commit.
	if anyAborted && trackSpec {
		if err := e.repair(pb.Txns); err != nil {
			return err
		}
	}
	err = e.finalizeBatch(pb.Txns, start)
	e.stats.ExecNs.Add(uint64(time.Since(execStart).Nanoseconds()))
	return err
}

// plan runs the planning phase into pb: planner p owns the contiguous slice p
// of the batch (slices are contiguous in batch order, so draining planner
// queues in planner order preserves the global priority order). Sets
// pb.HasAbortable and returns the first planner error, if any. Planning
// reports errors through planScratch — never through e.failure — so an
// overlapped plan (pipelined driver) cannot race the executing batch.
func (e *Engine) plan(pb *PlannedBatch, txns []*txn.Txn) error {
	nPlan := e.cfg.Planners
	// Reset queue lengths, keep capacity.
	for p := 0; p < nPlan; p++ {
		for part := range pb.Ordered[p] {
			pb.Ordered[p][part] = pb.Ordered[p][part][:0]
			pb.RC[p][part] = pb.RC[p][part][:0]
		}
	}
	chunk := (len(txns) + nPlan - 1) / nPlan
	for p := range e.planScratch {
		e.planScratch[p] = planResult{}
	}
	for p := 0; p < nPlan; p++ {
		lo := p * chunk
		if lo >= len(txns) {
			break
		}
		hi := min(lo+chunk, len(txns))
		e.planWG.Add(1)
		go func() {
			defer e.planWG.Done()
			e.planScratch[p] = e.planSlice(pb, p, txns[lo:hi], uint32(lo))
		}()
	}
	e.planWG.Wait()
	pb.HasAbortable = false
	for p := range e.planScratch {
		if e.planScratch[p].err != nil {
			return e.planScratch[p].err
		}
		if e.planScratch[p].hasAbortable {
			pb.HasAbortable = true
		}
	}
	return nil
}

// planSlice plans one planner's contiguous share of the batch.
func (e *Engine) planSlice(pb *PlannedBatch, planner int, txns []*txn.Txn, base uint32) (res planResult) {
	ordered := pb.Ordered[planner]
	rc := pb.RC[planner]
	rcMode := e.cfg.Isolation == ReadCommitted
	conservative := e.cfg.Mechanism == Conservative
	for i, t := range txns {
		t.BatchPos = base + uint32(i)
		if t.HasAbortable() {
			res.hasAbortable = true
			if conservative {
				if err := checkConservativeOrder(t); err != nil {
					res.err = err
					return res
				}
			}
		}
		for fi := range t.Frags {
			f := &t.Frags[fi]
			part := e.store.PartitionOf(f.Key)
			// Pure reads (no abort, no data-dependency consumers relying on
			// ordering) are eligible for the unordered read-committed
			// queues; everything else carries conflict dependencies and
			// must flow through the ordered queues.
			if rcMode && f.Access == txn.Read && !f.Abortable && len(f.NeedVars) == 0 {
				rc[part] = append(rc[part], f)
				continue
			}
			ordered[part] = append(ordered[part], f)
		}
	}
	return res
}

// checkConservativeOrder verifies the structural requirement of conservative
// execution: every abortable fragment must precede every writing fragment in
// sequence order, otherwise an executor could wait on an abortable check that
// sits behind the waiter in its own queues.
func checkConservativeOrder(t *txn.Txn) error {
	lastAbortable := -1
	firstWrite := len(t.Frags)
	for i := range t.Frags {
		if t.Frags[i].Abortable && i > lastAbortable {
			lastAbortable = i
		}
		if t.Frags[i].Access.IsWrite() && i < firstWrite {
			firstWrite = i
		}
	}
	if lastAbortable > firstWrite {
		return fmt.Errorf("core: txn %d: conservative execution requires abortable fragments (last at %d) to precede writes (first at %d)",
			t.ID, lastAbortable, firstWrite)
	}
	return nil
}

// flipSpeculativeVersions installs the speculative versions written under
// read-committed isolation into the committed slots. Each executor flips the
// records of its own partitions, in parallel.
func (e *Engine) flipSpeculativeVersions() {
	// A commit point never overlaps an execution phase, so the flips reuse
	// its WaitGroup.
	for _, ex := range e.execs {
		if len(ex.flips) == 0 {
			continue
		}
		e.execWG.Add(1)
		go func() {
			defer e.execWG.Done()
			for _, r := range ex.flips {
				if r.HasSpec && r.SpecEpoch == e.epoch {
					copy(r.Val, r.Spec)
					r.HasSpec = false
				}
			}
			ex.flips = ex.flips[:0]
		}()
	}
	e.execWG.Wait()
	for _, r := range e.repairFlips {
		if r.HasSpec && r.SpecEpoch == e.epoch {
			copy(r.Val, r.Spec)
			r.HasSpec = false
		}
	}
	e.repairFlips = e.repairFlips[:0]
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

// accessEntry records one record access for speculative dependency tracking
// and rollback. Entries for a given record appear in execution (= priority)
// order because a record is only ever touched by its owning executor.
type accessEntry struct {
	rec      *storage.Record
	t        *txn.Txn
	frag     *txn.Fragment
	write    bool
	inserted bool   // write created the record (rollback removes it)
	hadSpec  bool   // RC mode: record had a speculative version before this write
	before   []byte // before-image of the written buffer (arena-backed)
}

// executor drains the queues of its owned partitions in priority order.
type executor struct {
	eng   *Engine
	id    int
	parts []int // owned partitions

	// cursors: one per (owned partition, planner) ordered queue.
	heads []queueCursor

	// logs/arenas are the speculative access logs and their before-image
	// arenas, one generation per live batch. Single-batch execution always
	// uses generation 0; the cross-batch speculative driver alternates
	// generations so a pending batch's before-images survive its successor's
	// execution (the generation is reset only once the batch two steps back
	// is final — the before-image watermark).
	logs   [2][]accessEntry
	arenas [2][]byte
	gen    int // generation the current run appends to
	flips  []*storage.Record

	ctx txn.FragCtx // reusable fragment context
}

type queueCursor struct {
	frags []*txn.Fragment
	pos   int
}

func newExecutor(e *Engine, id int) *executor {
	ex := &executor{eng: e, id: id}
	for p := 0; p < e.store.Partitions(); p++ {
		if p%e.cfg.Executors == id {
			ex.parts = append(ex.parts, p)
		}
	}
	return ex
}

// run drains the executor's share of a planned batch's queues, logging
// accesses into generation gen (always 0 outside cross-batch mode). The
// plan's planner dimension may differ from the engine's configured planner
// count (externally reconstructed plans often have a single merged queue per
// partition), so iteration is driven by the plan's own shape.
func (ex *executor) run(pb *PlannedBatch, trackSpec bool, gen int) {
	e := ex.eng
	// Read-committed read queues first: they see the pre-batch committed
	// state, which is a valid read-committed snapshot, and they need no
	// ordering or waiting at all — this is the isolation-level win the
	// paper describes.
	if e.cfg.Isolation == ReadCommitted {
		for _, part := range ex.parts {
			for p := range pb.RC {
				for _, f := range pb.RC[p][part] {
					if err := ex.runRCRead(f); err != nil {
						e.fail(err)
						return
					}
				}
			}
		}
	}

	// Ordered queues: k-way merge by priority across owned partitions and
	// planners. Merging across the executor's own partitions (not just
	// FIFO per queue) guarantees that an intra-transaction dependency can
	// never point forward within a single executor's processing order,
	// which makes the cross-executor waits below deadlock-free.
	ex.heads = ex.heads[:0]
	for _, part := range ex.parts {
		for p := range pb.Ordered {
			if q := pb.Ordered[p][part]; len(q) > 0 {
				ex.heads = append(ex.heads, queueCursor{frags: q})
			}
		}
	}
	ex.gen = gen
	ex.logs[gen] = ex.logs[gen][:0]
	ex.arenas[gen] = ex.arenas[gen][:0]
	for {
		best := -1
		var bestPrio uint64 = ^uint64(0)
		for i := range ex.heads {
			h := &ex.heads[i]
			if h.pos < len(h.frags) {
				if pr := h.frags[h.pos].Priority(); pr < bestPrio {
					bestPrio, best = pr, i
				}
			}
		}
		if best < 0 {
			return
		}
		f := ex.heads[best].frags[ex.heads[best].pos]
		ex.heads[best].pos++
		if err := ex.runFragment(f, trackSpec); err != nil {
			e.fail(err)
			return
		}
	}
}

// runRCRead executes an unordered read-committed read fragment against the
// committed version of its record.
func (ex *executor) runRCRead(f *txn.Fragment) error {
	rec := ex.eng.store.Table(f.Table).Get(f.Key)
	if rec == nil {
		return fmt.Errorf("core: executor %d: read of missing record table=%d key=%d", ex.id, f.Table, f.Key)
	}
	ex.ctx = txn.FragCtx{T: f.Txn, F: f, Val: rec.Val}
	if err := f.Logic(&ex.ctx); err != nil {
		return fmt.Errorf("core: rc read fragment failed: %w", err)
	}
	return nil
}

// runFragment executes one ordered fragment, resolving the paper's
// dependencies as described in the package comment.
func (ex *executor) runFragment(f *txn.Fragment, trackSpec bool) error {
	e := ex.eng
	t := f.Txn

	// A transaction aborted by logic skips its remaining fragments. The
	// abortable counter is still resolved so waiters observe progress.
	if t.Aborted() {
		if f.Abortable {
			t.ResolveAbortable()
		}
		return nil
	}

	// Data dependencies (Table 1): wait for required variable slots. The
	// publisher is a fragment of the same transaction with a smaller
	// sequence number, hence strictly lower priority: the wait graph is a
	// DAG over priorities and some executor can always progress.
	for _, v := range f.NeedVars {
		for !t.VarReady(v) {
			if t.Aborted() {
				if f.Abortable {
					t.ResolveAbortable()
				}
				return nil
			}
			runtime.Gosched()
		}
	}

	// Commit dependencies (Table 1): conservative execution holds back
	// database updates until every abortable fragment of the transaction
	// has resolved without aborting.
	if e.cfg.Mechanism == Conservative && f.Access.IsWrite() && t.HasAbortable() {
		for t.AbortablesPending() > 0 {
			if t.Aborted() {
				return nil
			}
			runtime.Gosched()
		}
		if t.Aborted() {
			return nil
		}
	}

	table := e.store.Table(f.Table)
	var rec *storage.Record
	inserted := false
	if f.Access == txn.Insert {
		rec, inserted = table.Insert(f.Key, nil)
	} else {
		rec = table.Get(f.Key)
	}
	if rec == nil {
		return fmt.Errorf("core: executor %d: missing record table=%d key=%d (txn %d frag %d)", ex.id, f.Table, f.Key, t.ID, f.Seq)
	}

	rcMode := e.cfg.Isolation == ReadCommitted
	// Choose the buffer the fragment logic sees.
	buf := rec.Val
	hadSpec := false
	if rcMode && f.Access != txn.Insert {
		if f.Access.IsWrite() {
			// Copy-on-write into the speculative slot (paper §3.2:
			// read-committed keeps a committed and a speculative version).
			if rec.SpecEpoch != e.epoch || !rec.HasSpec {
				if cap(rec.Spec) < len(rec.Val) {
					rec.Spec = make([]byte, len(rec.Val))
				}
				rec.Spec = rec.Spec[:len(rec.Val)]
				copy(rec.Spec, rec.Val)
				rec.HasSpec = true
				rec.SpecEpoch = e.epoch
				ex.flips = append(ex.flips, rec)
			} else {
				hadSpec = true
			}
			buf = rec.Spec
		} else if rec.HasSpec && rec.SpecEpoch == e.epoch {
			// Ordered reads (data-dependency publishers, abortable checks)
			// must observe in-batch writes to preserve serial-order
			// semantics for the transactions that need them.
			buf = rec.Spec
		}
	}

	// Speculation dependencies (Table 1): under speculative execution with
	// abortable fragments in flight, log every access (with before-images
	// of writes) to feed the deterministic cascading-abort repair pass.
	if trackSpec {
		if f.Access.IsWrite() {
			var before []byte
			if !inserted {
				arena := ex.arenas[ex.gen]
				off := len(arena)
				arena = append(arena, buf...)
				ex.arenas[ex.gen] = arena
				before = arena[off : off+len(buf) : off+len(buf)]
			}
			ex.logs[ex.gen] = append(ex.logs[ex.gen], accessEntry{
				rec: rec, t: t, frag: f, write: true,
				inserted: inserted, hadSpec: hadSpec, before: before,
			})
		} else {
			ex.logs[ex.gen] = append(ex.logs[ex.gen], accessEntry{rec: rec, t: t, frag: f})
		}
	}

	ex.ctx = txn.FragCtx{T: t, F: f, Val: buf}
	err := f.Logic(&ex.ctx)
	if f.Abortable {
		if err == txn.ErrAbort {
			t.MarkAborted()
			err = nil
		}
		t.ResolveAbortable()
	} else if err == txn.ErrAbort {
		return fmt.Errorf("core: txn %d frag %d returned ErrAbort but is not marked abortable", t.ID, f.Seq)
	}
	if err != nil {
		return fmt.Errorf("core: txn %d frag %d logic: %w", t.ID, f.Seq, err)
	}
	return nil
}
