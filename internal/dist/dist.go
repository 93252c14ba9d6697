// Package dist implements the distributed engines the paper's §2.2 argument
// is about: the queue-oriented engine ships planned queues and pays a constant
// number of batch-level message rounds, Calvin-style determinism broadcasts
// batches, and H-Store-style partitioned execution pays two-phase-commit
// rounds per multi-partition transaction. All three run over the
// cluster.Transport abstraction (in-process channels for the benchmark suite,
// TCP for cmd/qotpd), with one storage.Store per node; partition ownership is
// cluster.PartitionOwner's round-robin placement.
//
// Protocol phases by message type:
//
//	MsgQueues      QueCC-D: leader ships a node's planned per-partition
//	               queues (a shadow-transaction batch, txn.AppendShadowBatch)
//	               with forwarded-variable routes attached (core.NodePlans).
//	MsgBatch       Calvin-D: leader broadcasts the full batch; every node
//	               derives its local fragments, forwarding routes and lock
//	               schedule itself.
//	MsgVars        forwarding round: a node ships the data-dependency values
//	               it published for consumers on other nodes — (batch
//	               position, slot, value) triples, or slot tombstones when
//	               the publishing fragment aborted. At most one message per
//	               (publisher, consumer) node pair per execution round,
//	               regardless of how many transactions depend across nodes.
//	MsgBatchDone   round-0 completion report: a node finished draining its
//	               queues; Vals carries the positions whose abortable checks
//	               failed locally.
//	MsgTaintSet    abort-repair round broadcast: the leader's current global
//	               abort-verdict set; nodes roll back and re-execute under it.
//	MsgTaintReport repair round completion: the node's recomputed local
//	               verdict proposals for the next round.
//	MsgBatchCommit batch commit broadcast after the verdict fixpoint.
//	MsgTxnExec     H-Store-D: coordinator asks a participant to execute a
//	               transaction's local fragments and prepare (2PC round 1);
//	               the payload piggybacks coordinator-resolved variable seeds
//	               for cross-participant data dependencies.
//	MsgVote        participant's 2PC vote (or single-home completion).
//	MsgDecision    coordinator's 2PC decision (2PC round 2).
//	MsgAck         participant's decision ack, and commit acks.
//
// # Cross-node data dependencies
//
// A transaction may consume variable slots (Fragment.NeedVars) published by
// fragments planned onto a different node. The planners tag every shadow
// transaction with forwarding routes (txn.VarRoute: slot -> destination node
// set), and each execution round adds one deterministic forwarding exchange
// between local publisher execution and dependent-fragment execution: a node
// first runs its route-tagged publisher fragments (the "hoisted" pre-queue
// pass), ships their values in MsgVars, and only then drains its queues.
// Consumers block per-fragment on the transaction's publish-once variable
// cells, which are filled either by local publishers in queue order or by the
// node's message loop as MsgVars arrive, so the round count stays
// batch-constant: queues out, vars exchanged, taint fixpoint, commit — never
// a per-transaction exchange.
//
// Hoisting a publisher out of queue order is only sound when its read cannot
// observe in-batch writes, so cross-node-consumed slots must be published by
// read-only fragments of records no fragment in the batch writes
// (checkForwarding enforces this; TPC-C's remote-warehouse item reads are the
// canonical shape). A publisher that aborts instead of publishing — e.g. the
// 1% invalid NewOrder item — forwards a tombstone (txn.VarUpdate.Dead):
// waiting consumers skip their fragment instead of deadlocking, and the abort
// itself reaches every node through the ordinary taint rounds.
//
// # Deterministic abort repair
//
// Abort handling is the distributed form of the core engine's deterministic
// repair. Every round executes the batch under an abort-verdict assumption
// (round 0 assumes nothing aborts), applying writes only for
// assumed-committed transactions while re-evaluating every abortable check
// against the state the round produces; the checks that fail become the next
// round's assumption. Because fragments execute in global priority order
// within every partition, a transaction's recomputed verdict depends only on
// the verdicts of transactions before it in batch order, so the iteration
// reaches the unique fixpoint — the serial-order outcome — in at most
// chain-depth rounds (typically one or two), and each round costs one
// batch-level message exchange (plus its forwarding exchange) regardless of
// batch size.
package dist

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/metrics"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload"
)

// Option toggles optional engine behaviors.
type Option uint8

// ArgAbortEval enables full abort-verdict fixpoint rounds in Calvin-D
// (repeated taint exchanges until the global abort set stabilizes). Without
// it Calvin-D performs a single reconnaissance-style repair round, which is
// exact only when abort predicates do not read state written earlier in the
// same batch.
const ArgAbortEval Option = 1

// ArgPipeline enables the leader-side Submit/Drain pipelined driver on the
// deterministic engines (QueCC-D, Calvin-D): Submit validates, plans and
// wire-encodes its batch immediately — overlapping the cluster's execution
// and verdict repair of the previously submitted batch — and ships it only
// once that batch has committed. The follower protocol, message rounds and
// commit order are exactly those of the serial driver (pinned by
// TestPipelinedMessageRoundsUnchanged); only the leader's plan/encode time
// is hidden under the cluster's execution and message latency.
const ArgPipeline Option = 2

// ArgSpeculative enables the speculative deferred-ack leader on QueCC-D
// (implies ArgPipeline): after broadcasting a batch's commit the leader ships
// the next batch immediately instead of first collecting the commit acks,
// overlapping the cluster's ack round with the successor's shipment and
// execution — the distributed counterpart of the centralized engine's
// cross-batch speculation. The deferred acks are gathered lazily, at the
// start of the next batch's verdict rounds (or at Drain), with non-ack
// traffic that arrives in the meantime set aside in the leader's reorder
// buffer. Every message of the serial protocol is still sent, to the same
// destinations, in the same per-pair order — only the leader's collection
// point moves — so the per-batch message count is bit-identical to
// quecc-d's (pinned by TestSpeculativeMessageRoundsUnchanged).
const ArgSpeculative Option = 3

// shutdownFlag marks the leader's shutdown notice to follower loops.
const shutdownFlag = ^uint64(0)

// flagErr marks a follower report that carries an error string payload.
const flagErr uint64 = 1 << 62

// insertRef identifies a record created during the current batch so rollback
// and aborts can remove it.
type insertRef struct {
	table storage.TableID
	key   storage.Key
}

// imgRef locates one record's before-image inside its partition log's byte
// slab. Pointer-free map values plus clear() (which keeps bucket capacity)
// make the steady-state log maintenance allocation-free.
type imgRef struct {
	off, n uint32
}

// partLog is one partition's rollback log: pre-batch before-images of every
// record written this batch plus the records created this batch. Images live
// in one reusable byte slab (reset per batch) addressed by offset — the slab
// may reallocate while growing, so sub-slices are never stored. Sharding the
// log by partition keeps the queue-oriented hot path lock-free in practice —
// a QueCC-D worker owns its partitions exclusively, so its log mutexes are
// uncontended; only Calvin-D's lock-scheduled workers can ever meet on one
// (two transactions of the same partition on different workers).
type partLog struct {
	mu      sync.Mutex
	images  map[*storage.Record]imgRef
	slab    []byte
	inserts []insertRef
}

// logImage captures rec's before-image if this is its first write of the
// batch. Must be called with lg.mu held.
func (lg *partLog) logImage(rec *storage.Record) {
	if _, logged := lg.images[rec]; logged {
		return
	}
	off := uint32(len(lg.slab))
	lg.slab = append(lg.slab, rec.Val...)
	lg.images[rec] = imgRef{off: off, n: uint32(len(rec.Val))}
}

// varsKey addresses forwarded-variable traffic: one execution round of one
// batch. MsgVars can arrive before the round's trigger message (queue
// shipment, batch broadcast or taint set) because peer-to-peer channels are
// independent of the leader's channel; early messages are decoded on receipt
// (copy-on-apply: the pooled payload is recycled immediately, never parked
// across a round) and the updates buffered under their key until the round
// starts.
type varsKey struct {
	batch uint64
	round uint64
}

// node is one cluster member's runtime state: its full-schema store (of which
// it owns every partition p with PartitionOwner(p) == id), the opcode
// registry for resolving shipped fragments, and the current batch's shadow
// transactions, queues, forwarding state and rollback logs.
type node struct {
	id      int
	nNodes  int
	workers int
	tr      cluster.Transport
	store   *storage.Store
	reg     txn.Registry
	// stopped is the group-wide teardown flag; executor spins poll it so a
	// round abandoned mid-batch (error or Close) cannot wedge a goroutine on
	// a variable that will never arrive.
	stopped *atomic.Bool

	batchN  int
	shadows []*txn.Txn
	queues  [][]*txn.Fragment // [partition], ascending priority
	logs    []partLog         // [partition]

	// Forwarding state. byPos resolves MsgVars entries to shadows; hoisted
	// holds the route-tagged publisher fragments executed in the pre-queue
	// pass; curBatch/curRound identify the active round; pendingVars buffers
	// early MsgVars, already decoded (copy-on-apply); execWG tracks the
	// in-flight round goroutine.
	byPos       map[uint32]*txn.Txn
	hoisted     []*txn.Fragment
	curBatch    uint64
	curRound    uint64
	pendingVars map[varsKey][]txn.VarUpdate
	execWG      sync.WaitGroup

	// decodeArenas back the node's batch-lifetime decode allocations (shadow
	// transactions from MsgQueues/MsgBatch, MsgVars scratch): two rotating
	// arenas, one reset per beginBatchArena call at the next batch's
	// installation. One arena would suffice under the shipping protocol —
	// batch b's shipment only leaves the leader after batch b-1's commit acks
	// are in, so a node never decodes b while b-1 is live — but the rotation
	// mirrors the generator-side double-buffer discipline and keeps a whole
	// batch of slack between a shadow's last use and its slab's reuse.
	decodeArenas [2]txn.Arena
	decodeIdx    int
	curArena     *txn.Arena

	// calvin is the Calvin-D lock scheduler's per-node reusable scratch
	// (rounds run one at a time per node, so one scratch suffices — the
	// FragCtx-reuse discipline of the queue runners applied to the lock
	// analysis).
	calvin calvinScratch
}

func newNode(id int, tr cluster.Transport, gen workload.Generator, partitions, workers int, stopped *atomic.Bool) (*node, error) {
	store, err := storage.Open(gen.StoreConfig(partitions))
	if err != nil {
		return nil, err
	}
	if err := gen.Load(store); err != nil {
		return nil, fmt.Errorf("dist: node %d load: %w", id, err)
	}
	if workers <= 0 {
		workers = 1
	}
	n := &node{
		id: id, nNodes: tr.Nodes(), workers: workers, tr: tr,
		store: store, reg: gen.Registry(), stopped: stopped,
		logs:        make([]partLog, partitions),
		byPos:       make(map[uint32]*txn.Txn),
		curBatch:    ^uint64(0),
		pendingVars: make(map[varsKey][]txn.VarUpdate),
	}
	for p := range n.logs {
		n.logs[p].images = make(map[*storage.Record]imgRef)
	}
	return n, nil
}

func (n *node) ownsPart(part int) bool { return cluster.PartitionOwner(part, n.nNodes) == n.id }

// beginBatchArena rotates the node's decode arenas at a batch boundary:
// the returned arena is Reset and becomes the batch's decode allocator
// (shadow transactions, MsgVars scratch — see node.decodeArenas for why the
// reset cannot free live shadows). Callers must invoke it before decoding a
// batch's shipment, on the goroutine that owns the node's protocol state.
func (n *node) beginBatchArena() *txn.Arena {
	a := &n.decodeArenas[n.decodeIdx]
	n.decodeIdx ^= 1
	a.Reset()
	n.curArena = a
	return a
}

// install accepts a batch's local shadow transactions and rebuilds the
// per-partition execution queues. Walking shadows in batch order and
// fragments in sequence order yields ascending priority per partition —
// exactly the order the leader's planner established. Fragments publishing
// slots with forwarding routes are marked Hoisted and collected for the
// pre-queue publisher pass.
func (n *node) install(shadows []*txn.Txn, batchN int) {
	n.shadows = shadows
	n.batchN = batchN
	if n.queues == nil {
		n.queues = make([][]*txn.Fragment, n.store.Partitions())
	}
	for p := range n.queues {
		n.queues[p] = n.queues[p][:0]
	}
	clear(n.byPos)
	n.hoisted = n.hoisted[:0]
	for _, t := range shadows {
		n.byPos[t.BatchPos] = t
		for i := range t.Frags {
			f := &t.Frags[i]
			part := n.store.PartitionOf(f.Key)
			n.queues[part] = append(n.queues[part], f)
			if fragRouted(t, f) {
				f.Hoisted = true
				n.hoisted = append(n.hoisted, f)
			}
		}
	}
	n.clearLogs()
}

// fragRouted reports whether the fragment publishes a slot with a forwarding
// route (a remote consumer).
func fragRouted(t *txn.Txn, f *txn.Fragment) bool {
	if len(t.FwdVars) == 0 || len(f.PubVars) == 0 {
		return false
	}
	for _, v := range f.PubVars {
		for _, r := range t.FwdVars {
			if r.Slot == v && r.Dest != 0 {
				return true
			}
		}
	}
	return false
}

// fwdDest returns the destination node set of a published slot (0 if the
// slot has no remote consumers).
func fwdDest(t *txn.Txn, slot uint8) uint64 {
	for _, r := range t.FwdVars {
		if r.Slot == slot {
			return r.Dest
		}
	}
	return 0
}

// startRound begins one execution round: it stamps the round identity,
// resets the shadows' runtime state (variable cells, abort flags) and applies
// any forwarded variables that arrived (and were decoded) before the round's
// trigger message. The caller must have completed the previous round (execWG
// drained) and — for repair rounds — rolled the partitions back first.
func (n *node) startRound(batch, round uint64) error {
	n.curBatch, n.curRound = batch, round
	for _, t := range n.shadows {
		t.Reset()
	}
	key := varsKey{batch, round}
	if pending, ok := n.pendingVars[key]; ok {
		delete(n.pendingVars, key)
		return n.applyUpdates(pending)
	}
	return nil
}

// deliverVars routes an incoming MsgVars to the current round's shadows, or —
// when the round it belongs to has not started here yet — decodes it
// immediately and buffers the updates (copy-on-apply). Either way the pooled
// payload is recycled on receipt, so MsgVars buffers never outlive the
// message loop iteration that received them: round and batch boundaries are
// safe payload-reuse points for every sender.
func (n *node) deliverVars(m cluster.Msg) error {
	if m.Batch == n.curBatch && m.Flag == n.curRound {
		return n.applyVars(m)
	}
	// Heap decode, not curArena: the buffered updates may belong to a future
	// batch and must survive the arena rotation at its installation.
	ups, err := txn.DecodeVarUpdates(m.Payload)
	if err != nil {
		return err
	}
	cluster.PutPayload(m.Payload)
	key := varsKey{m.Batch, m.Flag}
	n.pendingVars[key] = append(n.pendingVars[key], ups...)
	return nil
}

// applyVars decodes one on-time MsgVars (into the batch's decode arena — the
// updates are round-scoped scratch) and applies it. It is the single consumer
// of the payload and recycles the buffer into the cluster payload pool.
func (n *node) applyVars(m cluster.Msg) error {
	ups, err := txn.DecodeVarUpdatesArena(m.Payload, n.curArena)
	if err != nil {
		return err
	}
	cluster.PutPayload(m.Payload)
	return n.applyUpdates(ups)
}

// applyUpdates publishes (or tombstones) forwarded slots into the local
// shadows' variable cells, releasing any executor spinning on them.
func (n *node) applyUpdates(ups []txn.VarUpdate) error {
	for _, u := range ups {
		t := n.byPos[u.Pos]
		if t == nil {
			return fmt.Errorf("dist: node %d: forwarded variable for unknown batch position %d", n.id, u.Pos)
		}
		if u.Dead {
			t.KillVar(u.Slot)
		} else {
			t.Publish(u.Slot, u.Val)
		}
	}
	return nil
}

// hoistAndFlush is the forwarding half-round run before queue execution:
// every route-tagged publisher fragment executes against its (batch-constant,
// checkForwarding-verified) record, then each peer with at least one
// dependent fragment receives one MsgVars carrying the values — or slot
// tombstones for publishers whose abortable check failed. Returns the abort
// positions proposed by hoisted checks.
func (n *node) hoistAndFlush(aborted []bool) ([]uint32, error) {
	if len(n.hoisted) == 0 {
		return nil, nil
	}
	var props []uint32
	var ctx txn.FragCtx // reused across fragments: an escaping per-call ctx would cost one heap object per publisher
	out := make([][]txn.VarUpdate, n.nNodes)
	for _, f := range n.hoisted {
		t := f.Txn
		dead := aborted[t.BatchPos]
		if dead && !f.Abortable {
			continue // skipped publisher of an aborted transaction: no consumers left
		}
		rec := n.store.Table(f.Table).Get(f.Key)
		if rec == nil {
			return nil, fmt.Errorf("dist: node %d: missing record table=%d key=%d (txn %d frag %d)", n.id, f.Table, f.Key, t.ID, f.Seq)
		}
		ctx = txn.FragCtx{T: t, F: f, Val: rec.Val}
		err := f.Logic(&ctx)
		failed := false
		if f.Abortable && err == txn.ErrAbort {
			props = append(props, t.BatchPos)
			failed = true
			err = nil
		}
		if err != nil {
			return nil, fmt.Errorf("dist: txn %d frag %d logic: %w", t.ID, f.Seq, err)
		}
		if dead {
			continue // verdict re-evaluation only; nothing is forwarded
		}
		for _, v := range f.PubVars {
			if failed {
				t.KillVar(v)
			}
			dest := fwdDest(t, v)
			if dest == 0 {
				continue
			}
			u := txn.VarUpdate{Pos: t.BatchPos, Slot: v, Dead: failed}
			if !failed {
				u.Val = t.Var(v)
			}
			for d := 0; d < n.nNodes; d++ {
				if d != n.id && dest&(1<<uint(d)) != 0 {
					out[d] = append(out[d], u)
				}
			}
		}
	}
	for d, ups := range out {
		if len(ups) == 0 {
			continue
		}
		// MsgVars payloads are pool-recycled: built on a pooled buffer here,
		// returned by the receiver as soon as it decodes — immediately on
		// receipt, whether the round has started there or not (deliverVars
		// copy-on-apply buffering). No payload survives a message-loop
		// iteration at the receiver, so the pool turns over within the round.
		if err := n.tr.Send(cluster.Msg{
			Type: cluster.MsgVars, From: n.id, To: d,
			Batch: n.curBatch, Flag: n.curRound,
			Payload: txn.AppendVarUpdates(cluster.GetPayload(), ups),
		}); err != nil {
			return nil, err
		}
	}
	return props, nil
}

func (n *node) clearLogs() {
	for p := range n.logs {
		clear(n.logs[p].images)
		n.logs[p].slab = n.logs[p].slab[:0]
		n.logs[p].inserts = n.logs[p].inserts[:0]
	}
}

// runRound executes one verdict round: the hoisted-publisher forwarding pass
// first, then the node's queues under the given abort-verdict assumption.
// Returns the batch positions whose abortable checks failed this round.
// Owned partitions are spread across the node's workers; each worker drains
// its partitions in a k-way priority merge, so every record's access sequence
// follows global priority order. The caller must have called startRound.
func (n *node) runRound(aborted []bool) ([]uint32, error) {
	hoistProps, err := n.hoistAndFlush(aborted)
	if err != nil {
		return nil, err
	}
	var owned []int
	for p := 0; p < n.store.Partitions(); p++ {
		if n.ownsPart(p) && len(n.queues[p]) > 0 {
			owned = append(owned, p)
		}
	}
	workers := n.workers
	if workers > len(owned) && len(owned) > 0 {
		workers = len(owned)
	}
	if len(owned) == 0 {
		return hoistProps, nil
	}

	proposals := make([][]uint32, workers)
	var mu sync.Mutex
	var firstErr error
	var failed atomic.Bool
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		failed.Store(true)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var heads []queueCursor
			var ctx txn.FragCtx // per-worker reusable fragment context
			for i := w; i < len(owned); i += workers {
				heads = append(heads, queueCursor{frags: n.queues[owned[i]]})
			}
			for !failed.Load() {
				best := -1
				var bestPrio uint64 = ^uint64(0)
				for i := range heads {
					h := &heads[i]
					if h.pos < len(h.frags) {
						if pr := h.frags[h.pos].Priority(); pr < bestPrio {
							bestPrio, best = pr, i
						}
					}
				}
				if best < 0 {
					return
				}
				f := heads[best].frags[heads[best].pos]
				heads[best].pos++
				if err := n.runFrag(f, aborted, &proposals[w], &failed, &ctx); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	out := hoistProps
	for _, p := range proposals {
		out = append(out, p...)
	}
	return out, nil
}

type queueCursor struct {
	frags []*txn.Fragment
	pos   int
}

// runFrag executes one fragment under the round's verdict assumption:
// assumed-aborted transactions contribute no writes (their abortable checks
// are still re-evaluated so verdicts stay non-sticky), assumed-committed
// transactions execute fully, and every failing check is proposed as next
// round's abort verdict. First writes capture pre-batch before-images for
// the inter-round rollback. failed is the round's abort signal: data-
// dependency waits bail out when another worker has already errored (or the
// engine is closing), so a failure surfaces instead of wedging the round.
// ctx is the caller's reusable fragment context (one per worker): passing it
// in keeps the per-fragment context off the heap, which on TPC-C is worth
// ~a dozen allocations per transaction per round.
func (n *node) runFrag(f *txn.Fragment, aborted []bool, proposals *[]uint32, failed *atomic.Bool, ctx *txn.FragCtx) error {
	if f.Hoisted {
		return nil // executed (and proposed) by the pre-queue publisher pass
	}
	t := f.Txn
	dead := aborted[t.BatchPos]
	if dead {
		if !f.Abortable {
			return nil
		}
		if len(f.NeedVars) > 0 {
			// Unreachable: checkVerdictSafe rejects this shape up front.
			// Defensively keep the abort verdict rather than deadlock on
			// variables whose publishers were skipped.
			*proposals = append(*proposals, t.BatchPos)
			return nil
		}
	} else {
		for _, v := range f.NeedVars {
			for !t.VarReady(v) {
				if t.VarDead(v) {
					// The publisher aborted and the value will never exist:
					// skip the fragment. The transaction's abort verdict
					// reaches every node through the taint rounds, so this
					// round's missing write is repaired deterministically.
					return nil
				}
				if failed.Load() || n.stopped.Load() {
					return nil
				}
				runtime.Gosched()
			}
		}
	}

	table := n.store.Table(f.Table)
	var rec *storage.Record
	if f.Access == txn.Insert {
		if dead {
			return nil
		}
		var fresh bool
		rec, fresh = table.Insert(f.Key, nil)
		if fresh {
			lg := &n.logs[n.store.PartitionOf(f.Key)]
			lg.mu.Lock()
			lg.inserts = append(lg.inserts, insertRef{table: f.Table, key: f.Key})
			lg.mu.Unlock()
		}
	} else {
		rec = table.Get(f.Key)
	}
	if rec == nil {
		return fmt.Errorf("dist: node %d: missing record table=%d key=%d (txn %d frag %d)", n.id, f.Table, f.Key, t.ID, f.Seq)
	}
	if !dead && f.Access.IsWrite() && f.Access != txn.Insert {
		lg := &n.logs[n.store.PartitionOf(f.Key)]
		lg.mu.Lock()
		lg.logImage(rec)
		lg.mu.Unlock()
	}

	*ctx = txn.FragCtx{T: t, F: f, Val: rec.Val}
	err := f.Logic(ctx)
	if f.Abortable {
		if err == txn.ErrAbort {
			*proposals = append(*proposals, t.BatchPos)
			if !dead {
				// Tombstone the slots the check would have published so
				// same-node consumers skip instead of spinning forever.
				for _, v := range f.PubVars {
					t.KillVar(v)
				}
			}
			err = nil
		}
	} else if err == txn.ErrAbort {
		return fmt.Errorf("dist: txn %d frag %d returned ErrAbort but is not marked abortable", t.ID, f.Seq)
	}
	if err != nil {
		return fmt.Errorf("dist: txn %d frag %d logic: %w", t.ID, f.Seq, err)
	}
	return nil
}

// rollback restores every record written this batch to its pre-batch image
// and removes records created this batch, resetting the node's partitions to
// the batch boundary for the next verdict round. Before-images are kept: a
// record's first capture in any round holds its pre-batch value.
func (n *node) rollback() {
	for p := range n.logs {
		lg := &n.logs[p]
		for rec, img := range lg.images {
			copy(rec.Val, lg.slab[img.off:img.off+img.n])
		}
		for _, ins := range lg.inserts {
			n.store.Table(ins.table).Remove(ins.key)
		}
		lg.inserts = lg.inserts[:0]
	}
}

// commitBatch finalizes the batch: the last round's state is the committed
// state, so only the rollback logs are discarded.
func (n *node) commitBatch() {
	n.clearLogs()
	n.shadows = nil
}

// checkVerdictSafe rejects abortable-fragment shapes the verdict-round
// engines cannot re-evaluate safely. Checks are re-run every round, including
// for assumed-aborted transactions: a check with data dependencies could not
// be re-evaluated (its publishers were skipped) and its abort verdict would
// stick, and a check that also writes (legal nowhere — txn.Validate enforces
// read-only abortables — but not guaranteed to have been run) would mutate
// state outside the rollback log. Rejecting both shapes up front keeps the
// fixpoint-equals-serial-outcome guarantee honest.
func checkVerdictSafe(txns []*txn.Txn) error {
	for _, t := range txns {
		for i := range t.Frags {
			f := &t.Frags[i]
			if !f.Abortable {
				continue
			}
			if len(f.NeedVars) > 0 {
				return fmt.Errorf("dist: txn %d frag %d: abortable fragments with data dependencies are not supported by the verdict-round engines", t.ID, f.Seq)
			}
			if f.Access != txn.Read {
				return fmt.Errorf("dist: txn %d frag %d: abortable fragments must be read-only (got %v)", t.ID, f.Seq, f.Access)
			}
			// A check on a key the same transaction wrote or inserted
			// earlier is a store-mediated self-dependency: re-evaluating it
			// for an assumed-aborted transaction (own writes skipped) would
			// observe different state than serial execution did.
			for j := 0; j < i; j++ {
				e := &t.Frags[j]
				if e.Access.IsWrite() && e.Table == f.Table && e.Key == f.Key {
					return fmt.Errorf("dist: txn %d frag %d: abortable check on a key written earlier by the same transaction is not supported by the verdict-round engines", t.ID, f.Seq)
				}
			}
		}
	}
	return nil
}

// recKey identifies a record independently of its storage.Record (batch
// write-set membership for the forwarding hoist check).
type recKey struct {
	table storage.TableID
	key   storage.Key
}

// batchWriteSet collects every (table, key) some fragment in the batch
// writes.
func batchWriteSet(txns []*txn.Txn) map[recKey]struct{} {
	w := make(map[recKey]struct{})
	for _, t := range txns {
		for i := range t.Frags {
			if t.Frags[i].Access.IsWrite() {
				w[recKey{t.Frags[i].Table, t.Frags[i].Key}] = struct{}{}
			}
		}
	}
	return w
}

// checkSlotRanges rejects out-of-range variable slots before any code
// indexes per-slot arrays with them. txn.Validate performs the same check,
// but engines cannot assume callers ran it.
func checkSlotRanges(txns []*txn.Txn) error {
	for _, t := range txns {
		for i := range t.Frags {
			for _, v := range t.Frags[i].NeedVars {
				if v >= txn.MaxVars {
					return fmt.Errorf("dist: txn %d frag %d: NeedVars slot %d out of range", t.ID, i, v)
				}
			}
			for _, v := range t.Frags[i].PubVars {
				if v >= txn.MaxVars {
					return fmt.Errorf("dist: txn %d frag %d: PubVars slot %d out of range", t.ID, i, v)
				}
			}
		}
	}
	return nil
}

// checkForwarding validates a batch's data-dependency topology for the
// deterministic distributed engines. Node-local dependencies resolve through
// the shadow transaction's variable cells in queue order and need no shape
// beyond publisher-before-consumer. A slot consumed on a different node than
// its publisher is forwarded through the MsgVars round, which executes the
// publisher in the pre-queue hoist pass — sound only if the publisher is a
// read-only fragment of a record no fragment in the batch writes (the record
// is batch-constant, so reading it ahead of queue order observes exactly the
// state queue order would). Publishers must be declared via Fragment.PubVars;
// an undeclared publisher would leave remote consumers spinning on a slot no
// node knows it must forward.
func checkForwarding(txns []*txn.Txn, store *storage.Store, nodes int) error {
	if err := checkSlotRanges(txns); err != nil {
		return err
	}
	var written map[recKey]struct{} // built lazily: most batches have no cross-node deps
	for _, t := range txns {
		hasDeps := false
		for i := range t.Frags {
			if len(t.Frags[i].NeedVars) > 0 {
				hasDeps = true
				break
			}
		}
		if !hasDeps {
			continue
		}
		var pub [txn.MaxVars]int
		for i := range pub {
			pub[i] = -1
		}
		for i := range t.Frags {
			for _, v := range t.Frags[i].PubVars {
				if pub[v] >= 0 {
					return fmt.Errorf("dist: txn %d: slot %d declared published by fragments %d and %d", t.ID, v, pub[v], i)
				}
				pub[v] = i
			}
		}
		nodeOf := func(f *txn.Fragment) int {
			return cluster.PartitionOwner(store.PartitionOf(f.Key), nodes)
		}
		for i := range t.Frags {
			f := &t.Frags[i]
			for _, v := range f.NeedVars {
				pi := pub[v]
				if pi < 0 {
					return fmt.Errorf("dist: txn %d frag %d: slot %d consumed but no fragment declares publishing it (PubVars)", t.ID, i, v)
				}
				if pi >= i {
					return fmt.Errorf("dist: txn %d frag %d: slot %d published by fragment %d, which does not precede its consumer", t.ID, i, v, pi)
				}
				p := &t.Frags[pi]
				if nodeOf(p) == nodeOf(f) {
					continue
				}
				if p.Access != txn.Read {
					return fmt.Errorf("dist: txn %d: slot %d crosses nodes but its publisher (frag %d) writes its record; cross-node publishers must be read-only", t.ID, v, pi)
				}
				if len(p.NeedVars) > 0 {
					return fmt.Errorf("dist: txn %d: slot %d crosses nodes but its publisher (frag %d) has data dependencies of its own", t.ID, v, pi)
				}
				if written == nil {
					written = batchWriteSet(txns)
				}
				if _, ok := written[recKey{p.Table, p.Key}]; ok {
					return fmt.Errorf("dist: txn %d: slot %d crosses nodes but its publisher's record (table=%d key=%d) is written in the same batch; forwarded reads must be batch-constant", t.ID, v, p.Table, p.Key)
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Engine group scaffolding
// ---------------------------------------------------------------------------

// group is the shared chassis of the distributed engines: one node per
// transport endpoint (node 0 is the leader and runs on the caller's
// goroutine; the rest run follower message loops), shared stats, and
// message-exchange helpers for the batch-level protocol rounds.
type group struct {
	tr      cluster.Transport
	nodes   []*node
	stats   metrics.Stats
	epoch   uint64
	lastMsg uint64
	// pending is the leader's reorder buffer for the deferred-ack driver
	// (ArgSpeculative): messages of the *next* batch that arrive while a
	// lazy collection (collectBuffered) is still gathering the previous
	// batch's commit acks. recvLeader drains it before touching the
	// transport, so buffered messages keep their arrival order relative to
	// each sender (per-pair FIFO is preserved end to end). Leader-goroutine
	// state, like epoch.
	pending []cluster.Msg
	wg      sync.WaitGroup
	closed  atomic.Bool
	// stopped releases executor goroutines spinning on forwarded variables
	// when the engine tears down mid-batch; every node polls it.
	stopped atomic.Bool
}

func newGroup(tr cluster.Transport, gen workload.Generator, partitions, workers int) (*group, error) {
	if tr.Nodes() < 1 {
		return nil, fmt.Errorf("dist: transport has no nodes")
	}
	if tr.Nodes() > 64 {
		// Forwarding routes address nodes as a 64-bit destination mask.
		return nil, fmt.Errorf("dist: %d nodes exceed the 64-node forwarding-route limit", tr.Nodes())
	}
	if partitions < tr.Nodes() {
		return nil, fmt.Errorf("dist: %d partitions cannot cover %d nodes", partitions, tr.Nodes())
	}
	g := &group{tr: tr, nodes: make([]*node, tr.Nodes())}
	for id := range g.nodes {
		n, err := newNode(id, tr, gen, partitions, workers, &g.stopped)
		if err != nil {
			return nil, err
		}
		g.nodes[id] = n
	}
	return g, nil
}

// startFollowers launches the follower message loops. handle processes one
// message for a follower node; handler errors are reported to the leader as
// flagErr messages so the driving ExecBatch fails instead of hanging.
func (g *group) startFollowers(handle func(n *node, m cluster.Msg) error) {
	for id := 1; id < len(g.nodes); id++ {
		n := g.nodes[id]
		g.wg.Add(1)
		go func(n *node) {
			defer g.wg.Done()
			for {
				m, ok, err := recvProto(g.tr, n.id)
				if err != nil {
					// Leader-link verdict: the transport keeps reconnecting
					// with backoff, so stay and wait for the next round.
					continue
				}
				if !ok {
					return
				}
				if m.Flag == shutdownFlag {
					return
				}
				if err := handle(n, m); err != nil {
					_ = g.tr.Send(cluster.Msg{
						Type: cluster.MsgAck, From: n.id, To: 0, Batch: m.Batch,
						Flag: flagErr, Payload: []byte(err.Error()),
					})
				}
			}
		}(n)
	}
}

// broadcast sends one message shape to every follower.
func (g *group) broadcast(m cluster.Msg) error {
	for id := 1; id < len(g.nodes); id++ {
		m.From, m.To = 0, id
		if err := g.tr.Send(m); err != nil {
			return err
		}
	}
	return nil
}

// recvProto receives node id's next protocol message, surfacing
// failure-detector verdicts: when the transport provides typed receives (the
// hardened TCP transport), a peer declared down yields a
// *cluster.PeerDownError naming the dead node instead of blocking the round
// forever. Transport- or protocol-level heartbeats are skipped — they are
// liveness traffic, never round state.
func recvProto(tr cluster.Transport, id int) (cluster.Msg, bool, error) {
	type recvE interface {
		RecvE(id int) (cluster.Msg, error)
	}
	for {
		if re, ok := tr.(recvE); ok {
			m, err := re.RecvE(id)
			if err != nil {
				var pd *cluster.PeerDownError
				if errors.As(err, &pd) {
					return cluster.Msg{}, true, pd
				}
				return cluster.Msg{}, false, nil
			}
			if m.Type == cluster.MsgHeartbeat {
				continue
			}
			return m, true, nil
		}
		m, ok := tr.Recv(id)
		if ok && m.Type == cluster.MsgHeartbeat {
			continue
		}
		return m, ok, nil
	}
}

// recvLeader returns the leader's next protocol message, draining the
// deferred-ack reorder buffer before touching the transport. A non-nil error
// is a failure-detector verdict: a follower died mid-round, and the round
// cannot complete.
func (g *group) recvLeader() (cluster.Msg, bool, error) {
	if len(g.pending) > 0 {
		m := g.pending[0]
		g.pending = g.pending[1:]
		if len(g.pending) == 0 {
			g.pending = nil
		}
		return m, true, nil
	}
	return recvProto(g.tr, 0)
}

// collect receives one message of the wanted type from every follower,
// surfacing follower-reported errors.
func (g *group) collect(want cluster.MsgType) ([]cluster.Msg, error) {
	msgs := make([]cluster.Msg, 0, len(g.nodes)-1)
	for len(msgs) < len(g.nodes)-1 {
		m, ok, err := g.recvLeader()
		if err != nil {
			return nil, fmt.Errorf("dist: while collecting %d: %w", want, err)
		}
		if !ok {
			return nil, fmt.Errorf("dist: transport closed while collecting %d", want)
		}
		if m.Flag == flagErr {
			return nil, fmt.Errorf("dist: node %d: %s", m.From, m.Payload)
		}
		if m.Type != want {
			return nil, fmt.Errorf("dist: leader expected message type %d, got %d from node %d", want, m.Type, m.From)
		}
		msgs = append(msgs, m)
	}
	return msgs, nil
}

// collectBuffered is collect's out-of-order form for the deferred-ack driver:
// it gathers one message of the wanted type per follower, setting every other
// message aside in the reorder buffer instead of rejecting it — the successor
// batch is already running, so its MsgVars and completion reports may arrive
// interleaved with the predecessor's lagging commit acks. Messages already in
// the buffer are scanned first so repeated lazy collections cannot recycle
// one another's leftovers.
func (g *group) collectBuffered(want cluster.MsgType) ([]cluster.Msg, error) {
	msgs := make([]cluster.Msg, 0, len(g.nodes)-1)
	kept := g.pending[:0]
	for _, m := range g.pending {
		if m.Type == want && m.Flag != flagErr && len(msgs) < len(g.nodes)-1 {
			msgs = append(msgs, m)
		} else {
			kept = append(kept, m)
		}
	}
	g.pending = kept
	for len(msgs) < len(g.nodes)-1 {
		m, ok, err := recvProto(g.tr, 0)
		if err != nil {
			return nil, fmt.Errorf("dist: while collecting %d: %w", want, err)
		}
		if !ok {
			return nil, fmt.Errorf("dist: transport closed while collecting %d", want)
		}
		if m.Flag == flagErr && m.Type != cluster.MsgVars {
			return nil, fmt.Errorf("dist: node %d: %s", m.From, m.Payload)
		}
		if m.Type != want {
			g.pending = append(g.pending, m)
			continue
		}
		msgs = append(msgs, m)
	}
	return msgs, nil
}

// leaderRound drives one verdict round at the leader: the leader's local
// execution runs on its own goroutine while this loop receives follower
// traffic, applying forwarded variables (MsgVars) as they arrive — the
// leader's executors may be blocked on exactly those values — and gathering
// one completion report of the wanted type per follower. Per-pair FIFO
// guarantees a follower's MsgVars precede its report, so when every report is
// in, every forwarded value has been applied and the local round can finish.
func (g *group) leaderRound(want cluster.MsgType, aborted []bool, run func([]bool) ([]uint32, error)) ([]uint32, []cluster.Msg, error) {
	leader := g.nodes[0]
	type roundResult struct {
		props []uint32
		err   error
	}
	ch := make(chan roundResult, 1)
	leader.execWG.Add(1)
	go func() {
		defer leader.execWG.Done()
		props, err := run(aborted)
		ch <- roundResult{props, err}
	}()
	fail := func(err error) ([]uint32, []cluster.Msg, error) {
		// Release the local round before surfacing the error so the exec
		// goroutine cannot wedge on variables that will never arrive. The
		// protocol state is unrecoverable mid-batch, so stopped stays set
		// and ExecBatch rejects further batches (see group.usable).
		g.stopped.Store(true)
		<-ch
		return nil, nil, err
	}
	reports := make([]cluster.Msg, 0, len(g.nodes)-1)
	for len(reports) < len(g.nodes)-1 {
		m, ok, err := g.recvLeader()
		if err != nil {
			return fail(fmt.Errorf("dist: while collecting %d: %w", want, err))
		}
		if !ok {
			return fail(fmt.Errorf("dist: transport closed while collecting %d", want))
		}
		if m.Flag == flagErr && m.Type != cluster.MsgVars {
			return fail(fmt.Errorf("dist: node %d: %s", m.From, m.Payload))
		}
		switch m.Type {
		case cluster.MsgVars:
			if err := g.nodes[0].deliverVars(m); err != nil {
				return fail(err)
			}
		case want:
			reports = append(reports, m)
		default:
			return fail(fmt.Errorf("dist: leader expected message type %d, got %d from node %d", want, m.Type, m.From))
		}
	}
	r := <-ch
	if r.err != nil {
		return nil, nil, r.err
	}
	return r.props, reports, nil
}

// pipeDriver is the leader-side state of the pipelined Submit/Drain driver
// (ArgPipeline) shared by the deterministic distributed engines: the
// completion channel of the batch whose verdict rounds are currently running
// in the background. Touched only by the driver goroutine, like ExecBatch.
type pipeDriver struct {
	enabled  bool
	inflight chan error
}

// launch runs one shipped batch's verdict rounds in the background. Any
// error there is protocol-fatal — the cluster is mid-batch and cannot be
// resynchronized — so the group is stopped before the error is parked for
// drain, keeping the no-divergent-commits guarantee of group.usable.
func (p *pipeDriver) launch(stopped *atomic.Bool, run func() error) {
	ch := make(chan error, 1)
	p.inflight = ch
	go func() {
		err := run()
		if err != nil {
			stopped.Store(true)
		}
		ch <- err
	}()
}

// drain waits for the batch launched by the last Submit (if any) and returns
// its execution error. A no-op when nothing is in flight.
func (p *pipeDriver) drain() error {
	if p.inflight == nil {
		return nil
	}
	err := <-p.inflight
	p.inflight = nil
	return err
}

// tryDrain is the non-blocking drain: done reports whether no batch remains
// in flight (see core.Engine.TryDrain for the contract).
func (p *pipeDriver) tryDrain() (bool, error) {
	if p.inflight == nil {
		return true, nil
	}
	select {
	case err := <-p.inflight:
		p.inflight = nil
		return true, err
	default:
		return false, nil
	}
}

// execSequence is the serial driver shared by the deterministic engines:
// drain any in-flight pipelined batch, then prepare, ship and run one batch
// synchronously. S is the engine's shipment type.
func execSequence[S any](p *pipeDriver, g *group, empty bool, prepare func() (S, error), ship func(S) error, run func(S) error) error {
	if err := p.drain(); err != nil {
		return err
	}
	if empty {
		return nil
	}
	if err := g.usable(); err != nil {
		return err
	}
	s, err := prepare()
	if err != nil {
		return err
	}
	if err := ship(s); err != nil {
		return err
	}
	return run(s)
}

// submitSequence is the pipelined driver shared by the deterministic
// engines: prepare immediately — overlapping the in-flight batch's
// execution — then drain it, ship, and launch this batch's rounds in the
// background. Prepare errors are reported only after the previous batch's
// outcome, which takes precedence.
func submitSequence[S any](p *pipeDriver, g *group, empty bool, prepare func() (S, error), ship func(S) error, run func(S) error) error {
	if !p.enabled {
		return fmt.Errorf("dist: Submit requires the ArgPipeline option")
	}
	var s S
	var prepErr error
	if !empty {
		s, prepErr = prepare()
	}
	// The previous batch must commit before this one may ship (and before
	// the group's protocol state — epoch, leader queues — is touched).
	if err := p.drain(); err != nil {
		return err
	}
	if prepErr != nil || empty {
		return prepErr
	}
	if err := g.usable(); err != nil {
		return err
	}
	if err := ship(s); err != nil {
		return err
	}
	p.launch(&g.stopped, func() error { return run(s) })
	return nil
}

// usable rejects batches on a dead group. stopped releases executors by
// making variable waits bail out and skip fragments, so executing another
// batch after a failure (or Close) would silently commit divergent state —
// the one outcome a deterministic engine must never produce.
func (g *group) usable() error {
	if g.stopped.Load() {
		return fmt.Errorf("dist: engine unusable after a failed batch or Close")
	}
	return nil
}

// Stats returns the cluster-wide metrics, accumulated at the leader.
func (g *group) Stats() *metrics.Stats { return &g.stats }

// Stores returns every node's store (node id order). Non-owned partitions
// hold the initial load; ClusterStateHash reads each partition from its
// owner.
func (g *group) Stores() []*storage.Store {
	out := make([]*storage.Store, len(g.nodes))
	for i, n := range g.nodes {
		out[i] = n.store
	}
	return out
}

// close shuts the follower loops down and waits for them — and any in-flight
// round goroutines — to exit. stopped releases executors spinning on
// forwarded variables abandoned by an error-terminated batch.
func (g *group) close() {
	if !g.closed.CompareAndSwap(false, true) {
		return
	}
	g.stopped.Store(true)
	for id := 1; id < len(g.nodes); id++ {
		// Ignore errors: a closed transport unblocks followers by itself.
		_ = g.tr.Send(cluster.Msg{Type: cluster.MsgAck, From: 0, To: id, Flag: shutdownFlag})
	}
	g.wg.Wait()
	for _, n := range g.nodes {
		n.execWG.Wait()
	}
}

// leaderVerdictRounds drives the leader side of the batch verdict protocol
// shared by the deterministic engines: round 0 under the all-commit
// assumption (completion reports arrive as MsgBatchDone), the abort-repair
// fixpoint loop (MsgTaintSet out, MsgTaintReport back), then commit broadcast
// and acks. Each round's local execution runs concurrently with report
// collection so the leader can apply forwarded variables mid-round
// (leaderRound). run executes one leader-local round under a verdict
// assumption; fixpoint selects full verdict iteration versus a single
// reconnaissance repair round (Calvin-D without ArgAbortEval); deferAcks
// (the speculative driver) skips the trailing commit-ack collection — the
// caller owns gathering those acks lazily via collectBuffered before the
// next batch's verdict rounds. Returns the final verdicts. The leader must
// already have installed its shadows.
func (g *group) leaderVerdictRounds(batchN int, run func([]bool) ([]uint32, error), fixpoint, deferAcks bool) ([]bool, error) {
	leader := g.nodes[0]
	aborted := make([]bool, batchN)
	if err := leader.startRound(g.epoch, 0); err != nil {
		return nil, err
	}
	props, reports, err := g.leaderRound(cluster.MsgBatchDone, aborted, run)
	if err != nil {
		return nil, err
	}
	next, err := mergeVerdicts(batchN, props, reports)
	if err != nil {
		g.stopped.Store(true) // followers are mid-batch; the protocol cannot resume
		return nil, err
	}

	rounds := uint64(0)
	for !sameVerdicts(aborted, next) {
		rounds++
		if rounds > uint64(batchN)+2 {
			return nil, fmt.Errorf("dist: verdict iteration did not converge after %d rounds", rounds)
		}
		aborted = next
		if err := g.broadcast(cluster.Msg{
			Type: cluster.MsgTaintSet, Batch: g.epoch, Vals: positionsOf(aborted),
		}); err != nil {
			return nil, err
		}
		leader.rollback()
		if err := leader.startRound(g.epoch, rounds); err != nil {
			return nil, err
		}
		props, reports, err = g.leaderRound(cluster.MsgTaintReport, aborted, run)
		if err != nil {
			return nil, err
		}
		if fixpoint {
			if next, err = mergeVerdicts(batchN, props, reports); err != nil {
				g.stopped.Store(true)
				return nil, err
			}
		} else {
			// Reconnaissance mode: one suppression round, verdicts final.
			next = aborted
		}
	}

	if err := g.broadcast(cluster.Msg{Type: cluster.MsgBatchCommit, Batch: g.epoch}); err != nil {
		return nil, err
	}
	leader.commitBatch()
	if !deferAcks {
		if _, err := g.collect(cluster.MsgAck); err != nil {
			return nil, err
		}
	}
	return aborted, nil
}

// mergeVerdicts unions the leader's proposals with every follower report.
// Reported positions come off the wire, so one outside the batch is an error.
func mergeVerdicts(batchN int, props []uint32, reports []cluster.Msg) ([]bool, error) {
	v := verdictSet(batchN, props)
	for _, m := range reports {
		if err := markPositions(v, m.Vals); err != nil {
			return nil, fmt.Errorf("dist: node %d: %w", m.From, err)
		}
	}
	return v, nil
}

// markPositions sets v[pos] for each wire-supplied position, rejecting any
// position outside the batch.
func markPositions(v []bool, vals []uint64) error {
	for _, pos := range vals {
		if pos >= uint64(len(v)) {
			return fmt.Errorf("verdict for unknown batch position %d (batch of %d)", pos, len(v))
		}
		v[pos] = true
	}
	return nil
}

// runFollowerRound launches a follower's round execution on its own
// goroutine, leaving the message loop free to apply MsgVars the round's
// executors may be blocked on. On completion it reports doneType (with the
// round's abort proposals) to the leader; an execution error is reported as
// a flagErr message so the driving ExecBatch fails instead of hanging.
func (g *group) runFollowerRound(n *node, batch uint64, doneType cluster.MsgType, aborted []bool, run func([]bool) ([]uint32, error)) {
	n.execWG.Add(1)
	go func() {
		defer n.execWG.Done()
		props, err := run(aborted)
		if err != nil {
			_ = g.tr.Send(cluster.Msg{
				Type: cluster.MsgAck, From: n.id, To: 0, Batch: batch,
				Flag: flagErr, Payload: []byte(err.Error()),
			})
			return
		}
		_ = g.tr.Send(cluster.Msg{
			Type: doneType, From: n.id, To: 0, Batch: batch, Vals: toVals(props),
		})
	}()
}

// followerVerdictMsg handles the protocol messages common to the follower
// side of both deterministic engines (forwarded variables, taint rounds and
// commit). Returns false for messages the caller must handle itself (batch
// installation).
func (g *group) followerVerdictMsg(n *node, m cluster.Msg, run func([]bool) ([]uint32, error)) (bool, error) {
	switch m.Type {
	case cluster.MsgVars:
		return true, n.deliverVars(m)
	case cluster.MsgTaintSet:
		aborted := make([]bool, n.batchN)
		if err := markPositions(aborted, m.Vals); err != nil {
			return true, fmt.Errorf("taint set: %w", err) // the leader prefixes the node id
		}
		n.execWG.Wait() // previous round finished (its report was collected)
		n.rollback()
		if err := n.startRound(m.Batch, n.curRound+1); err != nil {
			return true, err
		}
		g.runFollowerRound(n, m.Batch, cluster.MsgTaintReport, aborted, run)
		return true, nil
	case cluster.MsgBatchCommit:
		n.execWG.Wait()
		n.commitBatch()
		return true, g.tr.Send(cluster.Msg{Type: cluster.MsgAck, From: n.id, To: 0, Batch: m.Batch})
	default:
		return false, nil
	}
}

// finishBatch folds one batch's outcome into the leader-side stats.
func (g *group) finishBatch(total, userAborts int, elapsedNs uint64, latObs func(int)) {
	committed := total - userAborts
	g.stats.Committed.Add(uint64(committed))
	g.stats.UserAborts.Add(uint64(userAborts))
	g.stats.ExecNs.Add(elapsedNs)
	latObs(committed)
	g.syncMessages()
	g.epoch++
}

// syncMessages folds the transport sends since the last sample into the
// message counter. The deferred-ack driver calls it again after gathering a
// batch's lagging commit acks: having received them proves the sends
// happened, so the final counter is exact (and deterministic) rather than a
// racy mid-flight sample.
func (g *group) syncMessages() {
	msgs := g.tr.Messages()
	g.stats.Messages.Add(msgs - g.lastMsg)
	g.lastMsg = msgs
}

// markVerdicts writes the batch's final abort verdicts back to the original
// submitted transactions at the commit point. The distributed engines execute
// shadow copies, so — unlike the centralized engines, which run the caller's
// objects directly — the caller-visible Aborted bit must be set explicitly.
// This is what lets any driver (the bench harness, the serve layer's batch
// former) read per-transaction outcomes off the transactions themselves,
// engine-agnostically.
func markVerdicts(txns []*txn.Txn, aborted []bool) {
	for pos, a := range aborted {
		if a {
			txns[pos].MarkAborted()
		}
	}
}

// verdictSet converts a position list to a dense bool vector.
func verdictSet(batchN int, rounds ...[]uint32) []bool {
	v := make([]bool, batchN)
	for _, r := range rounds {
		for _, pos := range r {
			v[pos] = true
		}
	}
	return v
}

// positionsOf flattens a verdict vector back to a sorted position list.
func positionsOf(v []bool) []uint64 {
	var out []uint64
	for pos, a := range v {
		if a {
			out = append(out, uint64(pos))
		}
	}
	return out
}

func sameVerdicts(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func countTrue(v []bool) int {
	n := 0
	for _, x := range v {
		if x {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Cluster state verification
// ---------------------------------------------------------------------------

// ClusterStateHash fingerprints the cluster's logical database state: for
// every table (in the given declaration order) it hashes the sorted keys and
// committed values of each partition as read from that partition's owning
// node. The result is bit-identical to storage.Store.StateHash over a
// single-node store holding the same logical content, so distributed runs
// verify directly against the serial centralized reference.
func ClusterStateHash(stores []*storage.Store, tables []storage.TableID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	mix64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(v))
			v >>= 8
		}
	}
	nodes := len(stores)
	parts := stores[0].Partitions()
	for _, id := range tables {
		mix(byte(id))
		var keys []storage.Key
		for part := 0; part < parts; part++ {
			owner := cluster.PartitionOwner(part, nodes)
			stores[owner].Table(id).ForEachInPartition(part, func(k storage.Key, _ *storage.Record) {
				keys = append(keys, k)
			})
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			mix64(uint64(k))
			owner := cluster.PartitionOwner(stores[0].PartitionOf(k), nodes)
			for _, b := range stores[owner].Table(id).Get(k).CommittedValue() {
				mix(b)
			}
		}
	}
	return h
}
