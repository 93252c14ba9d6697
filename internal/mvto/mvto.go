// Package mvto implements multi-version timestamp ordering, the stand-in for
// the multi-version non-deterministic baselines of the paper's Table 2
// (Cicada / ERMIA family): the table compares protocol classes, so textbook
// MVTO stands in for those systems' engineering.
//
// Every transaction receives a begin timestamp from a global counter. Reads
// return the newest committed version with wts <= ts and extend that
// version's rts; writes append an uncommitted version when permitted by the
// classic MVTO rules (no later reader of the overwritten version, no newer
// version, no uncommitted version by another transaction — conflicts abort
// immediately, no-wait style). Commit flips the transaction's versions to
// committed and mirrors the newest value into Record.Val so that state
// hashing and non-versioned observers see the committed image.
package mvto

import (
	"fmt"
	"sync/atomic"

	"github.com/exploratory-systems/qotp/internal/metrics"
	"github.com/exploratory-systems/qotp/internal/nondet"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
)

// maxChain bounds version-chain length; older versions beyond the bound are
// pruned and readers that need them abort (rare: timestamps advance fast and
// transactions are short).
const maxChain = 16

// Engine implements MVTO over the shared store.
type Engine struct {
	store *storage.Store
	pool  *nondet.Pool
	ts    atomic.Uint64
	state []workerState
}

type ownedVersion struct {
	rec      *storage.Record
	ver      *storage.Version
	table    storage.TableID
	key      storage.Key
	isInsert bool
}

type workerState struct {
	owned []ownedVersion
	_     [48]byte
}

// New creates an MVTO engine with the given worker count.
func New(store *storage.Store, workers int) (*Engine, error) {
	e := &Engine{store: store, state: make([]workerState, workers)}
	pool, err := nondet.NewPool(e, workers)
	if err != nil {
		return nil, err
	}
	e.pool = pool
	return e, nil
}

var _ nondet.Runner = (*Engine)(nil)

// Name implements nondet.Runner.
func (e *Engine) Name() string { return "mvto" }

// ExecBatch implements the engine interface.
func (e *Engine) ExecBatch(txns []*txn.Txn) error { return e.pool.ExecBatch(txns) }

// Stats implements the engine interface.
func (e *Engine) Stats() *metrics.Stats { return e.pool.Stats() }

// Close implements the engine interface.
func (e *Engine) Close() {}

// ensureChain lazily creates the base version from the committed value.
// Caller holds the record latch.
func ensureChain(rec *storage.Record) {
	if rec.Versions == nil {
		base := &storage.Version{WTS: 0, Committed: true, Val: append([]byte(nil), rec.Val...)}
		rec.Versions = base
	}
}

// RunTxn implements nondet.Runner.
func (e *Engine) RunTxn(worker int, t *txn.Txn) (nondet.Outcome, error) {
	ws := &e.state[worker]
	ws.owned = ws.owned[:0]
	ts := e.ts.Add(1)

	abort := func() {
		// Unlink our uncommitted versions; they are chain heads because no
		// writer stacks on an uncommitted version of another transaction.
		for i := len(ws.owned) - 1; i >= 0; i-- {
			o := &ws.owned[i]
			o.rec.Latch()
			if o.rec.Versions == o.ver {
				o.rec.Versions = o.ver.Next
			}
			o.rec.Unlatch()
			if o.isInsert {
				e.store.Table(o.table).Remove(o.key)
			}
		}
	}

	var ctx txn.FragCtx
	for i := range t.Frags {
		nondet.Interleave()
		f := &t.Frags[i]
		table := e.store.Table(f.Table)

		var buf []byte
		switch f.Access {
		case txn.Insert:
			rec, fresh := table.Insert(f.Key, nil)
			if !fresh {
				// Duplicate key from a concurrent insert; retry.
				abort()
				return nondet.CCAbort, nil
			}
			rec.Latch()
			v := &storage.Version{WTS: ts, RTS: ts, Owner: t.ID + 1, Val: make([]byte, table.Spec().ValueSize)}
			v.Next = rec.Versions // nil for fresh records
			rec.Versions = v
			rec.Unlatch()
			ws.owned = append(ws.owned, ownedVersion{rec: rec, ver: v, table: f.Table, key: f.Key, isInsert: true})
			buf = v.Val

		case txn.Read:
			rec := table.Get(f.Key)
			if rec == nil {
				abort()
				return 0, fmt.Errorf("mvto: missing record table=%d key=%d", f.Table, f.Key)
			}
			rec.Latch()
			ensureChain(rec)
			v := rec.Versions
			for v != nil && v.WTS > ts {
				v = v.Next
			}
			if v == nil || (!v.Committed && v.Owner != t.ID+1) {
				rec.Unlatch()
				abort()
				return nondet.CCAbort, nil
			}
			if ts > v.RTS {
				v.RTS = ts
			}
			buf = v.Val
			rec.Unlatch()

		case txn.Update, txn.ReadModifyWrite:
			rec := table.Get(f.Key)
			if rec == nil {
				abort()
				return 0, fmt.Errorf("mvto: missing record table=%d key=%d", f.Table, f.Key)
			}
			rec.Latch()
			ensureChain(rec)
			head := rec.Versions
			switch {
			case !head.Committed && head.Owner == t.ID+1:
				// Re-writing our own version in place.
				buf = head.Val
			case !head.Committed, head.WTS > ts, head.RTS > ts:
				// Uncommitted by another txn / newer version exists /
				// a later transaction already read the head: abort.
				rec.Unlatch()
				abort()
				return nondet.CCAbort, nil
			default:
				v := &storage.Version{WTS: ts, RTS: ts, Owner: t.ID + 1, Val: append([]byte(nil), head.Val...)}
				v.Next = head
				rec.Versions = v
				pruneLocked(rec)
				ws.owned = append(ws.owned, ownedVersion{rec: rec, ver: v, table: f.Table, key: f.Key})
				buf = v.Val
			}
			rec.Unlatch()

		default:
			abort()
			return 0, fmt.Errorf("mvto: unknown access type %v", f.Access)
		}

		ctx = txn.FragCtx{T: t, F: f, Val: buf}
		err := f.Logic(&ctx)
		if f.Abortable && err == txn.ErrAbort {
			abort()
			return nondet.UserAbort, nil
		}
		if err != nil {
			abort()
			return 0, fmt.Errorf("mvto: txn %d frag %d logic: %w", t.ID, f.Seq, err)
		}
	}

	// Commit: flip versions to committed, mirror newest committed value
	// into Record.Val.
	for i := range ws.owned {
		o := &ws.owned[i]
		o.rec.Latch()
		o.ver.Committed = true
		if o.rec.Versions == o.ver {
			copy(o.rec.Val, o.ver.Val)
		}
		o.rec.Unlatch()
	}
	return nondet.Committed, nil
}

// pruneLocked trims the version chain to maxChain entries. Caller holds the
// record latch.
func pruneLocked(rec *storage.Record) {
	n := 0
	for v := rec.Versions; v != nil; v = v.Next {
		n++
		if n == maxChain {
			v.Next = nil
			return
		}
	}
}
