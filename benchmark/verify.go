package main

import (
	"fmt"

	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload"
)

// reference is the suite's correctness oracle: a second copy of the initial
// database on which every transaction the system under test was given is
// re-run one at a time, one fragment after another, in the exact order it was
// submitted. It shares no code with the engines — no planner, no queues, no
// goroutines — so a final StateHash equal to the engine's proves the engine's
// concurrent execution was equivalent to that serial order.
type reference struct {
	store   *storage.Store
	aborted uint64
	txns    uint64
	undo    []undoEntry
	images  []byte // before-images of the running transaction, reused
}

type undoEntry struct {
	rec    *storage.Record
	table  storage.TableID
	key    storage.Key
	before int // offset of the before-image in reference.images; -1: inserted
}

// newReference loads a fresh store from gen, which must be an instance that
// has generated nothing and loaded nothing (TPC-C's Load updates generator
// shadow state).
func newReference(gen workload.Generator, parts int) (*reference, error) {
	st, err := storage.Open(gen.StoreConfig(parts))
	if err != nil {
		return nil, err
	}
	if err := gen.Load(st); err != nil {
		return nil, err
	}
	return &reference{store: st}, nil
}

// apply re-runs one batch serially. The transactions may be the very objects
// an engine just executed: runtime state (variables, abort bit) is reset
// first, and wantAborted — when non-nil — is the engine's verdict per
// position, which the serial verdict must equal.
func (r *reference) apply(txns []*txn.Txn, wantAborted []bool) error {
	for i, t := range txns {
		if needsReset(t) {
			t.Reset()
		}
		if err := r.run(t); err != nil {
			return err
		}
		if wantAborted != nil && t.Aborted() != wantAborted[i] {
			return fmt.Errorf("verify: txn %d: engine aborted=%v, serial reference aborted=%v", t.ID, wantAborted[i], t.Aborted())
		}
	}
	return nil
}

// needsReset reports whether executing t can have left runtime state behind:
// only transactions with abortable fragments or published variables do. The
// abort-free YCSB transactions skip the 48 atomic stores of Txn.Reset.
func needsReset(t *txn.Txn) bool {
	if t.HasAbortable() || t.Aborted() {
		return true
	}
	for i := range t.Frags {
		if len(t.Frags[i].PubVars) > 0 {
			return true
		}
	}
	return false
}

func (r *reference) run(t *txn.Txn) error {
	r.txns++
	r.undo, r.images = r.undo[:0], r.images[:0]
	abortable := t.HasAbortable()
	var ctx txn.FragCtx
	for i := range t.Frags {
		f := &t.Frags[i]
		table := r.store.Table(f.Table)
		var rec *storage.Record
		inserted := false
		if f.Access == txn.Insert {
			rec, inserted = table.Insert(f.Key, nil)
		} else {
			rec = table.Get(f.Key)
		}
		if rec == nil {
			return fmt.Errorf("verify: txn %d frag %d: missing record table=%d key=%d", t.ID, i, f.Table, f.Key)
		}
		if abortable && f.Access.IsWrite() {
			before := -1
			if !inserted {
				before = len(r.images)
				r.images = append(r.images, rec.Val...)
			}
			r.undo = append(r.undo, undoEntry{rec, f.Table, f.Key, before})
		}
		ctx = txn.FragCtx{T: t, F: f, Val: rec.Val}
		err := f.Logic(&ctx)
		if err == txn.ErrAbort && f.Abortable {
			t.MarkAborted()
			r.aborted++
			for j := len(r.undo) - 1; j >= 0; j-- {
				u := r.undo[j]
				if u.before < 0 {
					r.store.Table(u.table).Remove(u.key)
				} else {
					copy(u.rec.Val, r.images[u.before:])
				}
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("verify: txn %d frag %d: %w", t.ID, i, err)
		}
	}
	return nil
}

// verdicts snapshots the engine's abort bits of a batch before the reference
// resets them.
func verdicts(txns []*txn.Txn, buf []bool) []bool {
	buf = buf[:0]
	for _, t := range txns {
		buf = append(buf, t.Aborted())
	}
	return buf
}
