package core

import (
	"fmt"

	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
)

// repair implements deterministic cascading-abort resolution for speculative
// execution (paper §3.2: "Resolving [speculation dependencies] may cause
// cascading aborts").
//
// Inputs: the per-executor access logs, which contain — in per-record
// priority order — every read and write performed while abortable fragments
// were in flight, plus before-images of all writes.
//
// The abort set A is the closure of the logic-aborted transactions under:
//
//  1. If T∈A wrote record Z, every transaction accessing Z later joins A
//     (they observed or overwrote speculative state that is being revoked).
//  2. If T∈A read record Z, every transaction writing Z later joins A (its
//     write must be replayed after T's re-executed read), and rule 1 then
//     applies to that write.
//
// Every record is rolled back to the before-image of its first write by an
// A-member (inserts are removed), and the *tainted* members of A — those
// whose inputs included speculative state, including logic-aborted
// transactions whose abort verdict may have been reached on dirty reads —
// are re-executed serially in ascending priority order. The result is
// exactly the serial-order state of the batch.
//
// The closure is computed by scanning the logs in place. A record is only
// ever accessed by its owning executor, so one executor's log — its
// predecessor-batch generation, then its current one — already lists every
// access to each of its records in priority order; interleaving with other
// records does not matter, because the rules only look at earlier accesses
// to the same record. One scan applies both rules to every entry; scans
// repeat until no verdict changes, and one more scan rolls back. Each scan
// costs O(log length), and the only per-record state is a reused map that
// holds the records abort-set members touched.
func (e *Engine) repair(txns []*txn.Txn) error {
	return e.repairCross(nil, 0, txns, 0)
}

// Per-record state of one repair scan (Engine.recState).
const (
	writeTaint uint8 = 1 << iota // an A-member wrote the record earlier in the scan
	readTaint                    // an A-member read the record earlier in the scan
	rolledBack                   // the rollback scan restored the record
)

// repairCross is the generalized repair pass over the concatenation of a
// pending predecessor batch (prev, logged in executor generation prevGen;
// nil outside cross-batch deferral) and the current batch (cur, generation
// curGen), treating the two as one sequence in priority order — prev's
// positions before cur's. This is what makes cross-batch speculation sound:
// a cur transaction that read state rolled back by prev's repair joins the
// abort set through the same two taint rules and is re-executed, so the
// post-repair state equals serial execution of prev then cur.
func (e *Engine) repairCross(prev []*txn.Txn, prevGen int, cur []*txn.Txn, curGen int) error {
	e.rollBackAbortSet(prev, prevGen, cur, curGen)
	// Re-execute tainted members serially in global priority order: all of
	// prev precedes all of cur, and Plan numbers each batch's BatchPos in
	// slice order. Untainted logic aborts stay aborted: their verdicts were
	// reached on clean state.
	off := len(prev)
	for _, t := range prev {
		if e.tainted[t.BatchPos] {
			if err := e.reexecute(t); err != nil {
				return err
			}
		}
	}
	for _, t := range cur {
		if e.tainted[off+int(t.BatchPos)] {
			if err := e.reexecute(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// reexecute runs one tainted transaction again against the repaired state.
func (e *Engine) reexecute(t *txn.Txn) error {
	e.stats.Retries.Add(1)
	return e.runTxnSerial(t)
}

// rollBackAbortSet is the verdict half of repairCross: it leaves the abort
// set in e.inA and its tainted members in e.tainted, both indexed by global
// position (prev's BatchPos, then len(prev) + cur's), and rolls every record
// an A-member wrote back to the before-image of that first write. Tainted
// members joined A (or were re-marked) through a rule rather than through
// their own clean-state logic abort; they are the ones re-executed,
// including logic-aborted ones whose verdict may rest on dirty reads.
func (e *Engine) rollBackAbortSet(prev []*txn.Txn, prevGen int, cur []*txn.Txn, curGen int) {
	off := len(prev)
	n := off + len(cur)
	e.inA = resetMarks(e.inA, n)
	e.tainted = resetMarks(e.tainted, n)
	for _, t := range prev {
		if t.Aborted() {
			e.inA[t.BatchPos] = true
		}
	}
	for _, t := range cur {
		if t.Aborted() {
			e.inA[off+int(t.BatchPos)] = true
		}
	}
	for changed := true; changed; {
		clear(e.recState)
		changed = false
		for _, ex := range e.execs {
			if prev != nil && e.taintScan(ex.logs[prevGen], 0) {
				changed = true
			}
			if e.taintScan(ex.logs[curGen], off) {
				changed = true
			}
		}
	}
	clear(e.recState)
	for _, ex := range e.execs {
		if prev != nil {
			e.rollbackScan(ex.logs[prevGen], 0)
		}
		e.rollbackScan(ex.logs[curGen], off)
	}
}

// resetMarks returns marks resized to n and all false, reusing its array.
func resetMarks(marks []bool, n int) []bool {
	if cap(marks) < n {
		return make([]bool, n)
	}
	marks = marks[:n]
	clear(marks)
	return marks
}

// taintScan applies both abort-set rules to every entry of one log segment
// whose transactions sit at global positions off + BatchPos, and reports
// whether any transaction joined A or became tainted.
func (e *Engine) taintScan(log []accessEntry, off int) (changed bool) {
	for i := range log {
		en := &log[i]
		pos := off + int(en.t.BatchPos)
		var st uint8
		if len(e.recState) > 0 {
			st = e.recState[en.rec]
		}
		if st&writeTaint != 0 || (st&readTaint != 0 && en.write) {
			if !e.inA[pos] || !e.tainted[pos] {
				e.inA[pos], e.tainted[pos] = true, true
				changed = true
			}
		}
		if !e.inA[pos] {
			continue
		}
		bit := readTaint
		if en.write {
			bit = writeTaint
		}
		if st&bit == 0 {
			e.recState[en.rec] = st | bit
		}
	}
	return changed
}

// rollbackScan restores each record of one log segment that an A-member
// wrote to the before-image of the first such write, unless an earlier
// segment of the same scan already restored it.
func (e *Engine) rollbackScan(log []accessEntry, off int) {
	for i := range log {
		en := &log[i]
		if !en.write || !e.inA[off+int(en.t.BatchPos)] || e.recState[en.rec]&rolledBack != 0 {
			continue
		}
		e.recState[en.rec] = rolledBack
		if en.inserted {
			e.store.Table(en.frag.Table).Remove(en.frag.Key)
		} else if e.cfg.Isolation == ReadCommitted {
			if en.hadSpec {
				copy(en.rec.Spec, en.before)
			} else {
				en.rec.HasSpec = false
			}
		} else {
			copy(en.rec.Val, en.before)
			en.rec.HasSpec = false
		}
	}
}

// serialUndo is a rollback entry for the serial repair executor.
type serialUndo struct {
	rec      *storage.Record
	table    storage.TableID
	key      storage.Key
	before   []byte
	inserted bool
	hadSpec  bool
}

// runTxnSerial executes one transaction to completion on the calling
// goroutine, with no speculation: a fresh logic abort rolls back the
// transaction's own writes immediately. Cascade repair is its only caller.
// Fragments run in sequence order, which satisfies all intra-transaction
// dependencies by construction. The undo log, its before-image arena and
// the fragment context are engine-owned and reset per call, so a call
// allocates nothing.
func (e *Engine) runTxnSerial(t *txn.Txn) error {
	t.Reset()
	rcMode := e.cfg.Isolation == ReadCommitted
	e.undo = e.undo[:0]
	e.undoArena = e.undoArena[:0]
	for i := range t.Frags {
		f := &t.Frags[i]
		table := e.store.Table(f.Table)
		var rec *storage.Record
		inserted := false
		if f.Access == txn.Insert {
			rec, inserted = table.Insert(f.Key, nil)
		} else {
			rec = table.Get(f.Key)
		}
		if rec == nil {
			return fmt.Errorf("core: serial exec: missing record table=%d key=%d (txn %d frag %d)", f.Table, f.Key, t.ID, f.Seq)
		}

		buf := rec.Val
		hadSpec := false
		if rcMode && f.Access != txn.Insert {
			if f.Access.IsWrite() {
				if rec.SpecEpoch != e.epoch || !rec.HasSpec {
					if cap(rec.Spec) < len(rec.Val) {
						rec.Spec = make([]byte, len(rec.Val))
					}
					rec.Spec = rec.Spec[:len(rec.Val)]
					copy(rec.Spec, rec.Val)
					rec.HasSpec = true
					rec.SpecEpoch = e.epoch
					e.repairFlips = append(e.repairFlips, rec)
				} else {
					hadSpec = true
				}
				buf = rec.Spec
			} else if rec.HasSpec && rec.SpecEpoch == e.epoch {
				buf = rec.Spec
			}
		}

		if f.Access.IsWrite() {
			var before []byte
			if !inserted {
				off := len(e.undoArena)
				e.undoArena = append(e.undoArena, buf...)
				before = e.undoArena[off:len(e.undoArena):len(e.undoArena)]
			}
			e.undo = append(e.undo, serialUndo{
				rec: rec, table: f.Table, key: f.Key,
				before: before, inserted: inserted, hadSpec: hadSpec,
			})
		}

		e.serialCtx = txn.FragCtx{T: t, F: f, Val: buf}
		err := f.Logic(&e.serialCtx)
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
		if t.Aborted() {
			// Roll back this transaction's own writes, newest first.
			for j := len(e.undo) - 1; j >= 0; j-- {
				u := &e.undo[j]
				switch {
				case u.inserted:
					e.store.Table(u.table).Remove(u.key)
				case rcMode:
					if u.hadSpec {
						copy(u.rec.Spec, u.before)
					} else {
						u.rec.HasSpec = false
					}
				default:
					copy(u.rec.Val, u.before)
				}
			}
			return nil
		}
	}
	return nil
}
