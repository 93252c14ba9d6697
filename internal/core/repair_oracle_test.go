package core

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
)

// oracleRollBackAbortSet is the reference for rollBackAbortSet: the
// per-record map fixpoint the log scan replaced. It groups every logged
// access by record (prev's generation before cur's, per executor), sweeps the
// groups until the abort set stops growing, and sweeps them once more to roll
// each record back to the before-image of its first abort-set write.
func oracleRollBackAbortSet(e *Engine, prev []*txn.Txn, prevGen int, cur []*txn.Txn, curGen int) (inA, tainted []bool) {
	type repairEntry struct {
		en  *accessEntry
		pos int
	}
	off := len(prev)
	byRec := make(map[*storage.Record][]repairEntry)
	for _, ex := range e.execs {
		if prev != nil {
			for i := range ex.logs[prevGen] {
				en := &ex.logs[prevGen][i]
				byRec[en.rec] = append(byRec[en.rec], repairEntry{en, int(en.t.BatchPos)})
			}
		}
		for i := range ex.logs[curGen] {
			en := &ex.logs[curGen][i]
			byRec[en.rec] = append(byRec[en.rec], repairEntry{en, off + int(en.t.BatchPos)})
		}
	}

	inA = make([]bool, off+len(cur))
	tainted = make([]bool, off+len(cur))
	for _, t := range prev {
		if t.Aborted() {
			inA[t.BatchPos] = true
		}
	}
	for _, t := range cur {
		if t.Aborted() {
			inA[off+int(t.BatchPos)] = true
		}
	}

	for changed := true; changed; {
		changed = false
		for _, seq := range byRec {
			writeTaint := false
			readTaint := false
			for _, re := range seq {
				pos := re.pos
				if writeTaint || (readTaint && re.en.write) {
					if !inA[pos] {
						inA[pos] = true
						changed = true
					}
					if !tainted[pos] {
						tainted[pos] = true
						changed = true
					}
				}
				if inA[pos] {
					if re.en.write {
						writeTaint = true
					} else {
						readTaint = true
					}
				}
			}
		}
	}

	for _, seq := range byRec {
		for _, re := range seq {
			en := re.en
			if !en.write || !inA[re.pos] {
				continue
			}
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
			break
		}
	}
	return inA, tainted
}

// repairCase is one synthetic repair input: an engine whose executors' access
// logs were written by a simulated speculative execution of prev (nil when
// the case has no predecessor) and then cur over a small, hot store.
type repairCase struct {
	e               *Engine
	prev, cur       []*txn.Txn
	prevGen, curGen int
	tables          []storage.TableID
	keys            storage.Key // keys [0, keys) of every table may exist
}

// newRepairCase builds the case a seed describes. The same seed always builds
// the same case, so the oracle and the scan each get an identical copy.
func newRepairCase(t *testing.T, seed uint64) *repairCase {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	const valSize = 8
	executors := 1 + rng.IntN(3)
	parts := executors * (1 + rng.IntN(2))
	iso := Serializable
	if rng.IntN(2) == 1 {
		iso = ReadCommitted
	}
	loaded := storage.Key(1 + rng.IntN(6)) // keys every table starts with
	insertable := storage.Key(rng.IntN(4)) // further keys only inserts create
	c := &repairCase{tables: []storage.TableID{1, 2}, keys: loaded + insertable}
	store := storage.MustOpen(storage.Config{Partitions: parts, Tables: []storage.TableSpec{
		{ID: 1, Name: "a", ValueSize: valSize}, {ID: 2, Name: "b", ValueSize: valSize},
	}})
	for _, id := range c.tables {
		for k := storage.Key(0); k < loaded; k++ {
			var v [valSize]byte
			v[0] = byte(rng.Uint32())
			store.Table(id).Insert(k, v[:])
		}
	}
	e, err := New(store, Config{Planners: 1, Executors: executors, Isolation: iso})
	if err != nil {
		t.Fatal(err)
	}
	c.e = e

	c.curGen = rng.IntN(2)
	c.prevGen = c.curGen ^ 1
	if rng.IntN(2) == 1 {
		c.prev = c.execBatch(rng, c.prevGen, loaded)
	}
	c.cur = c.execBatch(rng, c.curGen, loaded)
	return c
}

// execBatch generates one batch and logs its accesses into generation gen in
// priority order, applying each write to the store the way the speculative
// executor does (read-committed writes go to the speculative slot). A logic
// abort is decided at a random fragment; the fragments after it may or may
// not have run, as in the executor, where skipping them depends on timing.
func (c *repairCase) execBatch(rng *rand.Rand, gen int, loaded storage.Key) []*txn.Txn {
	e := c.e
	txns := make([]*txn.Txn, 1+rng.IntN(12))
	for i := range txns {
		tx := &txn.Txn{ID: uint64(i), BatchPos: uint32(i), Frags: make([]txn.Fragment, 1+rng.IntN(4))}
		for fi := range tx.Frags {
			f := &tx.Frags[fi]
			f.Table = c.tables[rng.IntN(len(c.tables))]
			// Reads and writes may also hit an insertable key, which they
			// find only once an earlier insert created it.
			f.Key = storage.Key(rng.IntN(int(c.keys)))
			switch r := rng.IntN(10); {
			case r < 2 && c.keys > loaded:
				f.Access = txn.Insert
				f.Key = loaded + storage.Key(rng.IntN(int(c.keys-loaded)))
			case r < 5:
				f.Access = txn.Read
			case r < 7:
				f.Access = txn.Update
			default:
				f.Access = txn.ReadModifyWrite
			}
		}
		tx.Finish()
		txns[i] = tx
	}
	for _, ex := range e.execs {
		ex.logs[gen] = ex.logs[gen][:0]
		ex.arenas[gen] = ex.arenas[gen][:0]
	}
	rcMode := e.cfg.Isolation == ReadCommitted
	for _, tx := range txns {
		abortAt := -1
		if rng.IntN(4) == 0 {
			abortAt = rng.IntN(len(tx.Frags))
		}
		for fi := range tx.Frags {
			if fi > abortAt && abortAt >= 0 && rng.IntN(2) == 0 {
				break // skipped after the abort
			}
			f := &tx.Frags[fi]
			ex := e.execs[e.store.PartitionOf(f.Key)%len(e.execs)]
			table := e.store.Table(f.Table)
			var rec *storage.Record
			inserted := false
			if f.Access == txn.Insert {
				rec, inserted = table.Insert(f.Key, nil)
			} else if rec = table.Get(f.Key); rec == nil {
				continue // an insert of this key was never executed
			}
			buf := rec.Val
			hadSpec := false
			if rcMode && f.Access != txn.Insert && f.Access.IsWrite() {
				if !rec.HasSpec {
					rec.Spec = append(rec.Spec[:0], rec.Val...)
					rec.HasSpec = true
				} else {
					hadSpec = true
				}
				buf = rec.Spec
			} else if rcMode && f.Access != txn.Insert && rec.HasSpec {
				buf = rec.Spec
			}
			if !f.Access.IsWrite() {
				ex.logs[gen] = append(ex.logs[gen], accessEntry{rec: rec, t: tx, frag: f})
			} else {
				var before []byte
				if !inserted {
					arena := ex.arenas[gen]
					off := len(arena)
					arena = append(arena, buf...)
					ex.arenas[gen] = arena
					before = arena[off : off+len(buf) : off+len(buf)]
				}
				ex.logs[gen] = append(ex.logs[gen], accessEntry{
					rec: rec, t: tx, frag: f, write: true,
					inserted: inserted, hadSpec: hadSpec, before: before,
				})
				buf[rng.IntN(len(buf))] = byte(rng.Uint32())
			}
			if fi == abortAt {
				tx.MarkAborted()
			}
		}
	}
	return txns
}

// checkRepairScan builds the seed's case twice and requires the log scan and
// the map-fixpoint oracle to agree on the abort set, the taint set and every
// record's post-rollback state.
func checkRepairScan(t *testing.T, seed uint64) {
	want, got := newRepairCase(t, seed), newRepairCase(t, seed)
	wantA, wantTainted := oracleRollBackAbortSet(want.e, want.prev, want.prevGen, want.cur, want.curGen)
	got.e.rollBackAbortSet(got.prev, got.prevGen, got.cur, got.curGen)
	if len(got.e.inA) != len(wantA) || len(got.e.tainted) != len(wantTainted) {
		t.Fatalf("seed %d: scan marks %d/%d positions, oracle %d", seed, len(got.e.inA), len(got.e.tainted), len(wantA))
	}
	for pos := range wantA {
		if got.e.inA[pos] != wantA[pos] || got.e.tainted[pos] != wantTainted[pos] {
			t.Fatalf("seed %d pos %d (prev=%d txns): scan inA=%v tainted=%v, oracle inA=%v tainted=%v",
				seed, pos, len(want.prev), got.e.inA[pos], got.e.tainted[pos], wantA[pos], wantTainted[pos])
		}
	}
	for _, id := range want.tables {
		for k := storage.Key(0); k < want.keys; k++ {
			w, g := want.e.store.Table(id).Get(k), got.e.store.Table(id).Get(k)
			switch {
			case (w == nil) != (g == nil):
				t.Fatalf("seed %d table %d key %d: scan present=%v, oracle present=%v", seed, id, k, g != nil, w != nil)
			case w == nil:
			case !bytes.Equal(w.Val, g.Val) || w.HasSpec != g.HasSpec || !bytes.Equal(w.Spec, g.Spec):
				t.Fatalf("seed %d table %d key %d: scan Val=%x Spec=%x HasSpec=%v, oracle Val=%x Spec=%x HasSpec=%v",
					seed, id, k, g.Val, g.Spec, g.HasSpec, w.Val, w.Spec, w.HasSpec)
			}
		}
	}
}

// FuzzRepairScan checks the repair log scan against the map-fixpoint oracle
// on random access logs: one to three executors over a hot key range, reads,
// writes and inserts, random logic aborts, both isolation levels, with and
// without a pending predecessor batch. The seeded corpus runs under plain
// go test.
func FuzzRepairScan(f *testing.F) {
	for seed := range uint64(500) {
		f.Add(seed)
	}
	f.Fuzz(checkRepairScan)
}
