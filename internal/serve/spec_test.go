package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

// TestSpeculativeAckThenRetraction: a client that opted into speculative
// acks must observe the provisional outcome strictly before the final one,
// and when the verdict fixpoint flips the verdict, the final outcome must
// arrive with Retracted reporting the contradiction.
//
// The aged case is the stale-watermark regression: an engine that ran batches
// before the server existed (warm-up, replay) reports lifetime watermarks, and
// a window numbered from zero would read the first served batches as final
// the instant Submit returned — Done with Speculative=false while the
// fixpoint is still blocked.
func TestSpeculativeAckThenRetraction(t *testing.T) {
	for _, ran := range []uint64{0, 3} {
		t.Run(fmt.Sprintf("engine-ran-%d-batches", ran), func(t *testing.T) {
			testSpeculativeAckThenRetraction(t, ran)
		})
	}
}

func testSpeculativeAckThenRetraction(t *testing.T, ran uint64) {
	// The speculative fake drains with every verdict committed and applies
	// abortNth at finalization: every ack is retracted.
	eng := &fakeEngine{kind: fakeSpec, drained: ran, final: ran, abortNth: 1, gate: make(chan struct{})}
	s, err := New(eng, Config{MaxBatch: 1, MaxDelay: -1, SpeculativeAcks: true})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := s.Submit(context.Background(), mkTxn(1))
	if err != nil {
		t.Fatal(err)
	}

	select {
	case <-fut.Speculative():
	case <-time.After(5 * time.Second):
		t.Fatal("speculative ack never arrived")
	}
	spec, ok := fut.SpeculativeOutcome()
	if !ok {
		t.Fatal("Speculative fired without a published speculative outcome")
	}
	if !spec.Speculative || !spec.Committed {
		t.Fatalf("speculative outcome = %+v, want provisional commit", spec)
	}
	// The engine's finalization is gated, so the final outcome cannot have
	// been produced yet: the speculative ack was observed first.
	select {
	case <-fut.Done():
		t.Fatal("final outcome resolved before finalization was allowed")
	default:
	}
	if fut.Retracted() {
		t.Fatal("retracted before finalization")
	}

	close(eng.gate)
	out := fut.Outcome()
	if out.Speculative {
		t.Error("final outcome still marked speculative")
	}
	if out.Committed || out.Err != nil {
		t.Fatalf("final outcome = %+v, want logic abort", out)
	}
	if !fut.Retracted() {
		t.Error("verdict flipped commit->abort but Retracted() is false")
	}
	if spec2, _ := fut.SpeculativeOutcome(); spec2 != spec {
		t.Error("published speculative outcome changed after finalization")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSpeculativeAckConfirmed: the common case — the fixpoint confirms the
// speculative verdict — must resolve both channels with consistent outcomes
// and no retraction.
func TestSpeculativeAckConfirmed(t *testing.T) {
	eng := &fakeEngine{kind: fakeSpec} // no aborts: finalization confirms every verdict
	s, err := New(eng, Config{MaxBatch: 1, MaxDelay: -1, SpeculativeAcks: true})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := s.Submit(context.Background(), mkTxn(1))
	if err != nil {
		t.Fatal(err)
	}
	out := fut.Outcome()
	if !out.Committed || out.Err != nil || out.Speculative {
		t.Fatalf("final outcome = %+v, want plain commit", out)
	}
	if fut.Retracted() {
		t.Error("confirmed verdict reported as retracted")
	}
	if spec, ok := fut.SpeculativeOutcome(); ok {
		if !spec.Committed || !spec.Speculative {
			t.Errorf("speculative outcome = %+v, want provisional commit", spec)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSpeculativeServeEndToEnd drives the real cross-batch engine through
// the serving layer with speculative acks on: every future must resolve, a
// retraction must never fire without a preceding speculative ack, session
// accounting must balance, and the final verdict stream must match what the
// engine would produce serially (the serve layer adds no nondeterminism).
func TestSpeculativeServeEndToEnd(t *testing.T) {
	const parts, total = 4, 1200
	mk := func() *ycsb.Workload {
		return ycsb.MustNew(ycsb.Config{
			Records: 2048, OpsPerTxn: 8, ReadRatio: 0.3, RMWRatio: 0.4,
			Theta: 0.9, MultiPartitionRatio: 0.5, AbortRatio: 0.05,
			Partitions: parts, Seed: 4242,
		})
	}
	gen := mk()
	store := storage.MustOpen(gen.StoreConfig(parts))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(store, core.Config{Planners: 2, Executors: 2, CrossBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s, err := New(eng, Config{MaxBatch: 128, MaxDelay: time.Millisecond, Block: true, SpeculativeAcks: true})
	if err != nil {
		t.Fatal(err)
	}

	sess := s.Session()
	futs := make([]*Future, 0, total)
	txns := gen.NextBatch(total) // heap-backed: serve holds the txns
	for _, tx := range txns {
		fut, err := sess.Submit(context.Background(), tx)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	committed, aborted, retracted := 0, 0, 0
	for i, fut := range futs {
		out := fut.Outcome()
		if out.Err != nil {
			t.Fatalf("future %d: engine error: %v", i, out.Err)
		}
		if out.Committed {
			committed++
		} else {
			aborted++
		}
		if spec, ok := fut.SpeculativeOutcome(); ok {
			if fut.Retracted() != (spec.Committed != out.Committed) {
				t.Fatalf("future %d: retracted=%v but spec committed=%v final committed=%v",
					i, fut.Retracted(), spec.Committed, out.Committed)
			}
		} else if fut.Retracted() {
			t.Fatalf("future %d: retracted without a speculative ack", i)
		}
		if fut.Retracted() {
			retracted++
		}
	}
	if committed+aborted != total {
		t.Fatalf("resolved %d futures, want %d", committed+aborted, total)
	}
	if aborted == 0 {
		t.Error("abort-heavy stream produced no aborts")
	}
	st := sess.Stats()
	if st.Submitted != total || st.Committed != uint64(committed) || st.Aborted != uint64(aborted) {
		t.Errorf("session stats %+v inconsistent with outcomes %d/%d", st, committed, aborted)
	}
	snap := s.Snapshot()
	if snap.Committed != uint64(committed) || snap.UserAborts != uint64(aborted) {
		t.Errorf("server stats %d/%d != outcomes %d/%d", snap.Committed, snap.UserAborts, committed, aborted)
	}
	t.Logf("end-to-end: %d committed, %d aborted, %d retracted speculative acks", committed, aborted, retracted)
}
