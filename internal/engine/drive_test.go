package engine_test

import (
	"errors"
	"testing"

	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

func driveGen() *ycsb.Workload {
	return ycsb.MustNew(ycsb.Config{
		Records: 1024, OpsPerTxn: 6, ReadRatio: 0.3, RMWRatio: 0.4,
		Theta: 0.9, MultiPartitionRatio: 0.5, AbortRatio: 0.1, Partitions: 4, Seed: 2718,
	})
}

func driveEngine(t *testing.T, name string, gen *ycsb.Workload) engine.Engine {
	t.Helper()
	store := storage.MustOpen(gen.StoreConfig(4))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	p, err := engine.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := p.New(store, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestDriveWatermarks pins the contract every driver relies on, over each
// shape Drive produces (synchronous, pipelined, speculating as is, and a
// non-deterministic baseline): counted from the hand-over base,
// final <= drained <= submitted at every observation point, both watermarks
// are monotone, and once drained and finalized all three are equal. The
// abort-heavy stream makes the speculating engine actually defer fixpoints.
func TestDriveWatermarks(t *testing.T) {
	for _, name := range []string{"quecc", "quecc-pipe", "quecc-spec", "silo"} {
		t.Run(name, func(t *testing.T) {
			gen := driveGen()
			eng := driveEngine(t, name, gen)
			// A batch run before hand-over: lifetime counters must not leak
			// into the driver's scale.
			if err := eng.ExecBatch(gen.NextBatch(50)); err != nil {
				t.Fatal(err)
			}
			drv := engine.Drive(eng)
			if got, want := drv.Speculating(), name == "quecc-spec"; got != want {
				t.Fatalf("Speculating() = %v, want %v", got, want)
			}
			base, baseFinal := drv.SpecStatus()
			if base != baseFinal {
				t.Fatalf("idle engine at hand-over: drained %d != final %d", base, baseFinal)
			}
			var submits, lastDrained, lastFinal uint64
			check := func(at string) {
				t.Helper()
				drained, final := drv.SpecStatus()
				drained, final = drained-base, final-base
				if final > drained || drained > submits {
					t.Fatalf("%s: final %d <= drained %d <= submits %d violated", at, final, drained, submits)
				}
				if drained < lastDrained || final < lastFinal {
					t.Fatalf("%s: watermarks went backwards: drained %d->%d final %d->%d", at, lastDrained, drained, lastFinal, final)
				}
				lastDrained, lastFinal = drained, final
			}
			for b := 0; b < 6; b++ {
				if err := drv.Submit(gen.NextBatch(80)); err != nil {
					t.Fatal(err)
				}
				submits++
				check("Submit")
				switch b % 3 {
				case 0:
					if _, err := drv.TryDrain(); err != nil {
						t.Fatal(err)
					}
					check("TryDrain")
				case 1:
					drv.WaitDrained()
					check("WaitDrained")
					if d, _ := drv.SpecStatus(); d-base != submits {
						t.Fatalf("WaitDrained returned with drained %d of %d submits", d-base, submits)
					}
				}
			}
			if err := drv.Drain(); err != nil {
				t.Fatal(err)
			}
			check("Drain")
			if err := drv.Finalize(); err != nil {
				t.Fatal(err)
			}
			check("Finalize")
			if lastDrained != submits || lastFinal != submits {
				t.Fatalf("after Drain+Finalize: drained %d final %d, want both %d", lastDrained, lastFinal, submits)
			}
		})
	}
}

// failOnce is a Pipeliner whose one submitted batch fails, reporting the
// error exactly once — like core.Engine, which clears its in-flight slot with
// the Drain/TryDrain that returned the failure.
type failOnce struct {
	engine.Engine // never called: Drive only needs the driver methods
	err           error
}

func (f *failOnce) Pipelined() bool         { return true }
func (f *failOnce) Submit([]*txn.Txn) error { return nil }
func (f *failOnce) TryDrain() (bool, error) { return true, f.Drain() }
func (f *failOnce) Drain() (err error)      { err, f.err = f.err, nil; return err }

// TestDriveKeepsExecutionError: a batch that fails in the background must
// never count as drained, and the failure must reach the driver even when the
// call that observed completion cannot return it — WaitDrained (over the real
// pipelined engine) and SpecStatus (over a fake that fails exactly once).
func TestDriveKeepsExecutionError(t *testing.T) {
	gen := driveGen()
	// A read of a key that was never loaded is an execution failure.
	bad := &txn.Txn{ID: 1}
	bad.Frags = []txn.Fragment{{Table: ycsb.TableID, Key: storage.Key(1 << 40), Access: txn.Read, Op: ycsb.OpRead}}
	bad.Finish()
	if err := gen.Registry().Resolve(bad); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		drv     engine.Speculator
		observe func(engine.Speculator)
	}{
		{"WaitDrained", engine.Drive(driveEngine(t, "quecc-pipe", gen)), func(d engine.Speculator) { d.WaitDrained() }},
		{"SpecStatus", engine.Drive(&failOnce{err: errors.New("boom")}), func(d engine.Speculator) { d.SpecStatus() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.drv.Submit([]*txn.Txn{bad}); err != nil {
				t.Fatalf("submit itself should succeed (failure is async): %v", err)
			}
			c.observe(c.drv)
			if drained, final := c.drv.SpecStatus(); drained != 0 || final != 0 {
				t.Fatalf("failed batch advanced the watermarks to %d/%d", drained, final)
			}
			if done, err := c.drv.TryDrain(); !done || err == nil {
				t.Fatalf("TryDrain after the failure = (%v, %v), want (true, the error)", done, err)
			}
			if c.drv.Drain() == nil || c.drv.Finalize() == nil || c.drv.Submit(gen.NextBatch(5)) == nil {
				t.Fatal("execution error was lost: a later Drain/Finalize/Submit succeeded")
			}
		})
	}
}
