package core_test

import (
	"strings"
	"testing"

	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

func pipeGen(t *testing.T, parts int) *ycsb.Workload {
	t.Helper()
	return ycsb.MustNew(ycsb.Config{
		Records: 1024, OpsPerTxn: 8, ReadRatio: 0.3, RMWRatio: 0.4,
		Theta: 0.9, AbortRatio: 0.05, Partitions: parts, Seed: 424242,
	})
}

// TestSubmitRequiresPipeline: the pipelined driver is opt-in.
func TestSubmitRequiresPipeline(t *testing.T) {
	gen := pipeGen(t, 4)
	store := storage.MustOpen(gen.StoreConfig(4))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(store, core.Config{Planners: 2, Executors: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Submit(gen.NextBatch(10)); err == nil || !strings.Contains(err.Error(), "Pipeline") {
		t.Fatalf("Submit without Config.Pipeline: err=%v, want config error", err)
	}
}

// TestPipelinedMatchesSerialCore: Submit/Drain over many batches produces the
// same state hash and commit/abort accounting as serial ExecBatch, and mixing
// ExecBatch into a pipelined stream is safe (it drains first).
func TestPipelinedMatchesSerialCore(t *testing.T) {
	const parts, nBatches, batchSize = 4, 6, 200

	run := func(pipeline bool) (uint64, uint64, uint64) {
		gen := pipeGen(t, parts)
		store := storage.MustOpen(gen.StoreConfig(parts))
		if err := gen.Load(store); err != nil {
			t.Fatal(err)
		}
		eng, err := core.New(store, core.Config{Planners: 2, Executors: 2, Pipeline: pipeline})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		for b := 0; b < nBatches; b++ {
			batch := gen.NextBatch(batchSize)
			if pipeline {
				if b == nBatches/2 {
					// Mid-stream ExecBatch must drain and stay coherent.
					err = eng.ExecBatch(batch)
				} else {
					err = eng.Submit(batch)
				}
			} else {
				err = eng.ExecBatch(batch)
			}
			if err != nil {
				t.Fatalf("batch %d (pipeline=%v): %v", b, pipeline, err)
			}
		}
		if err := eng.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		snap := eng.Stats().Snap(1)
		return store.StateHash(), snap.Committed, snap.UserAborts
	}

	serialHash, serialCommitted, serialAborts := run(false)
	pipeHash, pipeCommitted, pipeAborts := run(true)
	if pipeHash != serialHash {
		t.Errorf("pipelined state hash %x != serial %x", pipeHash, serialHash)
	}
	if pipeCommitted != serialCommitted || pipeAborts != serialAborts {
		t.Errorf("pipelined committed/aborts %d/%d != serial %d/%d",
			pipeCommitted, pipeAborts, serialCommitted, serialAborts)
	}
	if total := pipeCommitted + pipeAborts; total != nBatches*batchSize {
		t.Errorf("committed+aborts = %d, want %d", total, nBatches*batchSize)
	}
}

// TestPipelineEpochAdvance: epochs (batch commits) advance exactly once per
// submitted batch, in order.
func TestPipelineEpochAdvance(t *testing.T) {
	gen := pipeGen(t, 4)
	store := storage.MustOpen(gen.StoreConfig(4))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(store, core.Config{Planners: 1, Executors: 1, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for b := 0; b < 5; b++ {
		if err := eng.Submit(gen.NextBatch(50)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Epoch(); got != 5 {
		t.Fatalf("epoch = %d, want 5", got)
	}
	// Empty submits are no-ops.
	if err := eng.Submit(nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Epoch(); got != 5 {
		t.Fatalf("epoch after empty submit = %d, want 5", got)
	}
}

// TestPipelineErrorSurfaces: an execution failure from batch k surfaces on
// the next Submit (or Drain) instead of being lost.
func TestPipelineErrorSurfaces(t *testing.T) {
	gen := pipeGen(t, 4)
	store := storage.MustOpen(gen.StoreConfig(4))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(store, core.Config{Planners: 1, Executors: 2, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// A read of a key that was never loaded is an execution failure.
	bad := &txn.Txn{ID: 1}
	bad.Frags = []txn.Fragment{{Table: ycsb.TableID, Key: storage.Key(1 << 40), Access: txn.Read, Op: ycsb.OpRead}}
	bad.Finish()
	if err := gen.Registry().Resolve(bad); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit([]*txn.Txn{bad}); err != nil {
		t.Fatalf("submit itself should succeed (failure is async): %v", err)
	}
	err1 := eng.Submit(gen.NextBatch(10))
	err2 := eng.Drain()
	if err1 == nil && err2 == nil {
		t.Fatal("missing-record failure never surfaced")
	}
}

// TestPipelinedSubmitAllocs pins the per-batch allocations of the pipelined
// driver on a one-transaction batch, the shape an idle-engine serving path
// produces: one closure per goroutine the batch fans out to (the execution
// goroutine, one planner, two executors) and nothing else — no per-batch
// completion channel or WaitGroup.
func TestPipelinedSubmitAllocs(t *testing.T) {
	const runs, maxAllocs = 200, 4
	gen := ycsb.MustNew(ycsb.Config{Records: 1024, OpsPerTxn: 4, Partitions: 4, Seed: 7})
	store := storage.MustOpen(gen.StoreConfig(4))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(store, core.Config{Planners: 1, Executors: 2, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	txns := gen.NextBatch(runs + 1) // AllocsPerRun adds one warm-up call
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := eng.Submit(txns[i : i+1]); err != nil {
			t.Fatal(err)
		}
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > maxAllocs {
		t.Errorf("%.1f allocs per 1-txn Submit+Drain, want <= %d", allocs, maxAllocs)
	}
}
