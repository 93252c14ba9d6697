package core

import (
	"testing"

	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload/tpcc"
)

// TestSpeculativeTPCCAllocs bounds the allocations of speculative execution
// on TPC-C, whose 1% logic aborts send almost every batch through
// cascading-abort repair: the repair scan and the serial re-executions reuse
// engine-owned scratch, so what is left per transaction is the storage
// slabs of inserted rows and the goroutines a batch fans out to. Batches are
// generated before the count starts, and a few warm-up batches grow the
// access logs, arenas and repair scratch to their working size.
func TestSpeculativeTPCCAllocs(t *testing.T) {
	const (
		warehouses = 4
		batchSize  = 1024
		warmup     = 4
		runs       = 16
		maxAllocs  = 0.5 // per transaction
	)
	gen := tpcc.MustNew(tpcc.Config{Warehouses: warehouses, Items: 500, CustomersPerDistrict: 100, Seed: 3})
	store := storage.MustOpen(gen.StoreConfig(warehouses))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	eng, err := New(store, Config{Planners: 1, Executors: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	batches := make([][]*txn.Txn, warmup+runs+1) // AllocsPerRun adds one warm-up call
	for i := range batches {
		batches[i] = gen.NextBatch(batchSize)
	}
	for _, b := range batches[:warmup] {
		if err := eng.ExecBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	next := warmup
	allocs := testing.AllocsPerRun(runs, func() {
		if err := eng.ExecBatch(batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if eng.Stats().Retries.Load() == 0 {
		t.Fatal("no transaction was re-executed: the batches never reached repair")
	}
	perTxn := allocs / batchSize
	t.Logf("%.3f allocs/txn, %d re-executions", perTxn, eng.Stats().Retries.Load())
	if perTxn >= maxAllocs {
		t.Errorf("%.2f allocs per speculative TPC-C txn, want < %.1f", perTxn, maxAllocs)
	}
}
