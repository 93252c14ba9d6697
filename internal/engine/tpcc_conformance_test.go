package engine_test

import (
	"testing"

	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/workload"
	"github.com/exploratory-systems/qotp/internal/workload/tpcc"
)

func tpccTestConfig(w int) tpcc.Config {
	return tpcc.Config{
		Warehouses: w, Items: 100, CustomersPerDistrict: 40,
		InitialOrdersPerDistrict: 20, Seed: 2024,
	}
}

// TestTPCCConformanceAllEngines runs the full five-profile TPC-C mix through
// every engine: deterministic engines must hash-equal serial execution;
// every engine must pass the TPC-C consistency checks; committed+aborted
// accounting must add up.
func TestTPCCConformanceAllEngines(t *testing.T) {
	const warehouses, nBatches, batchSize = 2, 6, 150
	mk := func() workload.Generator { return tpcc.MustNew(tpccTestConfig(warehouses)) }

	serial := factory{"serial", true, func(s *storage.Store) (engine.Engine, error) {
		return core.New(s, core.Config{Planners: 1, Executors: 1})
	}}
	refStore, _ := runGen(t, serial, mk, warehouses, nBatches, batchSize)
	want := refStore.StateHash()
	{
		// The serial reference itself must be consistent.
		gen := tpcc.MustNew(tpccTestConfig(warehouses))
		refStore2 := storage.MustOpen(gen.StoreConfig(warehouses))
		if err := gen.Load(refStore2); err != nil {
			t.Fatal(err)
		}
		eng, err := core.New(refStore2, core.Config{Planners: 1, Executors: 1})
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < nBatches; b++ {
			if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
				t.Fatal(err)
			}
		}
		if err := gen.CheckConsistency(refStore2); err != nil {
			t.Fatalf("serial reference violates TPC-C consistency: %v", err)
		}
	}

	for _, f := range allFactories(4) {
		t.Run(f.name, func(t *testing.T) {
			// Fresh generator per engine; CheckConsistency needs the
			// generator's shadow state, so drive it explicitly here.
			gen := tpcc.MustNew(tpccTestConfig(warehouses))
			store := storage.MustOpen(gen.StoreConfig(warehouses))
			if err := gen.Load(store); err != nil {
				t.Fatal(err)
			}
			eng, err := f.build(store)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for b := 0; b < nBatches; b++ {
				if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
			}
			if f.deterministic {
				if got := store.StateHash(); got != want {
					t.Errorf("state hash %x != serial %x", got, want)
				}
			}
			if err := gen.CheckConsistency(store); err != nil {
				t.Errorf("consistency: %v", err)
			}
			snap := eng.Stats().Snap(1)
			if snap.Committed+snap.UserAborts != nBatches*batchSize {
				t.Errorf("committed(%d)+aborts(%d) != %d", snap.Committed, snap.UserAborts, nBatches*batchSize)
			}
			if snap.UserAborts == 0 {
				t.Error("expected some invalid-item NewOrder aborts")
			}
		})
	}
}

// TestTPCCDeliveryFirstStream runs the serial reference over streams whose
// very first transaction is a Delivery. That transaction has id 0, and the
// order lines it delivers must still carry a nonzero delivery date — 0 means
// undelivered — or CheckConsistency rejects a correct run.
func TestTPCCDeliveryFirstStream(t *testing.T) {
	const warehouses, nBatches, batchSize = 2, 4, 150
	found := 0
	for seed := uint64(1); seed <= 100 && found < 3; seed++ {
		cfg := tpccTestConfig(warehouses)
		cfg.Seed = seed
		gen := tpcc.MustNew(cfg)
		store := storage.MustOpen(gen.StoreConfig(warehouses))
		if err := gen.Load(store); err != nil {
			t.Fatal(err)
		}
		batch := gen.NextBatch(batchSize)
		if batch[0].Profile != tpcc.ProfileDelivery {
			continue
		}
		found++
		eng, err := core.New(store, core.Config{Planners: 1, Executors: 1})
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < nBatches; b++ {
			if b > 0 {
				batch = gen.NextBatch(batchSize)
			}
			if err := eng.ExecBatch(batch); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, b, err)
			}
		}
		eng.Close()
		if err := gen.CheckConsistency(store); err != nil {
			t.Errorf("seed %d (Delivery-first stream): %v", seed, err)
		}
	}
	if found == 0 {
		t.Fatal("no seed in 1..100 starts its stream with a Delivery")
	}
}

// TestTPCCSingleWarehouseHighContention is the Table-2-row-3 scenario at
// test scale: one warehouse, everything fights over the same district rows.
func TestTPCCSingleWarehouseHighContention(t *testing.T) {
	const nBatches, batchSize = 4, 200
	mk := func() workload.Generator { return tpcc.MustNew(tpccTestConfig(1)) }
	serial := factory{"serial", true, func(s *storage.Store) (engine.Engine, error) {
		return core.New(s, core.Config{Planners: 1, Executors: 1})
	}}
	refStore, _ := runGen(t, serial, mk, 1, nBatches, batchSize)
	want := refStore.StateHash()
	for _, f := range allFactories(4) {
		t.Run(f.name, func(t *testing.T) {
			store, eng := runGen(t, f, mk, 1, nBatches, batchSize)
			if f.deterministic {
				if got := store.StateHash(); got != want {
					t.Errorf("state hash %x != serial %x", got, want)
				}
			}
			snap := eng.Stats().Snap(1)
			if snap.Committed == 0 {
				t.Error("nothing committed")
			}
		})
	}
}
