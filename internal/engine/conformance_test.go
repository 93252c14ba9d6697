// Package engine_test runs every protocol implementation through a shared
// conformance suite: bank invariants under contention, deterministic-engine
// state equivalence to serial batch order, and workload completeness
// accounting. This is the apples-to-apples guarantee behind every benchmark
// in the repository.
package engine_test

import (
	"fmt"
	"testing"

	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/workload"
	"github.com/exploratory-systems/qotp/internal/workload/bank"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

// factory builds an engine over a loaded store.
type factory struct {
	name          string
	deterministic bool // history equals batch serial order (hash-comparable)
	build         func(s *storage.Store) (engine.Engine, error)
}

// allFactories is the engine.Protocols table (2 planners for the queue
// engines), so a protocol added there is conformance-tested by construction.
func allFactories(workers int) []factory {
	fs := make([]factory, len(engine.Protocols))
	for i, p := range engine.Protocols {
		fs[i] = factory{p.Name, p.Deterministic, func(s *storage.Store) (engine.Engine, error) {
			return p.New(s, 2, workers, nil)
		}}
	}
	return fs
}

// runGen executes nBatches x batchSize transactions from a fresh generator
// on a fresh store under the given engine factory, returning store + engine.
func runGen(t *testing.T, f factory, mkGen func() workload.Generator, parts, nBatches, batchSize int) (*storage.Store, engine.Engine) {
	t.Helper()
	gen := mkGen()
	store := storage.MustOpen(gen.StoreConfig(parts))
	if err := gen.Load(store); err != nil {
		t.Fatalf("load: %v", err)
	}
	eng, err := f.build(store)
	if err != nil {
		t.Fatalf("build %s: %v", f.name, err)
	}
	t.Cleanup(eng.Close)
	for b := 0; b < nBatches; b++ {
		if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
			t.Fatalf("%s batch %d: %v", f.name, b, err)
		}
	}
	return store, eng
}

// TestBankInvariantAllEngines: money is conserved and no balance goes
// negative under every protocol, at high contention with frequent
// insufficient-balance aborts.
func TestBankInvariantAllEngines(t *testing.T) {
	const parts, accounts, initial = 4, 48, 200
	const nBatches, batchSize = 8, 250
	mk := func() workload.Generator {
		return bank.MustNew(bank.Config{
			Accounts: accounts, InitialBalance: initial, MaxTransfer: 150,
			Partitions: parts, Seed: 1234,
		})
	}
	for _, f := range allFactories(4) {
		t.Run(f.name, func(t *testing.T) {
			store, eng := runGen(t, f, mk, parts, nBatches, batchSize)
			if got, want := bank.TotalBalance(store), uint64(accounts*initial); got != want {
				t.Errorf("total balance %d, want %d", got, want)
			}
			if minv := bank.MinBalance(store); minv < 0 {
				t.Errorf("negative balance %d", minv)
			}
			snap := eng.Stats().Snap(1)
			total := snap.Committed + snap.UserAborts
			if total != nBatches*batchSize {
				t.Errorf("committed+aborts = %d, want %d", total, nBatches*batchSize)
			}
			if snap.UserAborts == 0 {
				t.Error("expected some insufficient-balance aborts")
			}
		})
	}
}

// TestDeterministicEnginesMatchSerial: every deterministic engine's final
// state must hash-equal single-threaded serial execution in batch order.
func TestDeterministicEnginesMatchSerial(t *testing.T) {
	const parts, nBatches, batchSize = 8, 5, 200
	mk := func() workload.Generator {
		return ycsb.MustNew(ycsb.Config{
			Records: 2048, OpsPerTxn: 8, ReadRatio: 0.3, RMWRatio: 0.4,
			Theta: 0.9, MultiPartitionRatio: 0.6, Partitions: parts, Seed: 77,
		})
	}
	serial := factory{"serial", true, func(s *storage.Store) (engine.Engine, error) {
		return core.New(s, core.Config{Planners: 1, Executors: 1})
	}}
	refStore, _ := runGen(t, serial, mk, parts, nBatches, batchSize)
	want := refStore.StateHash()
	for _, f := range allFactories(4) {
		if !f.deterministic {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			store, _ := runGen(t, f, mk, parts, nBatches, batchSize)
			if got := store.StateHash(); got != want {
				t.Errorf("state hash %x != serial %x", got, want)
			}
		})
	}
}

// TestNonDetEnginesCommitEverything: under a commutative RMW-only workload
// (increments), the final state is order-independent, so even the
// non-deterministic engines must converge to the serial state.
func TestNonDetEnginesCommitEverything(t *testing.T) {
	const parts, nBatches, batchSize = 4, 4, 150
	mk := func() workload.Generator {
		return ycsb.MustNew(ycsb.Config{
			Records: 512, OpsPerTxn: 6, ReadRatio: 0, RMWRatio: 1.0,
			Theta: 0.8, Partitions: parts, Seed: 5150,
		})
	}
	serial := factory{"serial", true, func(s *storage.Store) (engine.Engine, error) {
		return core.New(s, core.Config{Planners: 1, Executors: 1})
	}}
	refStore, _ := runGen(t, serial, mk, parts, nBatches, batchSize)
	want := refStore.StateHash()
	for _, f := range allFactories(4) {
		t.Run(f.name, func(t *testing.T) {
			store, eng := runGen(t, f, mk, parts, nBatches, batchSize)
			if got := store.StateHash(); got != want {
				t.Errorf("state hash %x != serial %x (lost update?)", got, want)
			}
			snap := eng.Stats().Snap(1)
			if snap.Committed != nBatches*batchSize {
				t.Errorf("committed %d, want %d", snap.Committed, nBatches*batchSize)
			}
		})
	}
}

// TestHighContentionRetries: at extreme skew the non-deterministic engines
// must retry (that is the phenomenon motivating the paper) while the
// deterministic ones never CC-abort.
func TestHighContentionRetries(t *testing.T) {
	const parts, nBatches, batchSize = 2, 3, 200
	mk := func() workload.Generator {
		return ycsb.MustNew(ycsb.Config{
			Records: 64, OpsPerTxn: 8, ReadRatio: 0.2, RMWRatio: 0.8,
			Theta: 0.99, Partitions: parts, Seed: 31,
		})
	}
	var nondetRetries, detRetries uint64
	for _, f := range allFactories(4) {
		_, eng := runGen(t, f, mk, parts, nBatches, batchSize)
		snap := eng.Stats().Snap(1)
		if f.deterministic {
			detRetries += snap.Retries
		} else {
			nondetRetries += snap.Retries
		}
	}
	if nondetRetries == 0 {
		t.Error("expected CC retries from the non-deterministic engines at theta=0.99")
	}
	if detRetries != 0 {
		t.Errorf("deterministic engines reported %d CC retries; they must not CC-abort (repair re-executions only count on logic aborts)", detRetries)
	}
}

// TestEngineNames ensures names are unique and stable (used as CLI keys).
func TestEngineNames(t *testing.T) {
	store := storage.MustOpen(storage.Config{Partitions: 1, Tables: []storage.TableSpec{{ID: 1, Name: "t", ValueSize: 8}}})
	seen := map[string]bool{}
	for _, f := range allFactories(1) {
		eng, err := f.build(store)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		name := eng.Name()
		if name == "" {
			t.Errorf("%s: empty Name()", f.name)
		}
		if seen[name] {
			t.Errorf("duplicate engine name %q", name)
		}
		seen[name] = true
		eng.Close()
	}
	_ = fmt.Sprintf // keep fmt for future cases
}
