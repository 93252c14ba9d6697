package qotp

import (
	"fmt"
	"strings"
	"testing"

	"github.com/exploratory-systems/qotp/internal/bench"
)

// TestPublicAPIRoundTrip drives the documented public API end to end for
// every protocol name.
func TestPublicAPIRoundTrip(t *testing.T) {
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			gen, err := NewYCSB(YCSBConfig{
				Records: 1024, Partitions: 4, OpsPerTxn: 6,
				ReadRatio: 0.5, RMWRatio: 0.25, Theta: 0.8, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			db, err := Open(gen, 4)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(proto, db, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if err := eng.ExecBatch(gen.NextBatch(200)); err != nil {
				t.Fatal(err)
			}
			if got := eng.Stats().Snap(1).Committed; got != 200 {
				t.Errorf("committed = %d, want 200", got)
			}
		})
	}
	if _, err := New("nonsense", nil, 1); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestTPCCCheckAPI exercises the consistency-check entry point.
func TestTPCCCheckAPI(t *testing.T) {
	gen, err := NewTPCC(TPCCConfig{
		Warehouses: 1, Items: 100, CustomersPerDistrict: 30,
		InitialOrdersPerDistrict: 10, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(gen, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewQueCC(db, QueCCOptions{Planners: 1, Executors: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for b := 0; b < 3; b++ {
		if err := eng.ExecBatch(gen.NextBatch(100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := TPCCCheck(gen, db); err != nil {
		t.Errorf("consistency: %v", err)
	}
	ygen, _ := NewYCSB(YCSBConfig{Partitions: 1})
	if err := TPCCCheck(ygen, db); err == nil {
		t.Error("TPCCCheck accepted a YCSB generator")
	}
}

// TestExperimentRegistry pins the registry to the paper's artifacts — exactly
// E1…E13, in order, with unique spec names within each experiment — and
// sanity-checks the harness: every experiment runs at tiny scale and reports
// committed work.
func TestExperimentRegistry(t *testing.T) {
	sc := bench.Scale{Batches: 1, BatchSize: 200, YCSBRecs: 1 << 12, Threads: 2}
	exps := bench.Experiments(sc)
	if len(exps) != 13 {
		t.Errorf("registry has %d experiments, want 13 (E1…E13)", len(exps))
	}
	for i, e := range exps {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Errorf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
		seen := make(map[string]bool, len(e.Specs))
		for _, ns := range e.Specs {
			if seen[ns.Name] {
				t.Errorf("%s: duplicate spec name %q", e.ID, ns.Name)
			}
			seen[ns.Name] = true
		}
	}
	if _, err := bench.Find("E99", sc); err == nil || !strings.Contains(err.Error(), "(have E1, E2, E3, E4, E5, E6, E7, E8, E9, E10, E11, E12, E13)") {
		t.Errorf("unknown-ID error must list the registry in order, got %v", err)
	}
	if testing.Short() {
		t.Skip("experiment smoke run is not short")
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			// Run only the first two specs of each experiment as a smoke
			// test; the full grid is the benchmark suite's job.
			specs := e.Specs
			if len(specs) > 2 {
				specs = specs[:2]
			}
			results, err := bench.RunAll(specs)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if r.Snapshot.Committed == 0 {
					t.Errorf("spec %s committed nothing", specs[i].Name)
				}
			}
		})
	}
}
