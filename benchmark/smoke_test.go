package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// Run with `go test` from this directory (the benchmark is a module of its
// own, so the repository's `go test ./...` does not reach it).

// TestBenchmarkJSONMatchesDeclaration: BENCHMARK.json at the repository root
// is exactly what spec.go declares.
func TestBenchmarkJSONMatchesDeclaration(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from spec.go; regenerate with: go run . -print-benchmark-json > ../BENCHMARK.json")
	}
}

// TestDeclarationWithinContract checks the limits the driver enforces before
// a single run.
func TestDeclarationWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, m := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better=%q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	if runs := 4 + 22*len(workloads); float64(runs)*30 > 3420*1.5 {
		t.Errorf("%d driver runs cannot fit the time cap", runs)
	}
	if len(benchmarkJSON()) > 64<<10 {
		t.Error("BENCHMARK.json exceeds 64 KiB")
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, with
// verification on: outputs correct, the printed metric set equal to the
// declared one with units, trace files parsing and stage times adding up.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w.Name, 7, 0.2, traced, true, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v", w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics, %d declared", w.Name, traced, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", w.Name, traced, d.Name, v.Unit, d.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v.Value)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil || len(line.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: result line does not parse back: %v", w.Name, traced, err)
			}
			if !traced {
				continue
			}
			data, err := os.ReadFile(filepath.Join(out, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf struct{ Spans []span }
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatalf("%s: trace file: %v", w.Name, err)
			}
			if len(tf.Spans) == 0 {
				t.Errorf("%s: trace file holds no span", w.Name)
			}
			if _, sumErr := stageShares(tf.Spans); sumErr > 5 {
				t.Errorf("%s: stage self times miss the batch wall time by %.2f%%", w.Name, sumErr)
			}
			for i, s := range tf.Spans {
				if s.ID != i || s.End < s.Start || s.Parent >= i {
					t.Fatalf("%s: malformed span %+v", w.Name, s)
				}
			}
		}
	}
	left, _ := filepath.Glob(filepath.Join(out, "scratch-*"))
	if len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}
