package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
)

// value is one reported metric: the median over the run's timed windows (or
// the single measurement, for probes), with the inter-quartile spread across
// windows and the number of windows or samples behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	IQR   float64 `json:"iqr,omitempty"`
	N     int     `json:"n,omitempty"`
	// Windows holds the per-window values behind a median, in window order.
	Windows []float64 `json:"windows,omitempty"`
}

// result is the outcome of one workload run (one pass: untraced or traced).
type result struct {
	Workload  string           `json:"workload"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Notes     []string         `json:"notes,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

// environment is recorded in every output file.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Planners   int     `json:"planners"`
	Executors  int     `json:"executors"`
	Partitions int     `json:"partitions"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Windows    int     `json:"windows"`
	Scale      string  `json:"scale"`
}

func currentEnv(seed uint64, seconds float64, tiny bool) environment {
	scale := "full"
	if tiny {
		scale = "tiny"
	}
	return environment{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Planners: planners, Executors: executors, Partitions: partitions,
		Seed: seed, Seconds: seconds, Windows: nWindows, Scale: scale,
	}
}

// suiteFile is what -all writes to DIR/results.json and -compare reads.
type suiteFile struct {
	Claim   *string     `json:"claim"` // always null: this suite measures, it claims no gain
	Env     environment `json:"env"`
	Results []result    `json:"results"`
}

func unitOf(decls []metricDecl, name string) string {
	for _, d := range decls {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

// metricSet accumulates a run's metrics against one declared list, so a
// metric the code forgets or misnames fails loudly instead of going missing.
type metricSet struct {
	decls []metricDecl
	m     map[string]value
}

func newMetricSet(decls []metricDecl) *metricSet {
	return &metricSet{decls: decls, m: make(map[string]value, len(decls))}
}

// set records a single measurement.
func (s *metricSet) set(name string, v float64) {
	s.m[name] = value{Value: v, Unit: unitOf(s.decls, name), N: 1}
}

// windows records the median over per-window values with its spread.
func (s *metricSet) windows(name string, vs []float64) {
	s.m[name] = value{Value: median(vs), Unit: unitOf(s.decls, name), IQR: iqr(vs), N: len(vs), Windows: vs}
}

// finish fills every declared metric the run did not produce with 0 (a layer
// that did no work) and returns the complete map.
func (s *metricSet) finish() map[string]value {
	for _, d := range s.decls {
		if _, ok := s.m[d.Name]; !ok {
			s.m[d.Name] = value{Unit: d.Unit}
		}
	}
	return s.m
}

// contractLine renders the one-line JSON object the driver reads from the
// last line of standard output.
func contractLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(r.Metrics))
	for k, v := range r.Metrics {
		ms[k] = mv{v.Value, v.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		panic(err)
	}
	return string(out)
}

// printResult writes every metric by name with its unit, spread and count.
func printResult(w io.Writer, r *result) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): correct=%v attempted=%d failed=%d fail_share=%.6f\n",
		r.Workload, pass, r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := r.Metrics[k]
		fmt.Fprintf(w, "  %-32s %14.4f %-7s iqr=%-12.4g n=%d", k, v.Value, v.Unit, v.IQR, v.N)
		if len(v.Windows) > 1 {
			fmt.Fprintf(w, "  windows=%.4g", v.Windows)
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
