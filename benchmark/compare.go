package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

func loadSuite(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// untraced returns the end-to-end result of one workload.
func (s *suiteFile) untraced(workload string) *result {
	for i := range s.Results {
		if r := &s.Results[i]; r.Workload == workload && !r.Traced {
			return r
		}
	}
	return nil
}

// verdict classifies one end-to-end metric of one workload. worse is the
// relative change in the metric's bad direction (positive: it got worse);
// spread is the wider of the two runs' inter-quartile spreads relative to
// their medians. A spread wider than the bound cannot resolve a change of the
// bound's size, so it is reported as such rather than as "same".
func verdict(d metricDecl, base, next value) (ratio, spread float64, word string) {
	if base.Value == 0 {
		return 0, 0, "unresolved"
	}
	ratio = next.Value / base.Value
	worse := ratio - 1
	if d.Better == "higher" {
		worse = -worse
	}
	spread = max(base.IQR/base.Value, next.IQR/max(next.Value, 1e-300))
	switch {
	case spread > d.Bound:
		word = "unresolved"
	case worse > d.Bound:
		word = "worse"
	case worse < -d.Bound:
		word = "better"
	default:
		word = "same"
	}
	return ratio, spread, word
}

// compareSuites prints, per workload and end-to-end metric, base, new, their
// ratio, the bound and the verdict, and returns the verdicts it counted.
func compareSuites(w io.Writer, base, next *suiteFile) map[string]int {
	counts := make(map[string]int)
	fmt.Fprintf(w, "%-16s %-12s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "spread", "verdict")
	for _, wl := range workloads {
		b, n := base.untraced(wl.Name), next.untraced(wl.Name)
		if b == nil || n == nil {
			fmt.Fprintf(w, "%-16s missing from one of the files\n", wl.Name)
			counts["unresolved"]++
			continue
		}
		for _, d := range endToEnd {
			ratio, spread, word := verdict(d, b.Metrics[d.Name], n.Metrics[d.Name])
			counts[word]++
			fmt.Fprintf(w, "%-16s %-12s %14.4f %14.4f %8.4f %7.2f %7.3f  %s\n",
				wl.Name, d.Name, b.Metrics[d.Name].Value, n.Metrics[d.Name].Value, ratio, d.Bound, spread, word)
		}
		// fail_share must not rise; it is expected to be 0.
		bs := float64(b.Failed) / float64(max(b.Attempted, 1))
		ns := float64(n.Failed) / float64(max(n.Attempted, 1))
		word := "same"
		if ns > bs || (!n.Correct && b.Correct) {
			word = "worse"
		}
		counts[word]++
		fmt.Fprintf(w, "%-16s %-12s %14.6f %14.6f %8s %7s %7s  %s\n", wl.Name, "fail_share", bs, ns, "-", "0", "-", word)
	}
	return counts
}

func runCompare(w io.Writer, basePath, newPath string) error {
	base, err := loadSuite(basePath)
	if err != nil {
		return err
	}
	next, err := loadSuite(newPath)
	if err != nil {
		return err
	}
	if base.Env != next.Env {
		fmt.Fprintf(w, "note: environments differ\n  base %+v\n  new  %+v\n", base.Env, next.Env)
	}
	counts := compareSuites(w, base, next)
	fmt.Fprintf(w, "better=%d same=%d worse=%d unresolved=%d\n", counts["better"], counts["same"], counts["worse"], counts["unresolved"])
	if counts["worse"] > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", counts["worse"])
	}
	return nil
}

// runSelfcheck checks the suite against itself: four untraced passes on this
// code in the order forward, reverse, reverse, forward (workload order), the
// forward pair averaged against the reverse pair. Averaging two passes per side
// and mirroring their positions keeps the host's slow drift from reading as a
// change. It fails if any end-to-end metric differs between the sides by more
// than its bound, in either direction.
func runSelfcheck(seed uint64, seconds float64, tiny bool, outDir string) error {
	var forward []string
	for _, wl := range workloads {
		forward = append(forward, wl.Name)
	}
	reverse := slices.Clone(forward)
	slices.Reverse(reverse)
	var passes [4]*suiteFile
	for i, order := range [][]string{forward, reverse, reverse, forward} {
		var err error
		passes[i], err = runSuite(seed, seconds, tiny, outDir, order, []bool{false}, fmt.Sprintf("selfcheck-%d.json", i+1))
		if err != nil {
			return err
		}
	}
	counts := compareSuites(os.Stdout, averaged(passes[0], passes[3]), averaged(passes[1], passes[2]))
	if moved := counts["worse"] + counts["better"]; moved > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) moved past their bound between runs of the same code (files in %s)", moved, filepath.Clean(outDir))
	}
	if counts["unresolved"] > 0 {
		fmt.Printf("selfcheck: %d metric(s) unresolved: within-run spread wider than the bound\n", counts["unresolved"])
	}
	fmt.Println("selfcheck: passed")
	return nil
}

// averaged merges two passes of the same workloads: each metric becomes the
// mean of the two values, with the wider of the two within-run spreads.
func averaged(a, b *suiteFile) *suiteFile {
	out := &suiteFile{Env: a.Env}
	for _, ra := range a.Results {
		rb := b.untraced(ra.Workload)
		merged := result{
			Workload: ra.Workload, Correct: ra.Correct && rb.Correct,
			Attempted: ra.Attempted + rb.Attempted, Failed: ra.Failed + rb.Failed,
			Metrics: make(map[string]value),
		}
		for name, va := range ra.Metrics {
			vb := rb.Metrics[name]
			merged.Metrics[name] = value{Value: (va.Value + vb.Value) / 2, Unit: va.Unit, IQR: max(va.IQR, vb.IQR), N: va.N + vb.N}
		}
		out.Results = append(out.Results, merged)
	}
	return out
}
