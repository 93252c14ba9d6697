// Command benchmark is the repository's reference suite: seven named
// workloads, end-to-end metrics with regression bounds, per-layer metrics and
// a batch-stage trace taken from outside the layers. See README.md.
//
// The driver's contract (one workload, one pass, one JSON line last):
//
//	benchmark --workload harness-ycsb --seed 1 --seconds 8 --trace 0
//
// The whole suite, untraced then traced, every metric printed by name:
//
//	benchmark -all -seed 1 -out DIR
//
// Comparing two -all result files, and checking the suite against itself:
//
//	benchmark -compare base.json new.json
//	benchmark -selfcheck -seed 1 -out DIR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload (the driver's contract)")
		seed      = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", runSeconds, "timed seconds per run")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, wrappers off; 1: per-layer metrics and a trace file")
		all       = flag.Bool("all", false, "run every workload untraced, then traced")
		out       = flag.String("out", filepath.Join(".bench_build", "out"), "directory for results, trace files and scratch logs")
		compare   = flag.Bool("compare", false, "compare two -all result files: -compare base.json new.json")
		selfcheck = flag.Bool("selfcheck", false, "run the suite four times on this code and fail if any end-to-end metric moves past its bound")
		tiny      = flag.Bool("tiny", false, "smoke-test scale: small tables and batches (not comparable with full-scale numbers)")
		printDecl = flag.Bool("print-benchmark-json", false, "print BENCHMARK.json as declared in spec.go")
		resultTo  = flag.String("result", "", "with -workload: also write the full result (spreads, window values) to this file; how -all collects its passes")
	)
	flag.Parse()
	// Pinned, not inherited: a number measured under another GOMAXPROCS is a
	// different metric.
	runtime.GOMAXPROCS(gomaxprocs)

	var err error
	switch {
	case *printDecl:
		_, err = os.Stdout.Write(benchmarkJSON())
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		err = runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds, *tiny, *out)
	case *all:
		err = runAll(*seed, *seconds, *tiny, *out)
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace != 0, *tiny, *out, *resultTo)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned once a result has been reported as incorrect: the
// process must exit non-zero, but the result line is already out.
var errIncorrect = fmt.Errorf("outputs are incorrect or operations failed")

// runOne is the driver's contract: one pass of one workload; the last line of
// standard output is the result object.
func runOne(name string, seed uint64, seconds float64, traced, tiny bool, outDir, resultTo string) error {
	res, err := runWorkload(name, seed, seconds, traced, tiny, outDir)
	if err != nil {
		return err
	}
	if resultTo != "" {
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(resultTo, data, 0o644); err != nil {
			return err
		}
	}
	printResult(os.Stdout, res)
	if resultTo == "" {
		fmt.Println(contractLine(res))
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runSuite runs the given workloads once per pass (false: untraced,
// end-to-end numbers; true: traced, per-layer numbers and trace files) and
// writes the results to DIR/file. Every workload pass runs in a process of
// its own, exactly as the driver runs it: in one process a workload inherits
// the heap its predecessors grew, which moved dist-ycsb by 10 % depending on
// what ran before it.
func runSuite(seed uint64, seconds float64, tiny bool, outDir string, order []string, passes []bool, file string) (*suiteFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	suite := &suiteFile{Env: currentEnv(seed, seconds, tiny)}
	incorrect := false
	resultPath := filepath.Join(outDir, "pass.json")
	defer os.Remove(resultPath)
	for _, traced := range passes {
		for _, name := range order {
			os.Remove(resultPath)
			cmd := exec.Command(self,
				"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				fmt.Sprintf("-tiny=%v", tiny), "-out", outDir, "-result", resultPath)
			if traced {
				cmd.Args = append(cmd.Args, "-trace", "1")
			}
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run() // non-zero also for a reported, incorrect result
			data, err := os.ReadFile(resultPath)
			if err != nil {
				return nil, fmt.Errorf("%s: %v (no result written)", name, runErr)
			}
			var res result
			if err := json.Unmarshal(data, &res); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			incorrect = incorrect || !res.Correct || runErr != nil
			suite.Results = append(suite.Results, res)
		}
	}
	data, err := json.MarshalIndent(suite, "", " ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, file)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Println("wrote", path)
	if incorrect {
		return suite, errIncorrect
	}
	return suite, nil
}

// runAll is the whole suite: every workload untraced, then traced, and a
// summary table of the end-to-end metrics.
func runAll(seed uint64, seconds float64, tiny bool, outDir string) error {
	var order []string
	for _, w := range workloads {
		order = append(order, w.Name)
	}
	suite, err := runSuite(seed, seconds, tiny, outDir, order, []bool{false, true}, "results.json")
	if suite != nil {
		fmt.Printf("\n%-16s", "workload")
		for _, d := range endToEnd {
			fmt.Printf(" %14s", d.Name+"["+d.Unit+"]")
		}
		fmt.Printf(" %10s\n", "fail_share")
		for _, name := range order {
			r := suite.untraced(name)
			fmt.Printf("%-16s", name)
			for _, d := range endToEnd {
				fmt.Printf(" %14.4f", r.Metrics[d.Name].Value)
			}
			fmt.Printf(" %10.6f\n", float64(r.Failed)/float64(max(r.Attempted, 1)))
		}
	}
	return err
}
