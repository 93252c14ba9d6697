// Command qotpbench runs the paper-reproduction experiments E1–E13 and prints
// paper-style result tables; -list names the table or figure each one
// regenerates. System-level numbers (serving path, WAL, replication) come from
// the reference suite instead: bash benchmark/run.sh.
//
// Usage:
//
//	qotpbench -list
//	qotpbench -experiment E3
//	qotpbench -all -scale 2
//	qotpbench -experiment E1,E2,E13 -smoke   # CI-sized run
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/exploratory-systems/qotp/internal/bench"
)

func main() {
	var (
		expID = flag.String("experiment", "", "experiment id(s) to run, comma-separated (E1..E13)")
		all   = flag.Bool("all", false, "run every experiment")
		list  = flag.Bool("list", false, "list experiments and exit")
		scale = flag.Int("scale", 1, "workload scale multiplier (batches x batch size)")
		smoke = flag.Bool("smoke", false, "tiny CI-sized scale (overrides -scale)")
	)
	flag.Parse()

	sc := bench.DefaultScale
	sc.BatchSize *= *scale
	if *smoke {
		sc = bench.SmokeScale
	}
	if sc.Threads > runtime.GOMAXPROCS(0)*4 {
		sc.Threads = runtime.GOMAXPROCS(0) * 4
	}

	runOne := func(e bench.Experiment) {
		table, err := bench.RunExperiment(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qotpbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(table)
	}

	switch {
	case *list:
		for _, e := range bench.Experiments(sc) {
			fmt.Printf("%-4s %s\n     expectation: %s\n", e.ID, e.Artifact, e.Expect)
		}
	case *all:
		for _, e := range bench.Experiments(sc) {
			runOne(e)
		}
	case *expID != "":
		for _, id := range strings.Split(*expID, ",") {
			e, err := bench.Find(strings.TrimSpace(id), sc)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qotpbench:", err)
				os.Exit(1)
			}
			runOne(e)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
