package bench

import (
	"fmt"
	"strings"
	"time"
)

// Experiment is one named, reproducible experiment: a set of specs plus the
// paper artifact it regenerates.
type Experiment struct {
	ID       string
	Artifact string // the paper table/figure this regenerates
	Expect   string // the expected qualitative shape
	Specs    []NamedSpec
}

// scale shrinks default sizes so the full suite completes on small machines;
// cmd/qotpbench exposes -scale to raise it for real measurements.
type Scale struct {
	Batches   int
	BatchSize int
	YCSBRecs  uint64
	Threads   int
}

// DefaultScale targets a laptop-class run (~seconds per experiment).
var DefaultScale = Scale{Batches: 6, BatchSize: 2000, YCSBRecs: 1 << 16, Threads: 4}

// SmokeScale is the CI size: small enough that one experiment finishes in
// seconds on a shared runner, while still committing thousands of
// transactions per spec.
var SmokeScale = Scale{Batches: 3, BatchSize: 500, YCSBRecs: 1 << 13, Threads: 2}

// Experiments returns the full registry (E1–E13), sized by sc.
func Experiments(sc Scale) []Experiment {
	ycsbBase := func(theta, mpRatio float64, mpCount, ops int, readRatio float64) Spec {
		s := Spec{
			Workload: "ycsb", Threads: sc.Threads,
			Batches: sc.Batches, BatchSize: sc.BatchSize,
		}
		s.YCSB.Records = sc.YCSBRecs
		s.YCSB.Theta = theta
		s.YCSB.MultiPartitionRatio = mpRatio
		s.YCSB.MultiPartitionCount = mpCount
		s.YCSB.OpsPerTxn = ops
		s.YCSB.ReadRatio = readRatio
		s.YCSB.RMWRatio = (1 - readRatio) / 2
		s.YCSB.Seed = 42
		return s
	}
	tpccBase := func(warehouses int) Spec {
		s := Spec{
			Workload: "tpcc", Threads: sc.Threads,
			Batches: sc.Batches, BatchSize: sc.BatchSize / 2,
		}
		s.TPCC.Warehouses = warehouses
		s.TPCC.Items = 2000
		s.TPCC.CustomersPerDistrict = 300
		s.TPCC.InitialOrdersPerDistrict = 100
		s.TPCC.Seed = 42
		return s
	}
	with := func(s Spec, engine string) Spec { s.Engine = engine; return s }
	dist := func(s Spec, engine string, nodes int, latency time.Duration) Spec {
		s.Engine = engine
		s.Nodes = nodes
		s.PerHopLatency = latency
		return s
	}

	var exps []Experiment

	// E1 — Table 2 row 1: centralized QueCC vs H-Store, YCSB 100%
	// multi-partition.
	e1 := ycsbBase(0, 1.0, 4, 10, 0.2)
	exps = append(exps, Experiment{
		ID:       "E1",
		Artifact: "Table 2 row 1 (QueCC vs H-Store, YCSB multi-partition)",
		Expect:   "QueCC >> H-Store (paper: ~2 orders of magnitude at 32 cores)",
		Specs: []NamedSpec{
			{"quecc", with(e1, "quecc")},
			{"hstore", with(e1, "hstore")},
		},
	})

	// E2 — Table 2 row 2: distributed QueCC vs Calvin, YCSB uniform low
	// contention, with network latency injected so message rounds (not
	// local CPU) dominate, as on the paper's testbed. H-Store-D is included
	// as the 2PC yardstick.
	e2 := ycsbBase(0, 0.2, 2, 10, 0.5)
	e2.BatchSize = sc.BatchSize / 2
	exps = append(exps, Experiment{
		ID:       "E2",
		Artifact: "Table 2 row 2 (QueCC-D vs Calvin-D, YCSB uniform, 4 nodes, 200us hops)",
		Expect:   "QueCC-D > Calvin-D severalfold (paper: 22x); both >> 2PC",
		Specs: []NamedSpec{
			{"quecc-d", dist(e2, "quecc-d", 4, 200*time.Microsecond)},
			{"calvin-d", dist(e2, "calvin-d", 4, 200*time.Microsecond)},
			{"hstore-d", dist(e2, "hstore-d", 4, 200*time.Microsecond)},
		},
	})

	// E3 — Table 2 row 3: centralized QueCC vs non-deterministic protocols,
	// TPC-C 1 warehouse.
	e3 := tpccBase(1)
	exps = append(exps, Experiment{
		ID:       "E3",
		Artifact: "Table 2 row 3 (QueCC vs non-deterministic CC, TPC-C 1 warehouse)",
		Expect:   "QueCC >= ~3x the best non-deterministic protocol (paper: 3x)",
		Specs: []NamedSpec{
			{"quecc", with(e3, "quecc")},
			{"2pl-nowait", with(e3, "2pl-nowait")},
			{"2pl-waitdie", with(e3, "2pl-waitdie")},
			{"silo", with(e3, "silo")},
			{"tictoc", with(e3, "tictoc")},
			{"mvto", with(e3, "mvto")},
		},
	})

	// E4 — thread scaling.
	var e4 []NamedSpec
	for _, th := range []int{1, 2, 4, 8} {
		s := ycsbBase(0.6, 0, 1, 10, 0.5)
		s.Threads = th
		s.Partitions = 16
		e4 = append(e4,
			NamedSpec{fmt.Sprintf("quecc/t=%d", th), with(s, "quecc")},
			NamedSpec{fmt.Sprintf("silo/t=%d", th), with(s, "silo")},
			NamedSpec{fmt.Sprintf("2pl-nowait/t=%d", th), with(s, "2pl-nowait")},
		)
	}
	exps = append(exps, Experiment{
		ID:       "E4",
		Artifact: "Thread-scaling figure (YCSB theta=0.6)",
		Expect:   "QueCC scales with executors; lock/validation engines flatten",
		Specs:    e4,
	})

	// E5 — contention sweep.
	var e5 []NamedSpec
	for _, theta := range []float64{0, 0.6, 0.9, 0.99} {
		s := ycsbBase(theta, 0, 1, 16, 0.2)
		for _, eng := range []string{"quecc", "silo", "tictoc", "2pl-nowait"} {
			e5 = append(e5, NamedSpec{fmt.Sprintf("%s/theta=%.2f", eng, theta), with(s, eng)})
		}
	}
	exps = append(exps, Experiment{
		ID:       "E5",
		Artifact: "Contention-sweep figure (YCSB zipfian theta)",
		Expect:   "non-deterministic throughput collapses as theta rises; QueCC stays flat",
		Specs:    e5,
	})

	// E6 — multi-partition ratio sweep (H-Store's weakness).
	var e6 []NamedSpec
	for _, mp := range []float64{0, 0.01, 0.05, 0.2, 0.5, 1.0} {
		s := ycsbBase(0, mp, 4, 10, 0.2)
		e6 = append(e6,
			NamedSpec{fmt.Sprintf("quecc/mp=%.2f", mp), with(s, "quecc")},
			NamedSpec{fmt.Sprintf("hstore/mp=%.2f", mp), with(s, "hstore")},
		)
	}
	exps = append(exps, Experiment{
		ID:       "E6",
		Artifact: "Multi-partition-ratio figure",
		Expect:   "H-Store degrades sharply with %MP; QueCC insensitive",
		Specs:    e6,
	})

	// E7 — TPC-C warehouse scaling.
	var e7 []NamedSpec
	for _, w := range []int{1, 2, 4, 8} {
		s := tpccBase(w)
		for _, eng := range []string{"quecc", "silo", "2pl-nowait"} {
			e7 = append(e7, NamedSpec{fmt.Sprintf("%s/w=%d", eng, w), with(s, eng)})
		}
	}
	exps = append(exps, Experiment{
		ID:       "E7",
		Artifact: "TPC-C warehouse-scaling figure",
		Expect:   "gap narrows as warehouses (and parallelism) grow",
		Specs:    e7,
	})

	// E8 — batch-size ablation.
	var e8 []NamedSpec
	for _, bs := range []int{500, 2000, 8000, 32000} {
		s := ycsbBase(0.9, 0, 1, 10, 0.5)
		s.BatchSize = bs
		s.Batches = max(2, sc.Batches*sc.BatchSize/bs)
		e8 = append(e8, NamedSpec{fmt.Sprintf("quecc/batch=%d", bs), with(s, "quecc")})
	}
	exps = append(exps, Experiment{
		ID:       "E8",
		Artifact: "Batch-size ablation (queue engine)",
		Expect:   "throughput rises then plateaus; latency grows with batch",
		Specs:    e8,
	})

	// E9 — execution-mechanism ablation (paper §3.2) on aborting TPC-C.
	e9 := tpccBase(2)
	exps = append(exps, Experiment{
		ID:       "E9",
		Artifact: "Speculative vs conservative execution (paper §3.2)",
		Expect:   "speculative wins at the paper's 1% abort rate; conservative pays waits",
		Specs: []NamedSpec{
			{"speculative", with(e9, "quecc")},
			{"conservative", with(e9, "quecc-cons")},
		},
	})

	// E10 — isolation-level ablation (paper §3.2).
	e10 := ycsbBase(0.9, 0, 1, 16, 0.5)
	exps = append(exps, Experiment{
		ID:       "E10",
		Artifact: "Serializable vs read-committed isolation (paper §3.2)",
		Expect:   "read-committed >= serializable (reads bypass conflict ordering)",
		Specs: []NamedSpec{
			{"serializable", with(e10, "quecc")},
			{"read-committed", with(e10, "quecc-rc")},
		},
	})

	// E11 — latency profile at high contention.
	e11 := ycsbBase(0.9, 0, 1, 10, 0.5)
	exps = append(exps, Experiment{
		ID:       "E11",
		Artifact: "Latency percentiles figure (p50/p99)",
		Expect:   "deterministic: batch-bounded tail; non-deterministic: retry-driven tail",
		Specs: []NamedSpec{
			{"quecc", with(e11, "quecc")},
			{"silo", with(e11, "silo")},
			{"2pl-nowait", with(e11, "2pl-nowait")},
		},
	})

	// E12 — distributed scaling and the cost of 2PC.
	var e12 []NamedSpec
	for _, nodes := range []int{2, 4, 8} {
		s := ycsbBase(0, 0.2, 2, 10, 0.5)
		s.Partitions = 16
		s.BatchSize = sc.BatchSize / 2
		lat := 200 * time.Microsecond
		e12 = append(e12,
			NamedSpec{fmt.Sprintf("quecc-d/n=%d", nodes), dist(s, "quecc-d", nodes, lat)},
			NamedSpec{fmt.Sprintf("calvin-d/n=%d", nodes), dist(s, "calvin-d", nodes, lat)},
			NamedSpec{fmt.Sprintf("hstore-d/n=%d", nodes), dist(s, "hstore-d", nodes, lat)},
		)
	}
	exps = append(exps, Experiment{
		ID:       "E12",
		Artifact: "Distributed scaling + 2PC message cost (simulated 200us hops)",
		Expect:   "queue/calvin engines amortize batch rounds; hstore-d capped by per-txn 2PC (see msgs/txn)",
		Specs:    e12,
	})

	// E13 — distributed TPC-C with cross-node NewOrder lines. A remote order
	// line reads the supplying warehouse's item replica and updates its
	// stock, so its price is a cross-node data dependency: the deterministic
	// engines forward it in the batch-level MsgVars round, while H-Store-D
	// pays 2PC rounds per remote transaction. Sweeping the remote fraction
	// shows the forwarding round's cost staying flat as 2PC's grows.
	var e13 []NamedSpec
	for _, remote := range []float64{-1, 0.01, 0.1, 0.5} {
		s := tpccBase(8)
		s.TPCC.RemoteStockProb = remote
		label := remote
		if label < 0 {
			label = 0
		}
		lat := 200 * time.Microsecond
		e13 = append(e13,
			NamedSpec{fmt.Sprintf("quecc-d/remote=%.2f", label), dist(s, "quecc-d", 4, lat)},
			NamedSpec{fmt.Sprintf("calvin-d/remote=%.2f", label), dist(s, "calvin-d", 4, lat)},
			NamedSpec{fmt.Sprintf("hstore-d/remote=%.2f", label), dist(s, "hstore-d", 4, lat)},
		)
	}
	exps = append(exps, Experiment{
		ID:       "E13",
		Artifact: "Distributed TPC-C (4 nodes, 8 warehouses, % remote NewOrder sweep)",
		Expect:   "deterministic engines hold batch-constant msgs/txn as remote% rises; hstore-d's msgs/txn grows with it",
		Specs:    e13,
	})

	return exps
}

// Find returns the experiment with the given id.
func Find(id string, sc Scale) (Experiment, error) {
	exps := Experiments(sc)
	ids := make([]string, 0, len(exps))
	for _, e := range exps {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}

// RunExperiment executes all specs of an experiment and renders the report.
func RunExperiment(e Experiment) (string, error) {
	results, err := RunAll(e.Specs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s\n   expectation: %s\n", e.ID, e.Artifact, e.Expect)
	fmt.Fprintf(&b, "%-28s %14s %10s %10s %10s %12s %12s %12s %10s %11s %10s\n",
		"config", "txn/s", "committed", "aborts", "retries", "p50", "p99", "p999", "msgs/txn", "allocs/txn", "bytes/msg")
	for i, r := range results {
		s := r.Snapshot
		msgsPerTxn := 0.0
		if s.Committed > 0 {
			msgsPerTxn = float64(s.Messages) / float64(s.Committed)
		}
		fmt.Fprintf(&b, "%-28s %14.0f %10d %10d %10d %12v %12v %12v %10.2f %11.1f %10.0f\n",
			e.Specs[i].Name, s.Throughput, s.Committed, s.UserAborts, s.Retries, s.P50, s.P99, s.P999, msgsPerTxn,
			r.AllocsPerTxn, r.BytesPerMsg)
	}
	return b.String(), nil
}
