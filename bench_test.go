// Root benchmark suite: one testing.B benchmark per paper artifact (Table 2
// rows 1–3 and the extended figures E4–E12 — each Experiment's Artifact names
// the table or figure it regenerates). Every benchmark reports committed
// transactions per second via b.ReportMetric("txns/s"); shapes (ratios
// between engines), not absolute numbers, are the reproduction target.
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkTable2Row3
// Bigger runs:     use cmd/qotpbench -scale.
package qotp

import (
	"testing"

	"github.com/exploratory-systems/qotp/internal/bench"
)

// benchScale keeps `go test -bench=.` tractable on small machines; the
// qotpbench CLI exposes larger scales for real measurements.
var benchScale = bench.Scale{Batches: 3, BatchSize: 1000, YCSBRecs: 1 << 14, Threads: 4}

// runSpecs executes each named spec as a sub-benchmark reporting txns/s and
// allocs/txn (the hot-path allocation budget; regressions show up directly in
// `go test -bench=. -benchmem` output).
func runSpecs(b *testing.B, specs []bench.NamedSpec) {
	b.Helper()
	for _, ns := range specs {
		b.Run(ns.Name, func(b *testing.B) {
			var committed, processed uint64
			var elapsed, allocs float64
			for i := 0; i < b.N; i++ {
				r, err := bench.Run(ns.Spec)
				if err != nil {
					b.Fatal(err)
				}
				committed += r.Snapshot.Committed
				elapsed += r.Snapshot.Elapsed.Seconds()
				n := r.Snapshot.Committed + r.Snapshot.UserAborts
				processed += n
				allocs += r.AllocsPerTxn * float64(n)
			}
			if elapsed > 0 {
				b.ReportMetric(float64(committed)/elapsed, "txns/s")
			}
			if processed > 0 {
				b.ReportMetric(allocs/float64(processed), "allocs/txn")
			}
		})
	}
}

func findExp(b *testing.B, id string) bench.Experiment {
	b.Helper()
	e, err := bench.Find(id, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkTable2Row1 — centralized deterministic: QueCC vs H-Store on
// 100%-multi-partition YCSB (paper: ~two orders of magnitude).
func BenchmarkTable2Row1(b *testing.B) { runSpecs(b, findExp(b, "E1").Specs) }

// BenchmarkTable2Row2 — distributed deterministic: QueCC-D vs Calvin-D on
// uniform low-contention YCSB over a 4-node simulated cluster (paper: 22x).
func BenchmarkTable2Row2(b *testing.B) { runSpecs(b, findExp(b, "E2").Specs) }

// BenchmarkTable2Row3 — centralized non-deterministic comparison: QueCC vs
// 2PL/Silo/TicToc/MVTO on 1-warehouse TPC-C (paper: ~3x over the best).
func BenchmarkTable2Row3(b *testing.B) { runSpecs(b, findExp(b, "E3").Specs) }

// BenchmarkE4_ThreadScaling — throughput vs executor count.
func BenchmarkE4_ThreadScaling(b *testing.B) { runSpecs(b, findExp(b, "E4").Specs) }

// BenchmarkE5_Contention — throughput vs zipfian theta.
func BenchmarkE5_Contention(b *testing.B) { runSpecs(b, findExp(b, "E5").Specs) }

// BenchmarkE6_MultiPartition — throughput vs % multi-partition transactions.
func BenchmarkE6_MultiPartition(b *testing.B) { runSpecs(b, findExp(b, "E6").Specs) }

// BenchmarkE7_Warehouses — TPC-C throughput vs warehouse count.
func BenchmarkE7_Warehouses(b *testing.B) { runSpecs(b, findExp(b, "E7").Specs) }

// BenchmarkE8_BatchSize — queue-engine throughput vs batch size.
func BenchmarkE8_BatchSize(b *testing.B) { runSpecs(b, findExp(b, "E8").Specs) }

// BenchmarkE9_SpecVsCons — speculative vs conservative execution (paper §3.2).
func BenchmarkE9_SpecVsCons(b *testing.B) { runSpecs(b, findExp(b, "E9").Specs) }

// BenchmarkE10_Isolation — serializable vs read-committed (paper §3.2).
func BenchmarkE10_Isolation(b *testing.B) { runSpecs(b, findExp(b, "E10").Specs) }

// BenchmarkE11_Latency — latency-profile comparison at high contention.
func BenchmarkE11_Latency(b *testing.B) { runSpecs(b, findExp(b, "E11").Specs) }

// BenchmarkE12_DistScaling — distributed scaling and the per-transaction
// cost of 2PC under injected network latency.
func BenchmarkE12_DistScaling(b *testing.B) { runSpecs(b, findExp(b, "E12").Specs) }

// TestDistTPCCInsertAllocs pins the row-slab win in storage.Table.Insert: the
// distributed TPC-C hot path creates NewOrder/Order/OrderLine rows on every
// transaction, and before slab allocation those inserts dominated the
// ~20 allocs/txn floor. With rows carved from per-partition slabs the whole
// engine (decode, execute, insert, ack) stays under 12 allocs per transaction.
// Mirrors TestCalvinSchedulerAllocs as the per-engine allocation regression
// gate.
func TestDistTPCCInsertAllocs(t *testing.T) {
	s := bench.Spec{Engine: "quecc-d", Workload: "tpcc", Threads: 2, Nodes: 2,
		Batches: 4, BatchSize: 400, WarmupBatches: 2}
	s.TPCC.Warehouses = 4
	s.TPCC.Items = 1000
	s.TPCC.CustomersPerDistrict = 200
	s.TPCC.InitialOrdersPerDistrict = 50
	s.TPCC.Seed = 7
	r, err := bench.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("quecc-d TPC-C: %.2f allocs/txn", r.AllocsPerTxn)
	if r.AllocsPerTxn >= 12 {
		t.Errorf("distributed TPC-C allocates %.2f/txn, want < 12 — row inserts must come from table slabs", r.AllocsPerTxn)
	}
}

// BenchmarkPlanningVsExecution profiles the two phases of the queue engine
// (an ablation of the paper's Figure 1 pipeline).
func BenchmarkPlanningVsExecution(b *testing.B) {
	spec := bench.Spec{
		Engine: "quecc", Workload: "ycsb",
		Threads: 4, Batches: 3, BatchSize: 2000,
	}
	spec.YCSB.Records = 1 << 14
	spec.YCSB.Theta = 0.6
	spec.YCSB.OpsPerTxn = 10
	spec.YCSB.ReadRatio = 0.5
	spec.YCSB.Seed = 1
	var plan, exec uint64
	for i := 0; i < b.N; i++ {
		r, err := bench.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		plan += r.Snapshot.PlanNs
		exec += r.Snapshot.ExecNs
	}
	if total := plan + exec; total > 0 {
		b.ReportMetric(100*float64(plan)/float64(total), "plan%")
		b.ReportMetric(100*float64(exec)/float64(total), "exec%")
	}
}

// BenchmarkEngineMicro compares all centralized engines on one canonical
// mixed workload as a quick regression signal.
func BenchmarkEngineMicro(b *testing.B) {
	for _, engine := range []string{"quecc", "hstore", "calvin", "2pl-nowait", "silo", "tictoc", "mvto"} {
		spec := bench.Spec{Engine: engine, Workload: "ycsb", Threads: 4, Batches: 2, BatchSize: 1000}
		spec.YCSB.Records = 1 << 14
		spec.YCSB.Theta = 0.8
		spec.YCSB.OpsPerTxn = 8
		spec.YCSB.ReadRatio = 0.5
		spec.YCSB.Seed = 9
		b.Run(engine, func(b *testing.B) {
			var committed, processed uint64
			var elapsed, allocs float64
			for i := 0; i < b.N; i++ {
				r, err := bench.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				committed += r.Snapshot.Committed
				elapsed += r.Snapshot.Elapsed.Seconds()
				n := r.Snapshot.Committed + r.Snapshot.UserAborts
				processed += n
				allocs += r.AllocsPerTxn * float64(n)
			}
			if elapsed > 0 {
				b.ReportMetric(float64(committed)/elapsed, "txns/s")
			}
			if processed > 0 {
				b.ReportMetric(allocs/float64(processed), "allocs/txn")
			}
		})
	}
}
