package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/exploratory-systems/qotp"
	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/dist"
	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload"
	"github.com/exploratory-systems/qotp/internal/workload/tpcc"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

// The batch-driven workloads (harness-ycsb, harness-tpcc, dist-ycsb) hand the
// engine whole generated batches through ExecBatch, one call after another;
// only the calls are timed. Generation, the serial reference replay and a
// forced collection happen between timed windows.

// batchSpec declares one batch-driven workload.
type batchSpec struct {
	mkGen     func() (workload.Generator, error)
	parts     int
	batchSize int
	// poolBatches > 0 generates that many batches once and cycles through
	// them: YCSB transactions touch only existing keys, so running one again
	// is the same workload on the evolved state. 0 generates fresh batches
	// for every window (TPC-C inserts the order ids its generator assigned,
	// so a transaction can run only once, and every generated one must run).
	poolBatches int
	build       func(gen workload.Generator) (*batchRig, error)
	// check, when set, is an extra consistency check on the engine's store.
	check func(gen workload.Generator, rig *batchRig) error
}

// batchRig is the system under test as the batch driver sees it.
type batchRig struct {
	eng   engine.Engine
	core  *core.Engine      // non-nil: traced windows time Plan and ExecPlanned apart
	store *storage.Store    // the store the probes read (node 0's on the cluster)
	tr    cluster.Transport // dist-ycsb only
	hash  func() uint64
	close func()
}

type arenaSetter interface{ SetArena(*txn.Arena) }

type genBatch struct {
	txns  []*txn.Txn
	arena *txn.Arena
}

// source supplies batches to the timed loop.
type source struct {
	gen    workload.Generator
	size   int
	pool   []genBatch // cyclic mode
	pos    int
	free   []*txn.Arena
	genNs  int64
	genTxn int
}

func (s *source) generate() genBatch {
	var a *txn.Arena
	if n := len(s.free); n > 0 {
		a, s.free = s.free[n-1], s.free[:n-1]
		a.Reset()
	} else {
		a = &txn.Arena{}
	}
	s.gen.(arenaSetter).SetArena(a)
	start := time.Now()
	b := genBatch{txns: s.gen.NextBatch(s.size), arena: a}
	s.genNs += time.Since(start).Nanoseconds()
	s.genTxn += s.size
	return b
}

// next returns the next batch to execute: the pool's, or a fresh one.
func (s *source) next() genBatch {
	if s.pool == nil {
		return s.generate()
	}
	b := s.pool[s.pos%len(s.pool)]
	s.pos++
	return b
}

// recycle returns a verified fresh batch's arena for reuse.
func (s *source) recycle(b genBatch) {
	if s.pool == nil {
		s.free = append(s.free, b.arena)
	}
}

// batchWindow is what one timed window measured.
type batchWindow struct {
	txns   int
	busyNs int64   // inside engine calls
	durs   []int64 // per call, ns
	planNs int64   // traced core windows
	execNs int64
	skew   []float64
}

func (w *batchWindow) rate() float64 {
	if w.busyNs == 0 {
		return 0
	}
	return float64(w.txns) / (float64(w.busyNs) / 1e9)
}

type batchRun struct {
	rc      *runCtx
	rig     *batchRig
	src     *source
	ref     *reference
	tr      *tracer
	proc    procAccum // traced runs: cost inside the timed calls of the timed windows
	ordinal uint64    // call ordinal: the trace's batch id
	aborted uint64    // engine verdicts, counted at verification
	verdict []bool
}

// window runs engine calls until they add up to d. Between two calls — off
// the clock — the next batch is generated (fresh mode) and the one just
// executed is replayed on the serial reference, so the benchmark never holds
// more than one batch of transactions beyond the pool.
func (r *batchRun) window(d time.Duration, traced bool) (batchWindow, error) {
	var w batchWindow
	for w.busyNs < d.Nanoseconds() {
		b := r.src.next()
		r.ordinal++
		var err error
		var start, mid, end time.Time
		if r.rc.traced {
			r.proc.begin()
		}
		if traced && r.rig.core != nil {
			var pb *core.PlannedBatch
			start = time.Now()
			pb, err = r.rig.core.Plan(b.txns)
			mid = time.Now()
			if err == nil {
				err = r.rig.core.ExecPlanned(pb)
			}
			end = time.Now()
			w.planNs += mid.Sub(start).Nanoseconds()
			w.execNs += end.Sub(mid).Nanoseconds()
			if err == nil {
				w.skew = append(w.skew, queueSkew(pb))
			}
		} else {
			start = time.Now()
			err = r.rig.eng.ExecBatch(b.txns)
			end = time.Now()
		}
		if r.rc.traced {
			r.proc.end()
		}
		if traced {
			r.tr.stamp(r.ordinal, func(br *batchRec) {
				br.first, br.engStart, br.planEnd, br.engDone, br.last = start, start, mid, end, end
			})
		}
		r.rc.res.Attempted += len(b.txns)
		if err != nil {
			// A deterministic engine cannot resynchronize after a failed
			// batch: its transactions count as failed and the run stops.
			r.rc.res.Failed += len(b.txns)
			return w, fmt.Errorf("batch %d: %w", r.ordinal, err)
		}
		w.durs = append(w.durs, end.Sub(start).Nanoseconds())
		w.busyNs += end.Sub(start).Nanoseconds()
		w.txns += len(b.txns)
		r.verify(b)
	}
	return w, nil
}

// verify replays one executed batch on the serial reference, comparing every
// verdict, and releases the batch.
func (r *batchRun) verify(b genBatch) {
	r.verdict = verdicts(b.txns, r.verdict)
	for _, a := range r.verdict {
		if a {
			r.aborted++
		}
	}
	if err := r.ref.apply(b.txns, r.verdict); err != nil {
		r.rc.fail("%v", err)
	}
	r.src.recycle(b)
}

// queueSkew is max/mean fragments per partition queue of one plan.
func queueSkew(pb *core.PlannedBatch) float64 {
	counts := make([]int, pb.Partitions())
	for part := range counts {
		for p := range pb.Ordered {
			counts[part] += len(pb.Ordered[p][part])
		}
	}
	return skew(counts)
}

// skew is max/mean of per-partition fragment counts (0 for no fragments).
func skew(counts []int) float64 {
	total, most := 0, 0
	for _, c := range counts {
		total += c
		most = max(most, c)
	}
	if total == 0 {
		return 0
	}
	return float64(most) * float64(len(counts)) / float64(total)
}

func runBatchWorkload(rc *runCtx, spec batchSpec) error {
	// Set-up, several times over: generator, store open + load, engine (and
	// mesh) start. The last one is kept.
	var setups []float64
	var gen workload.Generator
	var rig *batchRig
	for rc.moreSetups(setups) {
		if rig != nil {
			rig.close()
			rig, gen = nil, nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if gen, err = spec.mkGen(); err != nil {
			return err
		}
		if rig, err = spec.build(gen); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { rig.close() }()
	rc.e2e.windows("setup_s", setups)

	refGen, err := spec.mkGen()
	if err != nil {
		return err
	}
	ref, err := newReference(refGen, spec.parts)
	if err != nil {
		return err
	}
	r := &batchRun{rc: rc, rig: rig, ref: ref, tr: newTracer(""),
		src: &source{gen: gen, size: spec.batchSize}}
	for i := 0; i < spec.poolBatches; i++ {
		r.src.pool = append(r.src.pool, r.src.generate())
	}

	// Warm-up: lazy set-up and first-touch page faults finish here.
	warm, nWin, each := rc.windowPlan()
	if _, err := r.window(warm, false); err != nil {
		return err
	}

	r.proc = procAccum{} // drop the warm-up's share
	var tput, p50, p95, all []float64
	var on, off []batchWindow
	statsBefore := rig.eng.Stats().Snap(0)
	var msgs0, bytes0 uint64
	if rig.tr != nil {
		msgs0, bytes0 = rig.tr.Messages(), rig.tr.Bytes()
	}
	timedTxns, timedBatches := 0, 0
	genNsBefore := r.src.genNs
	for k := 0; k < nWin; k++ {
		runtime.GC()
		traced := rc.traced && tracedWindow(k)
		w, err := r.window(each, traced)
		if err != nil {
			return err
		}
		timedTxns += w.txns
		timedBatches += len(w.durs)
		ms := nsToMs(w.durs)
		tput = append(tput, w.rate())
		p50 = append(p50, quantile(ms, 0.50))
		p95 = append(p95, quantile(ms, 0.95))
		all = append(all, ms...)
		if traced {
			on = append(on, w)
		} else {
			off = append(off, w)
		}
	}
	statsAfter := rig.eng.Stats().Snap(0)

	rc.e2e.windows("txn_per_s", tput)
	rc.e2e.windows("lat_p50_ms", p50)
	rc.e2e.windows("lat_p95_ms", p95)

	// Output check: the engine's final state against the serial reference.
	// (The reference's hash is computed on the second CPU meanwhile.)
	wantCh := make(chan uint64, 1)
	go func() { wantCh <- ref.store.StateHash() }()
	hashStart := time.Now()
	got := rig.hash()
	hashMs := float64(time.Since(hashStart).Microseconds()) / 1e3
	if want := <-wantCh; got != want {
		rc.fail("state hash %016x, serial reference %016x after %d txns", got, want, ref.txns)
	}
	if r.aborted != ref.aborted {
		rc.fail("engine aborted %d txns, serial reference %d", r.aborted, ref.aborted)
	}
	if spec.check != nil {
		if err := spec.check(gen, rig); err != nil {
			rc.fail("%v", err)
		}
	}
	if !rc.traced {
		return nil
	}

	// Per-layer metrics.
	L := rc.layer
	r.proc.report(L, timedTxns)
	rates := func(ws []batchWindow) []float64 {
		out := make([]float64, len(ws))
		for i := range ws {
			out[i] = ws[i].rate()
		}
		return out
	}
	L.set("trace_overhead_pct", overheadPct(rates(off), rates(on)))
	L.set("lat_p99_ms", quantile(all, 0.99))
	L.set("lat_p999_ms", quantile(all, 0.999))
	dPlan := float64(statsAfter.PlanNs - statsBefore.PlanNs)
	dExec := float64(statsAfter.ExecNs - statsBefore.ExecNs)
	n := float64(timedTxns)
	planPer, execPer := dPlan/n, dExec/n
	if rig.core != nil {
		// Timed from outside, on the traced windows; the engine's own
		// counters (over all windows) are the cross-check.
		var pn, en int64
		var tn int
		var skew []float64
		for _, w := range on {
			pn, en, tn = pn+w.planNs, en+w.execNs, tn+w.txns
			skew = append(skew, w.skew...)
		}
		outPlan, outExec := float64(pn)/float64(tn), float64(en)/float64(tn)
		if math.Abs(outPlan+outExec-planPer-execPer) > 0.05*(planPer+execPer) {
			rc.note("core plan+exec timed from outside %.0f ns/txn, engine counters %.0f ns/txn", outPlan+outExec, planPer+execPer)
		}
		planPer, execPer = outPlan, outExec
		L.set("core.queue_skew", mean(skew))
	}
	L.set("core.plan_ns_per_txn", planPer)
	L.set("core.exec_ns_per_txn", execPer)
	L.set("core.plan_share", 100*planPer/(planPer+execPer))
	L.set("core.reexec_per_ktxn", 1000*float64(statsAfter.Retries-statsBefore.Retries)/n)
	L.set("core.user_aborts_per_ktxn", 1000*float64(r.aborted)/float64(ref.txns))
	L.set("storage.statehash_ms", hashMs)
	L.set("workload.gen_ns_per_txn", float64(r.src.genNs)/float64(max(r.src.genTxn, 1)))
	var busy int64
	for _, ws := range [][]batchWindow{on, off} {
		for _, w := range ws {
			busy += w.busyNs
		}
	}
	// Generation runs between the timed calls, never inside one; the share
	// says what it would add if it were on the clock.
	L.set("workload.gen_share", 100*float64(r.src.genNs-genNsBefore)/float64(busy))

	if rig.tr != nil {
		msgs := float64(rig.tr.Messages() - msgs0)
		bytes := float64(rig.tr.Bytes() - bytes0)
		// Nothing sends on the mesh outside ExecBatch, so the deltas since the
		// warm-up belong to the timed batches.
		L.set("cluster.msgs_per_txn", msgs/n)
		L.set("cluster.bytes_per_msg", bytes/msgs)
		L.set("cluster.bytes_per_txn", bytes/n)
		L.set("dist.msgs_per_batch", msgs/float64(timedBatches))
		L.set("dist.batch_ms_p99", quantile(all, 0.99))
		// Critical path of one abort-free batch: queues out, round done
		// back, commit out, ack back.
		floor := 4 * hopDelay.Seconds() * 1e3
		L.set("dist.hop_floor_ms", floor)
		L.set("dist.over_floor_ms", quantile(all, 0.5)-floor)
	}

	spans := r.tr.build()
	share, sumErr := stageShares(spans)
	L.set("trace.engine_share", share["core.plan"]+share["core.exec"]+share["engine.exec"])
	L.set("trace.stage_sum_err_pct", sumErr)
	L.set("trace.spans", float64(len(spans)))
	if err := writeTrace(rc.tracePath(), currentEnv(rc.seed, rc.seconds, rc.tiny), rc.name, spans); err != nil {
		return err
	}

	probeCodec(L, r.src.next().txns)
	probeStorage(rc, L, rig.store)
	probeLayers(rc, L)
	return nil
}

func centralRig(gen workload.Generator, parts int) (*batchRig, error) {
	st, err := qotp.Open(gen, parts)
	if err != nil {
		return nil, err
	}
	eng, err := core.New(st, core.Config{Planners: planners, Executors: executors})
	if err != nil {
		return nil, err
	}
	return &batchRig{eng: eng, core: eng, store: st, hash: st.StateHash, close: eng.Close}, nil
}

func runHarnessYCSB(rc *runCtx) error {
	return runBatchWorkload(rc, batchSpec{
		mkGen: func() (workload.Generator, error) {
			return ycsb.New(ycsb.Config{
				Records: pick[uint64](rc, 1<<20, 1<<12), ValueSize: 100, OpsPerTxn: 10,
				ReadRatio: 0.5, Theta: 0.6, MultiPartitionRatio: 0.10,
				Partitions: partitions, Seed: rc.seed,
			})
		},
		parts: partitions, batchSize: pick(rc, 4096, 256), poolBatches: pick(rc, 24, 4),
		build: func(gen workload.Generator) (*batchRig, error) { return centralRig(gen, partitions) },
	})
}

func runHarnessTPCC(rc *runCtx) error {
	const warehouses = 4
	cfg := tpcc.Config{
		Warehouses: warehouses, Seed: rc.seed,
		Items:                pick(rc, 0, 500),
		CustomersPerDistrict: pick(rc, 0, 100),
	}
	// The generator stamps a Delivery's order lines with its next transaction
	// id as the delivery date, and TPCCCheck reads date 0 as "not delivered":
	// a stream whose very first transaction (id 0) is a Delivery fails the
	// check on a correct run. Such seeds (about one in 25) are stepped over;
	// the generator seed stays a pure function of --seed.
	for {
		probe, err := tpcc.New(cfg)
		if err != nil {
			return err
		}
		if first := probe.NextBatch(1)[0]; first.Profile != tpcc.ProfileDelivery {
			break
		}
		cfg.Seed += 1 << 32
	}
	return runBatchWorkload(rc, batchSpec{
		mkGen: func() (workload.Generator, error) { return tpcc.New(cfg) },
		parts: warehouses, batchSize: pick(rc, 2048, 128),
		build: func(gen workload.Generator) (*batchRig, error) { return centralRig(gen, warehouses) },
		check: func(gen workload.Generator, rig *batchRig) error { return qotp.TPCCCheck(gen, rig.store) },
	})
}

func runDistYCSB(rc *runCtx) error {
	const nodes, workers = 4, 2
	const parts = nodes * workers
	var tables []storage.TableID
	return runBatchWorkload(rc, batchSpec{
		mkGen: func() (workload.Generator, error) {
			return ycsb.New(ycsb.Config{
				Records: pick[uint64](rc, 65536, 1<<12), ValueSize: 100, OpsPerTxn: 10,
				ReadRatio: 0.5, Theta: 0.6, MultiPartitionRatio: 0.20,
				Partitions: parts, Seed: rc.seed,
			})
		},
		parts: parts, batchSize: pick(rc, 2048, 128), poolBatches: pick(rc, 16, 4),
		build: func(gen workload.Generator) (*batchRig, error) {
			tr := cluster.NewChanTransport(nodes, hopDelay)
			eng, err := dist.NewQueCCD(tr, gen, parts, workers)
			if err != nil {
				tr.Close()
				return nil, err
			}
			tables = tables[:0]
			for _, ts := range gen.StoreConfig(parts).Tables {
				tables = append(tables, ts.ID)
			}
			return &batchRig{
				eng: eng, store: eng.Stores()[0], tr: tr,
				hash:  func() uint64 { return dist.ClusterStateHash(eng.Stores(), tables) },
				close: func() { eng.Close(); tr.Close() },
			}, nil
		},
	})
}
