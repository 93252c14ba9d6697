package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/exploratory-systems/qotp"
	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/obs"
	"github.com/exploratory-systems/qotp/internal/repl"
	"github.com/exploratory-systems/qotp/internal/serve"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/wal"
	"github.com/exploratory-systems/qotp/internal/workload"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

// The client-driven workloads (serve-wal-*, serve-ha) submit single
// transactions through the serving path. One goroutine generates load, one
// collects Futures in submission order (the former resolves them in that
// order); concurrency comes from outstanding Futures, never from more
// goroutines than the host has CPUs.

// Former tuning shared by every serve workload.
const (
	maxBatch   = 1024
	maxDelay   = time.Millisecond
	maxPending = 4096
	groupEvery = 8 // SyncGroup: one fsync per 8 batches

	// An open-loop window is invalid when the generator's p99 lateness
	// exceeds this (it could not keep the schedule) or when arrivals worth
	// 50 ms are still unresolved at the window's end (the backlog grows).
	// Latency is timed from the due instant, so lateness below the limit is
	// charged to the latency metrics, as an in-process client would see it.
	maxGenLagMs = 5.0
)

type serveSpec struct {
	rate   float64 // open loop: arrivals per second; 0 selects the closed loop
	window int     // closed loop: outstanding Futures
	ha     bool    // the replicated stack over real sockets
}

func serveWAL(rate float64) serveSpec { return serveSpec{rate: rate, window: 2048} }
func serveHA() serveSpec              { return serveSpec{window: 512, ha: true} }

// serveRig is one started serving stack.
type serveRig struct {
	gen    workload.Generator
	store  *storage.Store
	eng    *core.Engine
	srv    *serve.Server
	reg    *obs.Registry
	submit func(context.Context, *txn.Txn) (*serve.Future, error)

	fs     *countingFS   // traced runs: the leader log's filesystem seam
	logger *tracedLogger // traced runs
	leader *repl.Leader  // serve-ha
	mesh   *cluster.LoopbackTCP
	logDir string   // the WAL (serve-wal) or the leader's log (serve-ha)
	repDir []string // serve-ha: the followers' logs

	closers []func() error // in start order; close runs them in reverse
}

func (r *serveRig) close() error {
	var first error
	for i := len(r.closers) - 1; i >= 0; i-- {
		if err := r.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	r.closers = nil
	return first
}

func ycsbServeGen(rc *runCtx) (workload.Generator, error) {
	return ycsb.New(ycsb.Config{
		Records: pick[uint64](rc, 65536, 1<<12), ValueSize: 100, OpsPerTxn: 10,
		ReadRatio: 0.5, Theta: 0.6, MultiPartitionRatio: 0.10,
		Partitions: partitions, Seed: rc.seed,
	})
}

// startServe brings the whole stack up in dir: store open + load, log (and
// replication mesh, followers, leader), engine, former, and for serve-ha the
// TCP listener and the failover client. tr is nil on untraced runs, which
// hand the layers the real objects with no wrapper in between.
func startServe(rc *runCtx, spec serveSpec, dir string, tr *tracer) (rig *serveRig, err error) {
	rig = &serveRig{reg: obs.New()}
	defer func() {
		if err != nil {
			_ = rig.close()
		}
	}()
	if rig.gen, err = ycsbServeGen(rc); err != nil {
		return nil, err
	}
	if rig.store, err = qotp.Open(rig.gen, partitions); err != nil {
		return nil, err
	}
	wopts := wal.Options{Sync: wal.SyncGroup, GroupEvery: groupEvery}
	ropts := wopts // followers log on the plain filesystem
	if tr != nil {
		rig.fs = &countingFS{FS: wal.OSFS, tr: tr}
		wopts.FS = rig.fs
	}
	var logger serve.BatchLogger
	if spec.ha {
		if rig.mesh, err = cluster.StartLoopbackTCP(3); err != nil {
			return nil, err
		}
		rig.closers = append(rig.closers, func() error { rig.mesh.Close(); return nil })
		for id := 1; id <= 2; id++ {
			fdir := filepath.Join(dir, fmt.Sprintf("follower%d", id))
			f, ferr := repl.StartFollower(rig.mesh, id, 0, repl.FollowerOptions{Dir: fdir, WAL: ropts})
			if ferr != nil {
				return nil, ferr
			}
			rig.repDir = append(rig.repDir, fdir)
			rig.closers = append(rig.closers, f.Close)
		}
		rig.logDir = filepath.Join(dir, "leader")
		rig.leader, err = repl.OpenLeader(rig.logDir, rig.mesh, 0, []int{1, 2}, repl.Options{
			Ack: repl.AckWaitK, WaitFor: 1, WAL: wopts, Metrics: rig.reg,
		})
		if err != nil {
			return nil, err
		}
		rig.closers = append(rig.closers, rig.leader.Close)
		logger = rig.leader
	} else {
		rig.logDir = filepath.Join(dir, "wal")
		w, werr := wal.Open(rig.logDir, wopts)
		if werr != nil {
			return nil, werr
		}
		rig.closers = append(rig.closers, w.Close)
		logger = w
	}
	rig.eng, err = core.New(rig.store, core.Config{Planners: planners, Executors: executors, Pipeline: true})
	if err != nil {
		return nil, err
	}
	var eng engine.Engine = rig.eng
	if tr != nil {
		rig.logger = &tracedLogger{inner: logger, tr: tr}
		logger = rig.logger
		eng = &tracedEngine{inner: rig.eng, tr: tr}
	}
	rig.srv, err = serve.New(eng, serve.Config{
		MaxBatch: maxBatch, MaxDelay: maxDelay, MaxPending: maxPending, Block: true,
		WAL: logger, Metrics: rig.reg,
	})
	if err != nil {
		return nil, err
	}
	rig.closers = append(rig.closers, func() error {
		err := rig.srv.Close() // drains every accepted submission first
		rig.eng.Close()
		return err
	})
	if !spec.ha {
		sess := rig.srv.Session()
		rig.submit = sess.Submit
		return rig, nil
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tcp := serve.ServeTCP(lis, rig.srv, rig.gen.Registry())
	cli, err := qotp.DialFailover(qotp.FailoverOptions{Addrs: []string{tcp.Addr().String()}, ClientID: 1})
	if err != nil {
		tcp.Close()
		return nil, err
	}
	rig.submit = cli.Submit
	// Closed before the former: the client first (its Futures are all
	// resolved by then), then the listener.
	rig.closers = append(rig.closers, func() error { tcp.Close(); return nil }, cli.Close)
	return rig, nil
}

// pending is one submitted transaction on its way to the collector.
type pending struct {
	fut   *serve.Future
	t0    time.Time // latency origin: due time (open loop) or Submit entered
	enter time.Time // Submit entered
}

// collector waits for Futures in submission order and files each completion
// under the timed window it completed in.
type collector struct {
	start  time.Time // first timed window begins
	each   time.Duration
	latNs  [][]int64 // per window
	traced []bool    // per window: client-side trace stamps on
	tr     *tracer
	tokens chan struct{} // closed loop: one token back per completion

	done int // Futures observed, warm-up and failures included
	// observed mirrors done for the generator: a pooled transaction may be
	// handed out again only once its previous Future has been observed.
	observed atomic.Int64
	warmDone int // of those, before the first window
	failed   int
	firstErr error

	curSeq  uint64 // traced: the batch whose completions are being observed
	curLast time.Time
	seen    int
}

func (c *collector) run(in <-chan pending, finished chan<- struct{}) {
	defer close(finished)
	for p := range in {
		out := p.fut.Outcome()
		now := time.Now()
		c.done++
		c.observed.Store(int64(c.done))
		if c.tokens != nil {
			c.tokens <- struct{}{}
		}
		if out.Err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = out.Err
			}
			continue
		}
		d := now.Sub(c.start)
		if d < 0 {
			c.warmDone++
			continue
		}
		k := int(d / c.each)
		if k >= len(c.latNs) {
			continue // the drain after the last window
		}
		c.latNs[k] = append(c.latNs[k], now.Sub(p.t0).Nanoseconds())
		if !c.traced[k] {
			continue
		}
		// Client-side stamps of the trace: the first accepted Submit and the
		// last observed Future of every batch, and one transaction in 64.
		if out.Batch != c.curSeq {
			c.flush()
			c.curSeq = out.Batch
			c.tr.stamp(out.Batch, func(r *batchRec) { r.first = p.enter })
		}
		c.curLast = now
		if c.seen++; c.seen%txnSampleEvery == 0 {
			c.tr.sampleTxn(out.Batch, p.enter, now)
		}
	}
	c.flush()
}

func (c *collector) flush() {
	if c.curSeq != 0 {
		last := c.curLast
		c.tr.stamp(c.curSeq, func(r *batchRec) { r.last = last })
	}
	c.curSeq = 0
}

// loadStats is what the load generator itself measured.
type loadStats struct {
	submitted  int // Submit calls
	submitErrs int
	firstErr   error
	submitNs   int64     // inside accepted Submit calls
	lagNs      [][]int64 // open loop, per window: Submit entered minus due
	depthMax   int       // sampled QueueDepth
	lagMax     uint64    // serve-ha: sampled follower lag in batches
}

// pause sleeps for about d in the kernel. time.Sleep would round a
// sub-millisecond wait up to the Go netpoller's one-millisecond granularity
// whenever the process is otherwise idle, which at 20000 txn/s is twenty
// arrivals late.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(min(d, 200*time.Microsecond)))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only re-checks the clock
}

// generate drives the stack from t0 until end: open loop at spec.rate with
// each transaction timed from its due instant, or closed loop holding
// spec.window Futures outstanding.
func generate(ctx context.Context, spec serveSpec, rig *serveRig, pool []*txn.Txn, col *collector, tr *tracer, t0, end time.Time, inflight chan<- pending) loadStats {
	ls := loadStats{lagNs: make([][]int64, len(col.latNs))}
	curWin := -1
	for {
		now := time.Now()
		if !now.Before(end) {
			return ls
		}
		if d := now.Sub(col.start); d >= 0 && int(d/col.each) != curWin {
			curWin = int(d / col.each)
			if tr != nil {
				tr.on.Store(col.traced[curWin])
			}
		}
		accepted := ls.submitted - ls.submitErrs
		if accepted-int(col.observed.Load()) >= len(pool) {
			pause(time.Millisecond) // every pooled transaction is still in flight
			continue
		}
		origin := now
		if spec.rate > 0 {
			due := t0.Add(time.Duration(float64(ls.submitted) / spec.rate * float64(time.Second)))
			if wait := due.Sub(now); wait > 0 {
				pause(wait)
				continue
			}
			origin = due
			if curWin >= 0 {
				ls.lagNs[curWin] = append(ls.lagNs[curWin], now.Sub(due).Nanoseconds())
			}
		} else {
			<-col.tokens
			now = time.Now()
			origin = now
		}
		t := pool[accepted%len(pool)]
		if spec.ha {
			t.ClientSeq = 0 // the failover client stamps a fresh identity
		}
		fut, err := rig.submit(ctx, t)
		ls.submitted++
		if err != nil {
			ls.submitErrs++
			if ls.firstErr == nil {
				ls.firstErr = err
			}
			if col.tokens != nil {
				col.tokens <- struct{}{}
			}
			if ls.submitErrs > 1000 {
				return ls // the serving path is dead
			}
			continue
		}
		ls.submitNs += time.Since(now).Nanoseconds()
		inflight <- pending{fut: fut, t0: origin, enter: now}
		if ls.submitted%64 == 0 {
			ls.depthMax = max(ls.depthMax, rig.srv.QueueDepth())
		}
		if rig.leader != nil && ls.submitted%4096 == 0 {
			next := rig.leader.NextEpoch()
			for f := 1; f <= 2; f++ {
				if _, acked := rig.leader.FollowerState(f); next > acked {
					ls.lagMax = max(ls.lagMax, next-acked)
				}
			}
		}
	}
}

func runServe(rc *runCtx, spec serveSpec) error {
	ctx := context.Background()
	var tr *tracer
	if rc.traced {
		tr = newTracer("wal.log")
		if spec.ha {
			tr.logName = "repl.log"
		}
	}
	// Set-up, several times over; the last stack is kept.
	var setups []float64
	var rig *serveRig
	for i := 0; rc.moreSetups(setups); i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return err
			}
			runtime.GC()
		}
		start := time.Now()
		var err error
		if rig, err = startServe(rc, spec, filepath.Join(rc.scratch, fmt.Sprintf("rig%d", i)), tr); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { _ = rig.close() }()
	rc.e2e.windows("setup_s", setups)

	// The transaction pool: generated once, cycled through (the generator
	// hands a pooled transaction out again only after the collector has
	// observed its previous Future; the pool is far larger than anything
	// outstanding, so that never makes it wait).
	poolN := pick(rc, 32768, 2048)
	rig.gen.(arenaSetter).SetArena(&txn.Arena{})
	genStart := time.Now()
	pool := workload.GenStream(rig.gen, poolN, maxBatch)
	genNs := time.Since(genStart).Nanoseconds()

	warm, nWin, each := rc.windowPlan()
	col := &collector{each: each, latNs: make([][]int64, nWin), traced: make([]bool, nWin), tr: tr}
	for k := range col.traced {
		col.traced[k] = rc.traced && tracedWindow(k)
	}
	if spec.rate == 0 {
		col.tokens = make(chan struct{}, spec.window)
		for i := 0; i < spec.window; i++ {
			col.tokens <- struct{}{}
		}
	}
	// Sized to what can be outstanding: the queue, the batches in flight and
	// a blocked submitter never add up to it, so the generator never waits
	// on the collector.
	inflight := make(chan pending, 4*maxPending)
	finished := make(chan struct{})
	runtime.GC()
	var proc procAccum
	if rc.traced {
		proc.begin()
	}
	statsBefore := rig.eng.Stats().Snap(0)
	t0 := time.Now()
	col.start = t0.Add(warm)
	end := col.start.Add(time.Duration(nWin) * each)
	go col.run(inflight, finished)
	ls := generate(ctx, spec, rig, pool, col, tr, t0, end, inflight)
	close(inflight)
	<-finished
	wall := time.Since(t0)
	if tr != nil {
		tr.on.Store(false)
	}
	statsAfter := rig.eng.Stats().Snap(0)
	if rc.traced {
		proc.end()
	}

	accepted := ls.submitted - ls.submitErrs
	rc.res.Attempted += ls.submitted
	rc.res.Failed += ls.submitErrs + col.failed + (accepted - col.done)
	if ls.firstErr != nil {
		rc.note("first Submit error: %v", ls.firstErr)
	}
	if col.firstErr != nil {
		rc.note("first Future error: %v", col.firstErr)
	}

	// Per-window end-to-end numbers. An open-loop window whose generator ran
	// late or whose backlog is still large at its end is reported invalid
	// rather than averaged in.
	var tput, p50, p95, lagP99, all []float64
	var onRate, offRate []float64
	invalid, backlogMax, cum := 0, 0, col.warmDone
	timedTxns := 0
	for k := 0; k < nWin; k++ {
		n := len(col.latNs[k])
		cum += n
		timedTxns += n
		if n == 0 {
			return fmt.Errorf("window %d completed nothing", k)
		}
		rate := float64(n) / each.Seconds()
		if col.traced[k] {
			onRate = append(onRate, rate)
		} else {
			offRate = append(offRate, rate)
		}
		if spec.rate > 0 {
			winEnd := col.start.Add(time.Duration(k+1) * each)
			due := int(winEnd.Sub(t0).Seconds()*spec.rate) + 1
			backlog := due - cum - col.failed
			backlogMax = max(backlogMax, backlog)
			lag := quantile(nsToMs(ls.lagNs[k]), 0.99)
			lagP99 = append(lagP99, lag)
			if lag > maxGenLagMs || float64(backlog) > 0.05*spec.rate {
				invalid++
				rc.note("window %d invalid: generator lag p99 %.3f ms, backlog %d", k, lag, backlog)
				continue
			}
		}
		ms := nsToMs(col.latNs[k])
		tput = append(tput, rate)
		p50 = append(p50, quantile(ms, 0.50))
		p95 = append(p95, quantile(ms, 0.95))
		all = append(all, ms...)
	}
	if len(tput) == 0 {
		return fmt.Errorf("no valid window: the stack cannot sustain %.0f txn/s on this host (%v)", spec.rate, rc.res.Notes)
	}
	rc.e2e.windows("txn_per_s", tput)
	rc.e2e.windows("lat_p50_ms", p50)
	rc.e2e.windows("lat_p95_ms", p95)

	// Output check. The stack is closed first: every accepted submission has
	// resolved, the logs are sealed, and (serve-ha) the followers hold what
	// the leader holds.
	if rig.leader != nil {
		if err := rig.leader.WaitCaughtUp(10 * time.Second); err != nil {
			rc.fail("%v", err)
		}
	}
	var meshMsgs, meshBytes, logged uint64
	if rig.mesh != nil {
		meshMsgs, meshBytes, logged = rig.mesh.Messages(), rig.mesh.Bytes(), rig.leader.NextEpoch()
	}
	blocked, _ := rig.reg.Value("qotp_serve_blocked_total")
	ackWait, _ := rig.reg.Value("qotp_repl_ack_wait_seconds_avg")
	var scrapeMs float64
	if rc.traced {
		scrapeMs = probeScrape(rig.reg)
	}
	var degraded uint64
	if rig.leader != nil {
		degraded = rig.leader.Stats().Degraded
	}
	if err := rig.close(); err != nil {
		return err
	}
	hashStart := time.Now()
	live := rig.store.StateHash()
	hashMs := float64(time.Since(hashStart).Microseconds()) / 1e3
	// Untraced runs replay the log (serve-ha: both followers' logs) through
	// the serial reference. Traced runs recover the log with RecoverWAL — a
	// fresh engine of another shape — which is also what wal.recover_s times;
	// doing both would double the longest step of the run.
	if !rc.traced {
		logs := rig.repDir
		if !spec.ha {
			logs = []string{rig.logDir}
		}
		for _, dir := range logs {
			if err := verifyLog(rc, dir, pool, accepted, spec.ha, live); err != nil {
				return err
			}
		}
		return nil
	}
	recGen, err := ycsbServeGen(rc)
	if err != nil {
		return err
	}
	recStore, err := qotp.Open(recGen, partitions)
	if err != nil {
		return err
	}
	recStart := time.Now()
	info, err := qotp.RecoverWAL(rig.logDir, recStore, recGen.Registry())
	if err != nil {
		return err
	}
	recoverS := time.Since(recStart).Seconds()
	if got := recStore.StateHash(); got != live {
		rc.fail("RecoverWAL of %s (%d batches) rebuilt state %016x, live store %016x", filepath.Base(rig.logDir), info.Batches, got, live)
	}

	// Per-layer metrics.
	L := rc.layer
	proc.report(L, col.done)
	L.set("trace_overhead_pct", overheadPct(offRate, onRate))
	n := float64(col.done)
	planNs := float64(statsAfter.PlanNs - statsBefore.PlanNs)
	execNs := float64(statsAfter.ExecNs - statsBefore.ExecNs)
	L.set("core.plan_ns_per_txn", planNs/n)
	L.set("core.exec_ns_per_txn", execNs/n)
	L.set("core.plan_share", 100*planNs/(planNs+execNs))
	L.set("core.reexec_per_ktxn", 1000*float64(statsAfter.Retries-statsBefore.Retries)/n)
	L.set("core.user_aborts_per_ktxn", 1000*float64(statsAfter.UserAborts-statsBefore.UserAborts)/n)
	L.set("core.queue_skew", poolSkew(rig.store, pool, maxBatch))
	L.set("storage.statehash_ms", hashMs)
	L.set("workload.gen_ns_per_txn", float64(genNs)/float64(poolN))

	L.set("serve.submit_ns_per_txn", float64(ls.submitNs)/float64(max(accepted, 1)))
	L.set("serve.engine_idle_share", 100*(1-execNs/float64(wall.Nanoseconds())))
	L.set("serve.queue_depth_max", float64(ls.depthMax))
	L.set("serve.blocked_submits", blocked)
	L.set("serve.backlog_max", float64(backlogMax))
	L.set("serve.invalid_windows", float64(invalid))
	L.set("lat_p99_ms", quantile(all, 0.99))
	L.set("lat_p999_ms", quantile(all, 0.999))
	if spec.rate > 0 {
		L.windows("serve.gen_lag_ms_p99", lagP99)
		if invalid == 0 && quantile(all, 0.99) <= sloP99Ms {
			L.set("serve.max_rate_in_slo", spec.rate)
		}
	}
	onSeconds := float64(len(onRate)) * each.Seconds()
	lg := rig.logger
	L.set("serve.batches_per_s", float64(len(lg.durs))/onSeconds)
	L.set("serve.batch_fill_avg", float64(lg.txns)/float64(max(len(lg.durs), 1))/maxBatch)
	logMs := nsToMs(lg.durs)
	layer := "wal"
	if spec.ha {
		layer = "repl"
		L.set("repl.ack_wait_ms_avg", ackWait*1e3)
		L.set("repl.follower_lag_max", float64(ls.lagMax))
		L.set("repl.degraded_commits", float64(degraded))
		L.set("repl.msgs_per_batch", float64(meshMsgs)/float64(logged))
		L.set("repl.bytes_per_batch", float64(meshBytes)/float64(logged))
		L.set("cluster.msgs_per_txn", float64(meshMsgs)/n)
		L.set("cluster.bytes_per_msg", float64(meshBytes)/float64(meshMsgs))
		L.set("cluster.bytes_per_txn", float64(meshBytes)/n)
	}
	L.set(layer+".log_ms_per_batch_p50", quantile(logMs, 0.50))
	L.set(layer+".log_ms_per_batch_p99", quantile(logMs, 0.99))

	// The log's filesystem traffic, counted at the wal.FS seam over the whole
	// run (ratios, so warm-up batches do not skew them).
	wire := probeCodec(L, pool[:min(len(pool), maxBatch)])
	fs := rig.fs
	batches := float64(max(lg.calls, 1))
	L.set("wal.fsyncs_per_batch", float64(fs.syncs.Load())/batches)
	L.set("wal.writes_per_batch", float64(fs.writes.Load())/batches)
	L.set("wal.fsync_ms_p50", quantile(nsToMs(fs.syncDur), 0.50))
	L.set("wal.bytes_per_txn", float64(fs.bytes.Load())/n)
	L.set("wal.write_amp", float64(fs.bytes.Load())/n/wire)
	L.set("wal.recover_s", recoverS)

	spans := tr.build()
	share, sumErr := stageShares(spans)
	L.set("trace.form_share", share["serve.form"])
	L.set("trace.log_share", share[tr.logName]+share["wal.fsync"])
	L.set("trace.engine_share", share["engine.exec"])
	L.set("trace.resolve_share", share["serve.resolve"]+share["serve.dispatch"])
	L.set("trace.stage_sum_err_pct", sumErr)
	L.set("trace.spans", float64(len(spans)))
	byName := make(map[string][]float64)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start)/1e6)
	}
	L.set("serve.form_wait_ms_p50", quantile(byName["serve.form"], 0.50))
	L.set("serve.log_ms_per_batch", mean(byName[tr.logName]))
	L.set("serve.dispatch_ms_per_batch", mean(byName["serve.dispatch"]))
	L.set("serve.engine_ms_per_batch", mean(byName["engine.exec"]))
	L.set("serve.resolve_ms_per_batch", mean(byName["serve.resolve"]))
	if err := writeTrace(rc.tracePath(), currentEnv(rc.seed, rc.seconds, rc.tiny), rc.name, spans); err != nil {
		return err
	}
	L.set("obs.scrape_ms", scrapeMs)
	probeStorage(rc, L, rig.store)
	probeLayers(rc, L)
	return nil
}

// poolSkew is the mean max/mean fragments per partition over consecutive
// batch-sized runs of the pool: the queue occupancy the planner produces for
// the batches the former forms.
func poolSkew(st *storage.Store, pool []*txn.Txn, batch int) float64 {
	var skews []float64
	counts := make([]int, st.Partitions())
	for lo := 0; lo+batch <= len(pool); lo += batch {
		clear(counts)
		for _, t := range pool[lo : lo+batch] {
			for i := range t.Frags {
				counts[st.PartitionOf(t.Frags[i].Key)]++
			}
		}
		skews = append(skews, skew(counts))
	}
	return mean(skews)
}

// verifyLog replays one log directory through the serial reference and
// compares the result with the live store. On serve-wal the log must hold the
// accepted submissions in submission order (one generator, so submission
// order is batch order); on serve-ha — where the failover client's
// per-submission goroutines decide the wire order — every acknowledged
// (ClientID, ClientSeq) must be on the follower's log exactly once.
func verifyLog(rc *runCtx, dir string, pool []*txn.Txn, accepted int, ha bool, live uint64) error {
	gen, err := ycsbServeGen(rc)
	if err != nil {
		return err
	}
	ref, err := newReference(gen, partitions)
	if err != nil {
		return err
	}
	name := filepath.Base(dir)
	seen := make([]bool, accepted+1)
	pos := 0
	// Decoding the log and replaying it overlap on the two CPUs: RecoverFrom
	// decodes batch k+1 while the reference applies batch k.
	batches := make(chan []*txn.Txn, 1)
	applied := make(chan error, 1)
	go func() {
		var first error
		for txns := range batches {
			if first == nil {
				first = ref.apply(txns, nil)
			}
		}
		applied <- first
	}()
	_, err = wal.RecoverFrom(dir, nil, nil, gen.Registry(), func(_ uint64, txns []*txn.Txn) error {
		for _, t := range txns {
			if ha {
				if t.ClientID != 1 || t.ClientSeq == 0 || t.ClientSeq > uint64(accepted) || seen[t.ClientSeq] {
					rc.fail("%s: unexpected or duplicate identity (%d,%d)", name, t.ClientID, t.ClientSeq)
				} else {
					seen[t.ClientSeq] = true
				}
			} else if want := pool[pos%len(pool)].ID; t.ID != want {
				rc.fail("%s: position %d holds txn %d, submitted %d", name, pos, t.ID, want)
			}
			pos++
		}
		batches <- txns
		return nil
	})
	close(batches)
	if aerr := <-applied; err == nil {
		err = aerr
	}
	if err != nil {
		return err
	}
	if pos != accepted {
		rc.fail("%s holds %d txns, %d were acknowledged", name, pos, accepted)
	}
	if got := ref.store.StateHash(); got != live {
		rc.fail("%s replayed serially gives state %016x, live store %016x", name, got, live)
	}
	return nil
}
