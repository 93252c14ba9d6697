package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// runCtx is one workload run: its inputs, its scratch directory and the
// result being assembled.
type runCtx struct {
	name    string
	seed    uint64
	seconds float64
	traced  bool
	tiny    bool   // smoke-test scale: small tables, pools and batches
	scratch string // private directory for WAL and replica logs; removed by the caller
	outDir  string // trace files land here

	e2e   *metricSet
	layer *metricSet
	res   *result
}

func (rc *runCtx) note(format string, args ...any) {
	rc.res.Notes = append(rc.res.Notes, fmt.Sprintf(format, args...))
}

// fail marks the outputs incorrect; the run still reports what it measured.
func (rc *runCtx) fail(format string, args ...any) {
	rc.res.Correct = false
	rc.note("INCORRECT: "+format, args...)
}

// windowPlan returns the warm-up length, the number of timed windows and the
// length of one window. The timed windows add up to --seconds.
func (rc *runCtx) windowPlan() (warm time.Duration, n int, each time.Duration) {
	n = nWindows
	if rc.traced {
		n = nTraceWindows
	}
	each = time.Duration(rc.seconds / float64(n) * float64(time.Second))
	warm = min(time.Second, 2*each/3)
	return warm, n, each
}

// moreSetups decides whether to set the system up once more: at least three
// times, then until the repetitions add up to 0.75 s, nine at most — a cheap
// set-up is repeated more often, so its median is as steady as a slow one's.
func (rc *runCtx) moreSetups(done []float64) bool {
	if rc.tiny {
		return len(done) < 2
	}
	var sum float64
	for _, s := range done {
		sum += s
	}
	return len(done) < 3 || (sum < 0.75 && len(done) < 9)
}

// pick returns full unless the run is at smoke-test scale.
func pick[T any](rc *runCtx, full, tiny T) T {
	if rc.tiny {
		return tiny
	}
	return full
}

// runWorkload runs one pass of one workload and returns its result. Scratch
// files live under outDir and are removed before returning, also on failure.
func runWorkload(name string, seed uint64, seconds float64, traced, tiny bool, outDir string) (*result, error) {
	run, ok := runners[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(outDir, "scratch-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	rc := &runCtx{
		name: name, seed: seed, seconds: seconds, traced: traced, tiny: tiny,
		scratch: scratch, outDir: outDir,
		e2e: newMetricSet(endToEnd), layer: newMetricSet(perLayer),
		res: &result{Workload: name, Traced: traced, Correct: true},
	}
	// Each run starts from a collected heap, so a run inside -all measures
	// what a run in a process of its own measures.
	runtime.GC()
	if err := run(rc); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if rc.res.Attempted < 1 {
		return nil, fmt.Errorf("%s: nothing was attempted", name)
	}
	if rc.res.Failed > 0 {
		rc.res.Correct = false
	}
	if traced {
		rc.res.Metrics = rc.layer.finish()
	} else {
		rc.res.Metrics = rc.e2e.finish()
	}
	return rc.res, nil
}

var runners = map[string]func(*runCtx) error{
	"harness-ycsb":   runHarnessYCSB,
	"harness-tpcc":   runHarnessTPCC,
	"dist-ycsb":      runDistYCSB,
	"serve-wal-r20k": func(rc *runCtx) error { return runServe(rc, serveWAL(20000)) },
	"serve-wal-r80k": func(rc *runCtx) error { return runServe(rc, serveWAL(80000)) },
	"serve-wal-sat":  func(rc *runCtx) error { return runServe(rc, serveWAL(0)) },
	"serve-ha":       func(rc *runCtx) error { return runServe(rc, serveHA()) },
}

func (rc *runCtx) tracePath() string {
	return filepath.Join(rc.outDir, "trace-"+rc.name+".json")
}

// procSample is a snapshot of the process-wide cost counters, read without
// stopping the world (getrusage, runtime/metrics, GC stats), so that a traced
// batch run can bracket every timed call with two of them.
type procSample struct {
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
	numGC   int64
	pause   time.Duration
	heap    uint64
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(procMetrics)
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: procMetrics[0].Value.Uint64(), bytes: procMetrics[1].Value.Uint64(),
		heap:  procMetrics[2].Value.Uint64(),
		numGC: gc.NumGC, pause: gc.PauseTotal,
	}
}

// procAccum sums process cost over the bracketed intervals only (generation,
// verification and forced collections between timed calls are excluded).
type procAccum struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   int64
	pause   time.Duration
	heap    uint64
	open    procSample
}

func (p *procAccum) begin() { p.open = sampleProc() }

func (p *procAccum) end() {
	s := sampleProc()
	p.cpu += s.cpu - p.open.cpu
	p.mallocs += s.mallocs - p.open.mallocs
	p.bytes += s.bytes - p.open.bytes
	p.numGC += s.numGC - p.open.numGC
	p.pause += s.pause - p.open.pause
	p.heap = max(p.heap, s.heap)
}

func (p *procAccum) report(ms *metricSet, txns int) {
	n := float64(max(txns, 1))
	ms.set("proc.cpu_us_per_txn", float64(p.cpu.Microseconds())/n)
	ms.set("proc.allocs_per_txn", float64(p.mallocs)/n)
	ms.set("proc.alloc_bytes_per_txn", float64(p.bytes)/n)
	ms.set("proc.gc_cycles", float64(p.numGC))
	ms.set("proc.gc_pause_ms", float64(p.pause.Microseconds())/1e3)
	ms.set("proc.heap_peak_mb", float64(p.heap)/(1<<20))
}

// tracedWindow says whether window k of a traced run has the wrappers on. The
// pattern off,on,on,off,off,on gives both kinds nearly the same mean position
// in the run, so a drifting workload (TPC-C slows as its tables grow) does not
// show up as tracing overhead.
func tracedWindow(k int) bool { return k%4 == 1 || k%4 == 2 }

// overheadPct is the traced pass's cost: how much lower the median
// throughput of the wrapper-on windows is than that of the wrapper-off
// windows of the same run.
func overheadPct(off, on []float64) float64 {
	if len(off) == 0 || len(on) == 0 || median(off) == 0 {
		return 0
	}
	return 100 * (1 - median(on)/median(off))
}
