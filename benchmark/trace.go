package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/metrics"
	"github.com/exploratory-systems/qotp/internal/serve"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/wal"
)

// The trace is taken from outside the layers: the benchmark wraps the objects
// it hands to them (the engine given to serve.New, the BatchLogger, the wal
// filesystem) and stamps the client side of every Future. The unit is the
// formed batch, so the trace id is the batch sequence number (Outcome.Batch;
// the call ordinal in the batch-driven workloads).

// span is one entry of a trace file. Times are nanoseconds since the trace
// epoch; Parent is the id of the enclosing span, -1 for a batch root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Batch  uint64 `json:"batch"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type interval struct{ start, end time.Time }

// batchRec collects one batch's boundary stamps; the goroutines that own the
// boundaries (load generator, former via the wrappers, collector) fill their
// own fields under the tracer's lock.
type batchRec struct {
	first, last       time.Time // first accepted Submit entered; last Future observed done
	logStart, logEnd  time.Time // BatchLogger.LogBatch
	engStart, engDone time.Time // engine Submit entered; drain observed
	planEnd           time.Time // batch-driven core workloads: Plan returned
	fsyncs            []interval
}

type tracer struct {
	on    atomic.Bool // wrappers stamp only while set
	epoch time.Time

	mu      sync.Mutex
	batches map[uint64]*batchRec
	txns    []span // sampled per-transaction spans (Parent filled by build)

	// logName is the span name of the BatchLogger stage: wal.log or repl.log.
	logName string
	// curSeq is the sequence number of the batch the former is dispatching:
	// LogBatch receives it as the epoch, and the engine's Submit follows on
	// the same goroutine. Former-goroutine state.
	curSeq uint64
}

func newTracer(logName string) *tracer {
	return &tracer{epoch: time.Now(), batches: make(map[uint64]*batchRec), logName: logName}
}

func (t *tracer) rec(seq uint64) *batchRec {
	r := t.batches[seq]
	if r == nil {
		r = &batchRec{}
		t.batches[seq] = r
	}
	return r
}

// stamp runs fn on batch seq's record under the lock.
func (t *tracer) stamp(seq uint64, fn func(*batchRec)) {
	t.mu.Lock()
	fn(t.rec(seq))
	t.mu.Unlock()
}

const txnSampleEvery = 64

func (t *tracer) sampleTxn(seq uint64, start, end time.Time) {
	t.mu.Lock()
	t.txns = append(t.txns, span{Name: "txn", Batch: seq, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// build turns the complete batch records into spans. A record missing a
// boundary (tracing was switched on or off while the batch was in flight) is
// dropped, and so is one whose boundaries are out of order: the client-side
// stamps are keyed by Outcome.Batch, which serve labels one too high when the
// former resolves a finished batch just after numbering its successor.
func (t *tracer) build() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	seqs := make([]uint64, 0, len(t.batches))
	for s := range t.batches {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	var out []span
	rootOf := make(map[uint64]int)
	add := func(name string, seq uint64, parent int, a, b time.Time) int {
		id := len(out)
		out = append(out, span{ID: id, Name: name, Batch: seq, Parent: parent,
			Start: a.Sub(t.epoch).Nanoseconds(), End: b.Sub(t.epoch).Nanoseconds()})
		return id
	}
	for _, seq := range seqs {
		r := t.batches[seq]
		if r.first.IsZero() || r.last.IsZero() || r.engStart.IsZero() || r.engDone.IsZero() {
			continue
		}
		served := !r.logStart.IsZero()
		if served && (r.logEnd.IsZero() || r.logStart.Before(r.first) || r.engStart.Before(r.logEnd)) {
			continue
		}
		if r.engStart.Before(r.first) || r.engDone.Before(r.engStart) || r.last.Before(r.engDone) {
			continue
		}
		root := add("batch", seq, -1, r.first, r.last)
		rootOf[seq] = root
		switch {
		case served:
			add("serve.form", seq, root, r.first, r.logStart)
			lg := add(t.logName, seq, root, r.logStart, r.logEnd)
			for _, f := range r.fsyncs {
				add("wal.fsync", seq, lg, f.start, f.end)
			}
			add("serve.dispatch", seq, root, r.logEnd, r.engStart)
			add("engine.exec", seq, root, r.engStart, r.engDone)
			add("serve.resolve", seq, root, r.engDone, r.last)
		case !r.planEnd.IsZero():
			add("core.plan", seq, root, r.engStart, r.planEnd)
			add("core.exec", seq, root, r.planEnd, r.engDone)
		default:
			add("engine.exec", seq, root, r.engStart, r.engDone)
		}
	}
	for _, s := range t.txns {
		if root, ok := rootOf[s.Batch]; ok {
			s.ID, s.Parent = len(out), root
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of it
// that its child spans cover (children clipped to the parent, overlaps
// counted once). Sampled txn spans describe the same interval as their batch
// from one transaction's point of view, so they cover nothing.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 && s.Name != "txn" {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		covered, upto := int64(0), s.Start
		for _, k := range kids {
			a, b := max(spans[k].Start, upto), min(spans[k].End, s.End)
			if b > a {
				covered += b - a
				upto = b
			}
		}
		self[s.ID] -= covered
	}
	return self
}

// stageShares aggregates self time by span name over all batch roots and
// reports each stage's share of the summed batch wall time (%), plus the
// relative gap between the summed stage self times and the wall (%).
func stageShares(spans []span) (share map[string]float64, sumErrPct float64) {
	self := selfTimes(spans)
	var wall, staged int64
	byName := make(map[string]int64)
	for _, s := range spans {
		switch {
		case s.Name == "txn":
		case s.Parent < 0:
			wall += s.End - s.Start
			byName[s.Name] += self[s.ID]
		default:
			byName[s.Name] += self[s.ID]
			staged += self[s.ID]
		}
	}
	share = make(map[string]float64)
	if wall == 0 {
		return share, 0
	}
	for n, v := range byName {
		share[n] = 100 * float64(v) / float64(wall)
	}
	gap := wall - staged
	if gap < 0 {
		gap = -gap
	}
	return share, 100 * float64(gap) / float64(wall)
}

func writeTrace(path string, env environment, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string      `json:"workload"`
		Env      environment `json:"env"`
		Spans    []span      `json:"spans"`
	}{workload, env, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// Wrappers handed to the layers
// ---------------------------------------------------------------------------

// tracedLogger wraps the serving path's BatchLogger (a *wal.Writer or a
// *repl.Leader). It always notes the batch sequence number for the engine
// wrapper and, while tracing is on, times the call.
type tracedLogger struct {
	inner serve.BatchLogger
	tr    *tracer
	calls int     // every LogBatch call of the run
	durs  []int64 // LogBatch durations in ns, traced windows only
	txns  int     // transactions in those batches
}

func (l *tracedLogger) LogBatch(epoch uint64, txns []*txn.Txn) error {
	l.tr.curSeq = epoch
	l.calls++
	if !l.tr.on.Load() {
		return l.inner.LogBatch(epoch, txns)
	}
	start := time.Now()
	l.tr.stamp(epoch, func(r *batchRec) { r.logStart = start })
	err := l.inner.LogBatch(epoch, txns)
	end := time.Now()
	l.tr.stamp(epoch, func(r *batchRec) { r.logEnd = end })
	l.durs = append(l.durs, end.Sub(start).Nanoseconds())
	l.txns += len(txns)
	return err
}

// tracedEngine wraps the pipelined core engine given to serve.New. A batch's
// engine.exec span runs from its Submit being entered to the moment the
// former learns it committed: a TryDrain/Drain reporting done, or the next
// Submit returning (Submit k+1 returns only once batch k has committed).
type tracedEngine struct {
	inner    *core.Engine
	tr       *tracer
	inflight uint64 // sequence number of the batch executing in the background
}

func (e *tracedEngine) Name() string                    { return e.inner.Name() }
func (e *tracedEngine) Stats() *metrics.Stats           { return e.inner.Stats() }
func (e *tracedEngine) Close()                          { e.inner.Close() }
func (e *tracedEngine) Pipelined() bool                 { return e.inner.Pipelined() }
func (e *tracedEngine) ExecBatch(txns []*txn.Txn) error { return e.inner.ExecBatch(txns) }

func (e *tracedEngine) done() {
	if e.inflight != 0 && e.tr.on.Load() {
		now := time.Now()
		e.tr.stamp(e.inflight, func(r *batchRec) { r.engDone = now })
	}
	e.inflight = 0
}

func (e *tracedEngine) Submit(txns []*txn.Txn) error {
	seq := e.tr.curSeq
	if e.tr.on.Load() {
		now := time.Now()
		e.tr.stamp(seq, func(r *batchRec) { r.engStart = now })
	}
	err := e.inner.Submit(txns)
	e.done()
	e.inflight = seq
	return err
}

func (e *tracedEngine) Drain() error {
	err := e.inner.Drain()
	e.done()
	return err
}

func (e *tracedEngine) TryDrain() (bool, error) {
	ok, err := e.inner.TryDrain()
	if ok {
		e.done()
	}
	return ok, err
}

// countingFS wraps the wal filesystem seam: it counts the writes, bytes and
// fsyncs the log issues and, while tracing is on, records each fsync as a
// child interval of the batch being logged.
type countingFS struct {
	wal.FS
	tr      *tracer // nil: count only
	writes  atomic.Uint64
	bytes   atomic.Uint64
	syncs   atomic.Uint64
	mu      sync.Mutex
	syncDur []int64 // ns
}

func (c *countingFS) Create(path string) (wal.File, error) {
	f, err := c.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	wal.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	f.fs.bytes.Add(uint64(len(p)))
	return f.File.Write(p)
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	end := time.Now()
	c := f.fs
	c.syncs.Add(1)
	c.mu.Lock()
	c.syncDur = append(c.syncDur, end.Sub(start).Nanoseconds())
	c.mu.Unlock()
	if c.tr != nil && c.tr.on.Load() {
		c.tr.stamp(c.tr.curSeq, func(r *batchRec) {
			if !r.logStart.IsZero() && r.logEnd.IsZero() {
				r.fsyncs = append(r.fsyncs, interval{start, end})
			}
		})
	}
	return err
}
