// Package obs is the observability subsystem: a lock-cheap metrics registry
// (counters, gauges, rolling-window aggregators) and the HTTP surface that
// exposes it (/healthz, /readyz, /metrics in Prometheus text and JSON).
//
// The layers of the stack — serve, repl, wal, cluster, the engines — register
// their instruments into one Registry; a scrape renders every series live, so
// a running node is no longer a black box whose numbers only exist in an
// end-of-run report. Gray's "Queues Are Databases" argument cuts both ways:
// a queue system carrying transactional guarantees must also carry the
// operational discipline of a DBMS, and that starts with being measurable
// while it runs.
//
// Design constraints, in order:
//
//   - Hot-path cheap: counters are single atomic adds; gauges are pull-only
//     closures evaluated at scrape time; rolling windows take one short
//     mutex-protected update per observation (observations are per-batch or
//     per-fsync, never per-transaction).
//   - Bounded memory: rolling windows are fixed-size ring buckets that
//     overwrite in place — no sample retention, no unbounded growth.
//   - Race-safe: every instrument may be written by a layer goroutine while
//     a scrape reads it; all tests run under -race.
//   - Deterministic tests: windows take an injectable clock, so rotation at
//     bucket boundaries is testable with frozen time.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the time source seam. Production registries use time.Now; window
// tests freeze it.
type Clock func() time.Time

// Label is one key=value pair attached to a series. Series with the same name
// and different labels form one metric family (per-follower lag, per-peer
// liveness, per-session counters).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind tags how a registered metric renders.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindWindow
)

// metric is one registered instrument (a single labeled series; windows
// expand into derived series at render time).
type metric struct {
	name   string
	labels []Label // sorted by key
	help   string
	kind   kind

	counter *Counter
	gaugeFn func() float64
	window  *Window
}

// key returns the series identity: name plus canonical label rendering.
func (m *metric) key() string { return seriesKey(m.name, m.labels) }

func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// check is one named health/readiness probe.
type check struct {
	name string
	fn   func() error
}

// Registry holds every registered instrument plus the health and readiness
// checks. All methods are safe for concurrent use; registration is expected
// at component construction time, scrapes and instrument updates run
// concurrently for the component's lifetime.
type Registry struct {
	clock Clock

	mu      sync.RWMutex
	metrics []*metric
	byKey   map[string]*metric
	health  []check
	ready   []check
}

// New returns a Registry on the real clock.
func New() *Registry { return NewWithClock(time.Now) }

// NewWithClock returns a Registry whose rolling windows read time from clock
// (the frozen-clock seam for deterministic rotation tests).
func NewWithClock(clock Clock) *Registry {
	return &Registry{clock: clock, byKey: make(map[string]*metric)}
}

// sortLabels returns a sorted copy, so label order at the call site never
// changes series identity.
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Counter registers (or returns the existing) monotonic counter for the
// series. Re-registering the same name+labels returns the same Counter, so a
// restarted component (cluster.LoopbackTCP.Restart) keeps accumulating
// instead of colliding.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	ls := sortLabels(labels)
	k := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[k]; ok && m.kind == kindCounter {
		return m.counter
	}
	c := &Counter{}
	r.addLocked(&metric{name: name, labels: ls, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers a pull gauge: fn is evaluated at scrape time. Re-registering
// the same series replaces the function (a restarted component points the
// series at its new state).
func (r *Registry) Gauge(name, help string, fn func() float64, labels ...Label) {
	ls := sortLabels(labels)
	k := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[k]; ok && m.kind == kindGauge {
		m.gaugeFn = fn
		return
	}
	r.addLocked(&metric{name: name, labels: ls, help: help, kind: kindGauge, gaugeFn: fn})
}

// GaugeUint is Gauge over an atomic counter the producer owns — the common
// case of exporting an existing cumulative statistic live.
func (r *Registry) GaugeUint(name, help string, v *atomic.Uint64, labels ...Label) {
	r.Gauge(name, help, func() float64 { return float64(v.Load()) }, labels...)
}

// Window registers (or returns the existing) rolling-window aggregator with
// the default span (10s over 20 buckets).
func (r *Registry) Window(name, help string, labels ...Label) *Window {
	return r.WindowOpts(name, help, 10*time.Second, 20, labels...)
}

// WindowOpts is Window with an explicit span and bucket count. The window
// reports rate/avg/max over the trailing span with bucket-resolution
// granularity; memory is fixed at the bucket count regardless of load.
func (r *Registry) WindowOpts(name, help string, span time.Duration, buckets int, labels ...Label) *Window {
	ls := sortLabels(labels)
	k := seriesKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[k]; ok && m.kind == kindWindow {
		return m.window
	}
	w := newWindow(r.clock, span, buckets)
	r.addLocked(&metric{name: name, labels: ls, help: help, kind: kindWindow, window: w})
	return w
}

func (r *Registry) addLocked(m *metric) {
	if old, ok := r.byKey[m.key()]; ok {
		// Same key, different kind: replace wholesale (registration bug
		// shields; last writer wins rather than corrupting the render).
		for i, mm := range r.metrics {
			if mm == old {
				r.metrics[i] = m
				r.byKey[m.key()] = m
				return
			}
		}
	}
	r.metrics = append(r.metrics, m)
	r.byKey[m.key()] = m
}

// Health registers a liveness probe: a non-nil error marks the process
// unhealthy (/healthz goes 503).
func (r *Registry) Health(name string, fn func() error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.health = append(r.health, check{name, fn})
}

// Ready registers a readiness probe: a non-nil error marks the process
// not-ready (/readyz goes 503 — a load balancer must not route here). A
// follower still in catch-up and a demoted ex-leader both register failing
// probes, which is exactly the routing signal ErrConnLost-bouncing nodes need
// to emit.
func (r *Registry) Ready(name string, fn func() error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ready = append(r.ready, check{name, fn})
}

// CheckResult is one probe's outcome.
type CheckResult struct {
	Name string
	Err  error
}

func runChecks(checks []check) []CheckResult {
	out := make([]CheckResult, 0, len(checks))
	for _, c := range checks {
		out = append(out, CheckResult{Name: c.name, Err: c.fn()})
	}
	return out
}

// CheckHealth runs every health probe.
func (r *Registry) CheckHealth() []CheckResult {
	r.mu.RLock()
	checks := append([]check(nil), r.health...)
	r.mu.RUnlock()
	return runChecks(checks)
}

// CheckReady runs every readiness probe.
func (r *Registry) CheckReady() []CheckResult {
	r.mu.RLock()
	checks := append([]check(nil), r.ready...)
	r.mu.RUnlock()
	return runChecks(checks)
}

// Sample is one rendered series value.
type Sample struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	Type   string            `json:"type"` // "counter" or "gauge"
	Help   string            `json:"-"`
}

// Gather flattens every instrument into samples: counters and gauges one
// each, windows into their derived _count/_rate/_sum/_avg/_max series. The
// result is sorted by name then labels, so Prometheus families render
// contiguously and JSON output is diff-stable.
func (r *Registry) Gather() []Sample {
	r.mu.RLock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.RUnlock()

	var out []Sample
	for _, m := range metrics {
		labels := labelMap(m.labels)
		switch m.kind {
		case kindCounter:
			out = append(out, Sample{Name: m.name, Labels: labels, Value: float64(m.counter.Value()), Type: "counter", Help: m.help})
		case kindGauge:
			out = append(out, Sample{Name: m.name, Labels: labels, Value: m.gaugeFn(), Type: "gauge", Help: m.help})
		case kindWindow:
			st := m.window.Stats()
			base, help := m.name, m.help
			out = append(out,
				Sample{Name: base + "_count", Labels: labels, Value: float64(st.Count), Type: "gauge", Help: help + " (samples in window)"},
				Sample{Name: base + "_rate", Labels: labels, Value: st.Rate, Type: "gauge", Help: help + " (samples/sec over window)"},
				Sample{Name: base + "_sum", Labels: labels, Value: st.Sum, Type: "gauge", Help: help + " (sum over window)"},
				Sample{Name: base + "_avg", Labels: labels, Value: st.Avg, Type: "gauge", Help: help + " (mean over window)"},
				Sample{Name: base + "_max", Labels: labels, Value: st.Max, Type: "gauge", Help: help + " (max over window)"},
			)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelString(out[i].Labels) < labelString(out[j].Labels)
	})
	return out
}

// Value looks up one series' current value (gauges evaluated now; windows by
// their derived suffix name). The sampling hook the bench harness and tests
// use.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	for _, s := range r.Gather() {
		if s.Name != name {
			continue
		}
		if matchLabels(s.Labels, labels) {
			return s.Value, true
		}
	}
	return 0, false
}

func matchLabels(have map[string]string, want []Label) bool {
	if len(have) != len(want) {
		return false
	}
	for _, l := range want {
		if have[l.Key] != l.Value {
			return false
		}
	}
	return true
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	out := make(map[string]string, len(labels))
	for _, l := range labels {
		out[l.Key] = l.Value
	}
	return out
}

func labelString(m map[string]string) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, m[k])
	}
	return b.String()
}

// Counter is a monotonic event counter: one atomic add per event. The nil
// Counter is a valid no-op, so producers can hold an optional instrument and
// bump it unconditionally.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Window is a rolling-window aggregator over fixed-size ring buckets: each
// bucket covers one resolution slice of time and holds {count, sum, max};
// observations land in the bucket of their instant, stale buckets are
// overwritten in place as the window slides. Memory is len(buckets) forever —
// no sample is ever retained.
//
// The nil Window is a valid no-op (Observe on nil does nothing), so layers
// can hold optional instruments without branching at every observation site.
type Window struct {
	clock Clock
	res   time.Duration // one bucket's time slice
	span  time.Duration // res * len(buckets)

	mu      sync.Mutex
	buckets []wbucket
}

type wbucket struct {
	epoch int64 // bucket validity: clock instant / res
	count uint64
	sum   float64
	max   float64
}

func newWindow(clock Clock, span time.Duration, buckets int) *Window {
	if buckets < 1 {
		buckets = 1
	}
	res := span / time.Duration(buckets)
	if res <= 0 {
		res = time.Millisecond
	}
	return &Window{
		clock:   clock,
		res:     res,
		span:    res * time.Duration(buckets),
		buckets: make([]wbucket, buckets),
	}
}

// Observe records one sample at the current clock instant.
func (w *Window) Observe(v float64) {
	if w == nil {
		return
	}
	epoch := w.clock().UnixNano() / int64(w.res)
	idx := int(epoch % int64(len(w.buckets)))
	w.mu.Lock()
	b := &w.buckets[idx]
	if b.epoch != epoch {
		// The ring wrapped past this bucket: its contents are a full span
		// old. Reset in place — this is the only "eviction" the window does.
		*b = wbucket{epoch: epoch}
	}
	b.count++
	b.sum += v
	if v > b.max {
		b.max = v
	}
	w.mu.Unlock()
}

// ObserveDuration records d in seconds (latency convention: every *_seconds
// window holds seconds, as Prometheus expects).
func (w *Window) ObserveDuration(d time.Duration) { w.Observe(d.Seconds()) }

// WindowStats is a rolling snapshot over the trailing span.
type WindowStats struct {
	Count uint64  // samples in the window
	Sum   float64 // sum of samples
	Avg   float64 // Sum/Count (0 when empty)
	Max   float64 // largest sample
	Rate  float64 // Count per second of span
}

// Stats sums the live buckets. Buckets whose epoch fell out of the trailing
// span are skipped (and will be overwritten by the next Observe that lands on
// their slot).
func (w *Window) Stats() WindowStats {
	if w == nil {
		return WindowStats{}
	}
	now := w.clock().UnixNano() / int64(w.res)
	oldest := now - int64(len(w.buckets)) + 1
	var st WindowStats
	w.mu.Lock()
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.epoch < oldest || b.epoch > now {
			continue
		}
		st.Count += b.count
		st.Sum += b.sum
		if b.max > st.Max {
			st.Max = b.max
		}
	}
	w.mu.Unlock()
	if st.Count > 0 {
		st.Avg = st.Sum / float64(st.Count)
	}
	if secs := w.span.Seconds(); secs > 0 {
		st.Rate = float64(st.Count) / secs
	}
	return st
}

// Span returns the window's trailing span (resolution × buckets).
func (w *Window) Span() time.Duration {
	if w == nil {
		return 0
	}
	return w.span
}
