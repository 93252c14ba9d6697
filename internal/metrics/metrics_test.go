package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(99) != 0 {
		t.Error("zero histogram not empty")
	}
	h.Observe(100 * time.Microsecond)
	h.Observe(200 * time.Microsecond)
	h.Observe(10 * time.Millisecond)
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Max() != 10*time.Millisecond {
		t.Errorf("max = %v", h.Max())
	}
	// p50 must be within one power-of-two bucket of 200us.
	if p := h.Percentile(50); p < 128*time.Microsecond || p > 512*time.Microsecond {
		t.Errorf("p50 = %v, want within [128us, 512us]", p)
	}
	if p99 := h.Percentile(99); p99 < 8*time.Millisecond {
		t.Errorf("p99 = %v, want >= 8ms", p99)
	}
}

func TestHistogramObserveN(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 7; i++ {
		a.Observe(3 * time.Millisecond)
	}
	b.ObserveN(3*time.Millisecond, 7)
	if a.Count() != b.Count() || a.Mean() != b.Mean() || a.Percentile(90) != b.Percentile(90) {
		t.Errorf("ObserveN mismatch: %v vs %v", a.String(), b.String())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Millisecond)
	b.Observe(4 * time.Millisecond)
	b.Observe(16 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Errorf("merged count = %d", a.Count())
	}
	if a.Max() != 16*time.Millisecond {
		t.Errorf("merged max = %v", a.Max())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
}

// TestPercentileWithinBucketBound property: the percentile estimate is never
// below any recorded sample's bucket floor and never above 2x the max.
func TestPercentileWithinBucketBound(t *testing.T) {
	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		var h Histogram
		var maxv uint32
		for _, s := range samples {
			h.Observe(time.Duration(s))
			if s > maxv {
				maxv = s
			}
		}
		p := h.Percentile(100)
		return p >= time.Duration(maxv)/2 && (maxv == 0 || p <= 2*time.Duration(maxv))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLogLinearPercentilesDistinguish pins the histogram-granularity fix:
// serving-path runs once reported p50 == p99 == p999 because pure
// power-of-two buckets collapsed a whole octave of the latency profile into
// one bucket.
// With log-linear sub-buckets, percentiles of a known bimodal distribution
// must land near their true values and differ from each other.
func TestLogLinearPercentilesDistinguish(t *testing.T) {
	var h Histogram
	h.ObserveN(time.Millisecond, 900)    // body
	h.ObserveN(50*time.Millisecond, 100) // tail
	h.ObserveN(52*time.Millisecond, 9)   // same octave as the tail
	h.ObserveN(400*time.Millisecond, 1)  // p999 outlier
	p50, p99, p999 := h.Percentile(50), h.Percentile(99), h.Percentile(99.9)
	if p50 == p99 || p99 == p999 {
		t.Fatalf("degenerate percentiles: p50=%v p99=%v p999=%v", p50, p99, p999)
	}
	within := func(got, want time.Duration) bool {
		return got >= want && got <= want+want/8 // upper edge, <= one sub-bucket above
	}
	if !within(p50, time.Millisecond) {
		t.Errorf("p50 = %v, want ~1ms", p50)
	}
	if !within(p99, 50*time.Millisecond) {
		t.Errorf("p99 = %v, want ~50ms", p99)
	}
	if !within(p999, 52*time.Millisecond) {
		t.Errorf("p999 = %v, want ~52ms", p999)
	}
	// 50ms and 52ms share a power-of-two octave; sub-buckets must separate
	// them (this is exactly what the pure-log2 histogram could not do).
	if bucketOf(uint64(50*time.Millisecond)) == bucketOf(uint64(52*time.Millisecond)) {
		t.Error("50ms and 52ms fell into the same bucket")
	}
}

func TestBucketOfMonotonic(t *testing.T) {
	f := func(a, b uint64) bool {
		if a > b {
			a, b = b, a
		}
		return bucketOf(a) <= bucketOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsSnapAndReset(t *testing.T) {
	var s Stats
	s.Committed.Add(100)
	s.Retries.Add(7)
	s.Latency.Observe(time.Millisecond)
	snap := s.Snap(2 * time.Second)
	if snap.Throughput != 50 {
		t.Errorf("throughput = %f, want 50", snap.Throughput)
	}
	s.Reset()
	if s.Committed.Load() != 0 || s.Latency.Count() != 0 {
		t.Error("reset incomplete")
	}
}

func TestTableAndSpeedups(t *testing.T) {
	snaps := []Snapshot{{Throughput: 100, Committed: 10}, {Throughput: 50, Committed: 5}}
	out := Table([]string{"a", "b"}, snaps)
	if len(out) == 0 {
		t.Error("empty table")
	}
	if sp := Speedup(snaps[0], snaps[1]); sp != 2 {
		t.Errorf("speedup = %f", sp)
	}
	ranked := SortedSpeedups([]string{"a", "b"}, snaps, snaps[1])
	if len(ranked) != 2 || ranked[0] != "a=2.00x" {
		t.Errorf("ranked = %v", ranked)
	}
}
