package metrics

import (
	"math/rand"
	"sort"
	"testing"

	"xenic/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Median() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	h.Record(10 * sim.Microsecond)
	h.Record(20 * sim.Microsecond)
	h.Record(30 * sim.Microsecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 20*sim.Microsecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != 10*sim.Microsecond || h.Max() != 30*sim.Microsecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := NewHistogram()
	var samples []float64
	for i := 0; i < 20000; i++ {
		// Latencies between 1us and 1ms, log-uniform.
		us := 1.0
		for j := 0; j < 3; j++ {
			us *= 1 + rng.Float64()*9
		}
		d := sim.FromNanos(us * 10)
		samples = append(samples, d.Nanos())
		h.Record(d)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := samples[int(q*float64(len(samples)-1))]
		got := h.Quantile(q).Nanos()
		if got < exact*0.9 || got > exact*1.1 {
			t.Errorf("q=%.2f: got %.0fns, exact %.0fns", q, got, exact)
		}
	}
}

func TestHistogramSingleSampleQuantiles(t *testing.T) {
	h := NewHistogram()
	h.Record(42 * sim.Microsecond)
	// Quantiles are clamped to [min,max], so a single sample is exact.
	if h.Median() != 42*sim.Microsecond || h.Quantile(0.99) != 42*sim.Microsecond {
		t.Fatalf("median=%v p99=%v", h.Median(), h.Quantile(0.99))
	}
}

func TestHistogramMergeReset(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(1 * sim.Microsecond)
	b.Record(3 * sim.Microsecond)
	a.Merge(b)
	if a.Count() != 2 || a.Max() != 3*sim.Microsecond {
		t.Fatalf("after merge: %v", a)
	}
	a.Reset()
	if a.Count() != 0 {
		t.Fatal("reset did not clear")
	}
	a.Record(5 * sim.Microsecond)
	if a.Min() != 5*sim.Microsecond {
		t.Fatalf("min after reset+record = %v", a.Min())
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram()
	// Empty: every quantile reports 0, including the out-of-range edges.
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v", q, got)
		}
	}
	h.Record(10 * sim.Microsecond)
	h.Record(20 * sim.Microsecond)
	h.Record(90 * sim.Microsecond)
	// q <= 0 is exactly Min and q >= 1 exactly Max, not bucket midpoints.
	if got := h.Quantile(0); got != 10*sim.Microsecond {
		t.Fatalf("Quantile(0) = %v, want Min", got)
	}
	if got := h.Quantile(-0.5); got != 10*sim.Microsecond {
		t.Fatalf("Quantile(-0.5) = %v, want Min", got)
	}
	if got := h.Quantile(1); got != 90*sim.Microsecond {
		t.Fatalf("Quantile(1) = %v, want Max", got)
	}
	if got := h.Quantile(1.5); got != 90*sim.Microsecond {
		t.Fatalf("Quantile(1.5) = %v, want Max", got)
	}
}

func TestHistWindow(t *testing.T) {
	h := NewHistogram()
	h.Record(10 * sim.Microsecond)
	w := NewHistWindow(h)
	// The window is primed at construction: pre-existing samples don't count.
	h.Record(20 * sim.Microsecond)
	h.Record(40 * sim.Microsecond)
	s := w.Advance()
	if s.Count != 2 {
		t.Fatalf("window count = %d, want 2", s.Count)
	}
	if s.Mean != 30*sim.Microsecond {
		t.Fatalf("window mean = %v, want 30us", s.Mean)
	}
	lo, hi := 18*sim.Microsecond, 22*sim.Microsecond
	if s.P50 < lo || s.P50 > hi {
		t.Fatalf("window p50 = %v, want ~20us", s.P50)
	}
	// An empty window reports zeros.
	if s = w.Advance(); s.Count != 0 || s.Mean != 0 || s.P99 != 0 {
		t.Fatalf("empty window = %+v", s)
	}
	// Reset tolerance: after the histogram resets, the whole current content
	// counts as the new window instead of producing negative deltas.
	h.Reset()
	h.Record(5 * sim.Microsecond)
	if s = w.Advance(); s.Count != 1 || s.Mean != 5*sim.Microsecond {
		t.Fatalf("post-reset window = %+v", s)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5 * sim.Microsecond)
	if h.Min() != 0 {
		t.Fatalf("negative sample recorded as %v", h.Min())
	}
}

func TestNormalizedThreads(t *testing.T) {
	// §5.6: Xenic Retwis = 5 host + 16 NIC threads at 0.31 ratio -> 9.96.
	got := NormalizedThreads(5, 16, 0.31)
	if got < 9.9 || got > 10.0 {
		t.Fatalf("normalized threads = %v, want ~9.96", got)
	}
}
