// Package metrics provides the measurement primitives the benchmark harness
// uses: latency histograms with quantiles, per-core busy accounting, and
// the Coremark-normalized thread accounting of §5.6.
package metrics

import (
	"fmt"
	"math"

	"xenic/internal/sim"
)

// numBuckets is the histogram bucket count: logarithmic buckets from 1ns to
// ~17s (2^34 ns) with 8 sub-buckets per octave.
const numBuckets = 34 * 8

// Histogram records latency samples with logarithmic buckets, giving <=0.8%
// relative quantile error while using constant memory.
type Histogram struct {
	buckets [numBuckets]int64
	count   int64
	sum     sim.Time
	min     sim.Time
	max     sim.Time
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

func bucketOf(d sim.Time) int {
	ns := d.Nanos()
	if ns < 1 {
		ns = 1
	}
	b := int(math.Log2(ns) * 8)
	if b < 0 {
		b = 0
	}
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

func bucketMid(b int) sim.Time {
	return sim.FromNanos(math.Exp2((float64(b) + 0.5) / 8))
}

// Record adds one latency sample.
func (h *Histogram) Record(d sim.Time) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count reports the number of samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean reports the exact mean of recorded samples.
func (h *Histogram) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Time(h.count)
}

// Min and Max report exact extremes.
func (h *Histogram) Min() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.min
}

func (h *Histogram) Max() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the approximate q-quantile (0 <= q <= 1). Edge behavior
// is exact rather than bucket-approximate: an empty histogram reports 0,
// q <= 0 reports Min, and q >= 1 reports Max.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := int64(q * float64(h.count-1))
	var seen int64
	for b, n := range h.buckets {
		if n == 0 {
			continue
		}
		if seen+n > target {
			m := bucketMid(b)
			if m < h.min {
				m = h.min
			}
			if m > h.max {
				m = h.max
			}
			return m
		}
		seen += n
	}
	return h.max
}

// Median is Quantile(0.5).
func (h *Histogram) Median() sim.Time { return h.Quantile(0.5) }

// Reset clears all samples.
func (h *Histogram) Reset() { *h = Histogram{min: math.MaxInt64} }

// Merge adds all samples of o into h.
func (h *Histogram) Merge(o *Histogram) {
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
	h.count += o.count
	h.sum += o.sum
	if o.count > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d p50=%v p99=%v mean=%v", h.count, h.Median(), h.Quantile(0.99), h.Mean())
}

// Snapshot summarizes the histogram as a JSON-ready document: sample count
// and latency quantiles in microseconds. The stats registry serializes it
// into the per-run stats file.
func (h *Histogram) Snapshot() map[string]any {
	return map[string]any{
		"count":   h.count,
		"mean_us": h.Mean().Micros(),
		"p50_us":  h.Median().Micros(),
		"p90_us":  h.Quantile(0.90).Micros(),
		"p99_us":  h.Quantile(0.99).Micros(),
		"min_us":  h.Min().Micros(),
		"max_us":  h.Max().Micros(),
	}
}

// WindowStats summarizes the samples a histogram recorded during one
// sampling window.
type WindowStats struct {
	Count          int64
	Mean           sim.Time
	P50, P99, P999 sim.Time
}

// HistWindow derives windowed statistics from a live histogram: each
// Advance reports the count, mean, and quantiles of only the samples
// recorded since the previous Advance, by diffing bucket snapshots. It
// tolerates the histogram being Reset between Advances (e.g. Measure
// resetting latency at a window boundary): a shrunken count means the
// previous snapshot no longer describes a prefix of the data, so the whole
// current content counts as new.
type HistWindow struct {
	h    *Histogram
	prev Histogram
}

// NewHistWindow returns a window over h, primed at h's current content (the
// first Advance reports only samples recorded after this call).
func NewHistWindow(h *Histogram) *HistWindow {
	return &HistWindow{h: h, prev: *h}
}

// Advance reports the window since the last Advance (or construction) and
// starts the next one.
func (w *HistWindow) Advance() WindowStats {
	cur := w.h
	prev := &w.prev
	if cur.count < prev.count {
		*prev = Histogram{}
	}
	var out WindowStats
	out.Count = cur.count - prev.count
	if out.Count > 0 {
		out.Mean = (cur.sum - prev.sum) / sim.Time(out.Count)
		out.P50 = w.diffQuantile(0.50, out.Count)
		out.P99 = w.diffQuantile(0.99, out.Count)
		out.P999 = w.diffQuantile(0.999, out.Count)
	}
	w.prev = *cur
	return out
}

// diffQuantile computes a quantile over the bucket-count deltas between the
// live histogram and the previous snapshot. Exact min/max are not
// recoverable from a diff, so edges report the midpoint of the extreme
// non-empty delta bucket.
func (w *HistWindow) diffQuantile(q float64, n int64) sim.Time {
	target := int64(q * float64(n-1))
	var seen int64
	for b := range w.h.buckets {
		d := w.h.buckets[b] - w.prev.buckets[b]
		if d <= 0 {
			continue
		}
		if seen+d > target {
			return bucketMid(b)
		}
		seen += d
	}
	return 0
}

// intHistDirect is the number of directly-counted values in an IntHist;
// larger values share one overflow bucket.
const intHistDirect = 64

// IntHist is a distribution over small non-negative integers (batch sizes,
// gather-list lengths, DMA vector occupancies): values 0..intHistDirect-1
// count exactly, larger ones land in an overflow bucket. Recording is two
// array updates, cheap enough to stay always-on in NIC hot paths.
type IntHist struct {
	buckets  [intHistDirect + 1]int64
	count    int64
	sum      int64
	min, max int64
}

// Record adds one observation (negative values clamp to 0).
func (h *IntHist) Record(v int) {
	x := int64(v)
	if x < 0 {
		x = 0
	}
	b := x
	if b >= intHistDirect {
		b = intHistDirect
	}
	h.buckets[b]++
	if h.count == 0 || x < h.min {
		h.min = x
	}
	if x > h.max {
		h.max = x
	}
	h.count++
	h.sum += x
}

// Count reports the number of observations.
func (h *IntHist) Count() int64 { return h.count }

// Mean reports the average observation, or 0 when empty.
func (h *IntHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min and Max report exact extremes (0 when empty).
func (h *IntHist) Min() int64 { return h.min }
func (h *IntHist) Max() int64 { return h.max }

// Snapshot summarizes the distribution with its non-empty buckets.
func (h *IntHist) Snapshot() map[string]any {
	buckets := map[string]int64{}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if i == intHistDirect {
			buckets[fmt.Sprintf("%d+", intHistDirect)] = n
			continue
		}
		buckets[fmt.Sprintf("%d", i)] = n
	}
	return map[string]any{
		"count":   h.count,
		"mean":    h.Mean(),
		"min":     h.min,
		"max":     h.max,
		"buckets": buckets,
	}
}

// Utilization accumulates busy time for a set of cores and reports
// occupancy and normalized thread counts.
type Utilization struct {
	busy []sim.Time
}

// NewUtilization tracks n cores.
func NewUtilization(n int) *Utilization { return &Utilization{busy: make([]sim.Time, n)} }

// Add charges d of busy time to core i.
func (u *Utilization) Add(i int, d sim.Time) { u.busy[i] += d }

// Busy reports total busy time of core i.
func (u *Utilization) Busy(i int) sim.Time { return u.busy[i] }

// TotalBusy reports the summed busy time across all cores; samplers diff
// successive values to derive windowed occupancy.
func (u *Utilization) TotalBusy() sim.Time {
	var total sim.Time
	for _, b := range u.busy {
		total += b
	}
	return total
}

// Lanes reports the number of cores tracked.
func (u *Utilization) Lanes() int { return len(u.busy) }

// Reset zeroes all busy accounting.
func (u *Utilization) Reset() {
	for i := range u.busy {
		u.busy[i] = 0
	}
}

// NormalizedThreads implements the §5.6 accounting: host threads count 1.0
// each, NIC threads count coremarkRatio each (0.31 in the paper).
func NormalizedThreads(hostThreads, nicThreads int, coremarkRatio float64) float64 {
	return float64(hostThreads) + float64(nicThreads)*coremarkRatio
}
