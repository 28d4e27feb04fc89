package main

import (
	"math"
	"sort"

	"xenic"
	"xenic/internal/load"
	"xenic/internal/metrics"
	"xenic/internal/txnmodel"
)

// recorder is a bench-owned LoadSource that wraps the repo's open-loop
// source and hands it a recording load.Driver, so every arrival is stamped
// from outside the program: when it was due (arrivals are simulated events
// and there is no admission queue, so due time == injection time and the
// generator's lateness is zero by construction), when it finished, and
// whether it committed. Latency quantiles are then exact order statistics
// instead of histogram buckets.
type recorder struct {
	inner xenic.LoadSource
	drv   *recDriver
}

type arrival struct {
	due, end xenic.Time // end == 0: not finished
	ok       bool
}

type recDriver struct {
	load.Driver
	arrivals []arrival
}

func newRecorder(inner xenic.LoadSource) *recorder { return &recorder{inner: inner} }

func (r *recorder) Attach(d load.Driver) error {
	r.drv = &recDriver{Driver: d}
	return r.inner.Attach(r.drv)
}
func (r *recorder) Start()            { r.inner.Start() }
func (r *recorder) Stop()             { r.inner.Stop() }
func (r *recorder) Stats() load.Stats { return r.inner.Stats() }

func (d *recDriver) InjectTxn(node, thread int, desc *txnmodel.TxnDesc, done func(ok bool)) {
	i := len(d.arrivals)
	d.arrivals = append(d.arrivals, arrival{due: d.Engine().Now()})
	d.Driver.InjectTxn(node, thread, desc, func(ok bool) {
		a := &d.arrivals[i]
		a.end, a.ok = d.Engine().Now(), ok
		if done != nil {
			done(ok)
		}
	})
}

// openLoopStats summarizes the arrivals due inside [from, to). Call it after
// the run has drained, so an arrival still unfinished is a failure rather
// than a race with the end of the window.
type openLoopStats struct {
	Arrivals int     // due inside the window
	Failed   int     // aborted for good, or unfinished after the drain
	Late     int     // committed, but later than limit after they were due
	MeanUs   float64 // over committed arrivals, due-to-commit
	P50Us    float64
	P99Us    float64
	P999Us   float64 // 0 unless at least 10 samples lie beyond it
}

func (r *recorder) window(from, to, limit xenic.Time) openLoopStats {
	var st openLoopStats
	var lat []float64
	for _, a := range r.drv.arrivals {
		if a.due < from || a.due >= to {
			continue
		}
		st.Arrivals++
		if !a.ok || a.end == 0 {
			st.Failed++
			continue
		}
		l := a.end - a.due
		if l > limit {
			st.Late++
		}
		lat = append(lat, l.Micros())
	}
	sort.Float64s(lat)
	if len(lat) == 0 {
		return st
	}
	sum := 0.0
	for _, l := range lat {
		sum += l
	}
	st.MeanUs = sum / float64(len(lat))
	st.P50Us = orderStat(lat, 0.50)
	st.P99Us = orderStat(lat, 0.99)
	if float64(len(lat))*0.001 >= 10 {
		st.P999Us = orderStat(lat, 0.999)
	}
	return st
}

// orderStat is the exact q-quantile of sorted (nearest rank).
func orderStat(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// histQuantile refines metrics.Histogram.Quantile, which answers with the
// middle of a log bucket about 9% wide, so that a closed-loop quantile does
// not read the same on every seed until it jumps a whole bucket. Only the
// public Quantile method is used: it is a step function of rank, so the
// first rank that answers v and the first that answers more than v bound the
// population of v's bucket. Inside the bucket the density is taken to vary
// linearly between the averages with the neighbouring buckets' densities
// (flat interpolation is several percent off in a tail, where density falls
// steeply across one bucket).
func histQuantile(h *metrics.Histogram, q float64) xenic.Time {
	n := h.Count()
	if n < 2 {
		return h.Quantile(q)
	}
	at := func(rank int64) xenic.Time { return h.Quantile((float64(rank) + 0.5) / float64(n-1)) }
	// ranks is the half-open rank range [lo, hi) answering v, within [0, n-1].
	ranks := func(v xenic.Time) (lo, hi int64) {
		lo = int64(sort.Search(int(n-1), func(r int) bool { return at(int64(r)) >= v }))
		hi = int64(sort.Search(int(n-1), func(r int) bool { return at(int64(r)) > v }))
		return lo, hi
	}
	bucket := func(v xenic.Time) float64 { return math.Floor(math.Log2(v.Nanos()) * 8) }
	edge := func(b float64) float64 { return math.Exp2(b / 8) } // ns
	// density is samples per ns in the bucket answering v, provided that is
	// bucket b (an empty neighbour has no rank that answers for it).
	density := func(v xenic.Time, b float64) float64 {
		if bucket(v) != b {
			return 0
		}
		lo, hi := ranks(v)
		return float64(hi-lo) / (edge(b+1) - edge(b))
	}

	target := q * float64(n-1)
	v := at(int64(target))
	lo, hi := ranks(v)
	if hi <= lo {
		return v
	}
	b := bucket(v)
	width := edge(b+1) - edge(b)
	d := float64(hi-lo) / width
	dLo, dHi := d/2, d/2
	if lo > 0 {
		dLo += density(at(lo-1), b-1) / 2
	}
	if hi < n-1 {
		dHi += density(at(hi), b+1) / 2
	}
	// Density runs linearly from dLo to dHi across the bucket; find the
	// offset t at which it has accumulated the target's share of the area.
	area := (dLo + dHi) / 2 * width * (target - float64(lo) + 0.5) / float64(hi-lo)
	t := area / dLo
	if a := (dHi - dLo) / (2 * width); math.Abs(a)*width > 1e-9*dLo {
		t = (math.Sqrt(dLo*dLo+4*a*area) - dLo) / (2 * a)
	}
	return min(max(xenic.Time((edge(b)+t)*float64(xenic.Nanosecond)), h.Min()), h.Max())
}
