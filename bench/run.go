package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"xenic"
	"xenic/internal/metrics"
	"xenic/internal/sim"
)

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// span is one bench-owned interval of the run, in host seconds since the
// run began. Spans are kept in memory and written with the results.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

type spanLog struct {
	t0    time.Time
	spans []span
	open  []string
}

// do runs fn as a span named name, a child of whichever span is open.
func (l *spanLog) do(name string, fn func()) time.Duration {
	parent := ""
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
	}
	i := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Parent: parent, StartS: time.Since(l.t0).Seconds()})
	l.open = append(l.open, name)
	start := time.Now()
	fn()
	d := time.Since(start)
	l.open = l.open[:len(l.open)-1]
	l.spans[i].EndS = time.Since(l.t0).Seconds()
	return d
}

// record is everything one run (one workload, traced or not) produced.
type record struct {
	Workload  string  `json:"workload"`
	Trace     int     `json:"trace"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	WindowUs  float64 `json:"window_us"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	// Metrics are the end-to-end metrics of an untraced run or the per-layer
	// metrics of a traced one. Sim holds the sim-clock end-to-end values of
	// either, so the two runs of a workload can be checked for equality.
	Metrics map[string]value   `json:"metrics"`
	Sim     map[string]float64 `json:"sim"`
	// HostUsPerTxn is the measure window's host cost in either kind of run;
	// traced over untraced is the tracing overhead.
	HostUsPerTxn float64           `json:"host_us_per_txn"`
	Notes        map[string]string `json:"notes"`
	Spans        []span            `json:"spans"`
	Errors       []string          `json:"errors,omitempty"`
}

func (r *record) fail(format string, a ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, r.Workload+": "+fmt.Sprintf(format, a...))
}

// measureSlices is how many separately timed slices a measure window is cut
// into.
const measureSlices = 10

// slice is an auxiliary run's simulated length: base at referenceSeconds,
// scaled with --seconds, never below 200us so something commits.
func slice(base xenic.Time, seconds float64) xenic.Time {
	return max(xenic.Time(float64(base)*seconds/referenceSeconds), 200*xenic.Microsecond)
}

// runWorkload performs one run. Untraced, it measures the end-to-end
// metrics with no observer attached. Traced, it attaches the stats registry
// and the telemetry sampler, profiles CPU and allocations, and adds the
// driver loops, and reports the per-layer metrics. Both check correctness.
func runWorkload(w *workload, seed int64, seconds float64, traced bool) *record {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	window := w.window(seconds)
	rec := &record{Workload: w.Name, Seed: seed, Seconds: seconds, WindowUs: window.Micros(),
		Correct: true, Metrics: map[string]value{}, Sim: map[string]float64{}, Notes: map[string]string{}}
	log := &spanLog{t0: time.Now()}
	log.do("run", func() {
		if traced {
			rec.Trace = 1
			runTraced(w, rec, log, window)
		} else {
			runUntraced(w, rec, log, window)
		}
	})
	rec.Spans = log.spans
	return rec
}

// measured is what the timed window of either kind of run yields.
type measured struct {
	sys      xenic.System
	arrivals *recorder
	res      xenic.Result
	setup    time.Duration
	host     time.Duration
	sliceUs  []float64 // host us per commit of each measure slice
	events   uint64
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	from, to xenic.Time // simulated window
	p50, p99 xenic.Time // closed loop, interpolated
	load0    xenic.LoadStats
	load1    xenic.LoadStats
	open     openLoopStats
}

// measure builds the system, warms it up, times the measure window, drains
// and verifies. afterWarmup and afterWindow let the traced run snapshot its
// observers at the window's edges.
func measure(w *workload, rec *record, log *spanLog, window xenic.Time, opts []xenic.Option,
	afterWarmup, afterWindow func()) *measured {

	m := &measured{}
	var err error
	runtime.GC()
	m.setup = log.do("setup", func() { m.sys, m.arrivals, err = w.build(rec.Seed, opts...) })
	if err != nil {
		rec.fail("build: %v", err)
		return nil
	}
	eng := m.sys.(interface{ Engine() *sim.Engine }).Engine()
	log.do("warmup", func() {
		m.sys.Start()
		m.sys.Run(warmup)
	})
	if afterWarmup != nil {
		afterWarmup()
	}
	m.load0 = m.sys.OfferedLoad()
	// The window is measured as consecutive slices, each timed apart, and
	// host time per commit is the median over the slices: a GC cycle or a
	// scheduling hiccup lands in one or two slices, not in the result. The
	// simulation cannot tell slices from one long window (Measure only reads
	// and resets counters between them), and the sim-clock outcome is summed
	// over all of them.
	step := window / measureSlices
	m.from, m.to = eng.Now(), eng.Now()+step*measureSlices
	ev0 := eng.Events()
	lat := metrics.NewHistogram()
	runtime.ReadMemStats(&m.mem0)
	m.host = log.do("measure", func() {
		for i := 0; i < measureSlices; i++ {
			t := time.Now()
			r := m.sys.Measure(0, step)
			d := time.Since(t)
			m.sliceUs = append(m.sliceUs, float64(d.Nanoseconds())/1e3/float64(max(r.Committed, 1)))
			m.res.Committed += r.Committed
			m.res.Measured += r.Measured
			m.res.Aborts += r.Aborts
			m.res.Failed += r.Failed
			m.res.AbortLocked += r.AbortLocked
			m.res.AbortVersion += r.AbortVersion
			// Read before anything else runs: the per-node histograms keep
			// recording past the slice.
			mergeLatency(lat, m.sys)
		}
	})
	runtime.ReadMemStats(&m.mem1)
	m.events = eng.Events() - ev0
	m.load1 = m.sys.OfferedLoad()
	m.res.PerServerTput = float64(m.res.Measured) / (m.to - m.from).Seconds() / float64(nodes)
	if lat.Count() > 0 {
		m.res.Mean = lat.Mean()
		m.p50, m.p99 = histQuantile(lat, 0.50), histQuantile(lat, 0.99)
	}
	if afterWindow != nil {
		afterWindow()
	}
	if m.res.Committed == 0 {
		rec.fail("nothing committed in a %v window", window)
		return nil
	}

	log.do("drain", func() {
		if !m.sys.Drain(500 * xenic.Millisecond) {
			rec.fail("did not drain")
		}
	})
	log.do("verify", func() {
		if c, ok := m.sys.(interface{ ReplicasConsistent() error }); ok {
			if err := c.ReplicasConsistent(); err != nil {
				rec.fail("replicas diverge: %v", err)
			}
		}
		if c, ok := m.sys.(interface{ CheckInvariants() error }); ok {
			if err := c.CheckInvariants(); err != nil {
				rec.fail("invariants: %v", err)
			}
		}
	})
	if m.arrivals != nil {
		m.open = m.arrivals.window(m.from, m.to, latencyLimit)
	}
	sorted := append([]float64(nil), m.sliceUs...)
	sort.Float64s(sorted)
	rec.HostUsPerTxn = (sorted[(len(sorted)-1)/2] + sorted[len(sorted)/2]) / 2
	rec.Notes["slices_us_per_txn"] = fmt.Sprintf("%.2f", m.sliceUs)
	simMetrics(w, rec, m)
	return m
}

// mergeLatency adds the per-node latency histograms Measure just filled to
// into.
func mergeLatency(into *metrics.Histogram, sys xenic.System) {
	switch c := sys.(type) {
	case *xenic.Cluster:
		for i := 0; i < c.Nodes(); i++ {
			into.Merge(c.Node(i).Stats().Latency)
		}
	case *xenic.BaselineCluster:
		for i := 0; i < c.Nodes(); i++ {
			into.Merge(c.Node(i).Stats().Latency)
		}
	}
}

// simMetrics fills rec.Sim, rec.Attempted and rec.Failed: the sim-clock
// outcome of the window, identical for every run of one (commit, seed,
// seconds) whether or not observers are attached.
func simMetrics(w *workload, rec *record, m *measured) {
	res := m.res
	s := rec.Sim
	s["sim_goodput_ktps"] = res.PerServerTput / 1000
	s["sim_commit_ratio"] = float64(res.Committed) / float64(res.Committed+res.Aborts)
	late := int64(0)
	if w.Loop == "open" {
		// Arrival-to-completion, timed from when each request was due, over
		// the arrivals due inside the window; rejected arrivals never reach
		// the recorder, so they are added from the source's own counter.
		rejected := m.load1.Rejected - m.load0.Rejected
		rec.Attempted = int64(m.open.Arrivals) + rejected
		rec.Failed = int64(m.open.Failed) + rejected
		late = int64(m.open.Late)
		s["sim_mean_us"], s["sim_p50_us"], s["sim_p99_us"] = m.open.MeanUs, m.open.P50Us, m.open.P99Us
		rec.Notes["latency_samples"] = fmt.Sprintf("%d arrivals due in the window (%d failed, %d later than %v), exact order statistics; generator lateness is zero by construction (arrivals are simulated events)",
			m.open.Arrivals, rec.Failed, late, latencyLimit)
	} else {
		rec.Attempted = res.Committed + res.Failed
		rec.Failed = res.Failed
		s["sim_mean_us"], s["sim_p50_us"], s["sim_p99_us"] = res.Mean.Micros(), m.p50.Micros(), m.p99.Micros()
		rec.Notes["latency_samples"] = fmt.Sprintf("%d measured commits, log-bucket histogram interpolated within the bucket", res.Measured)
	}
	// An arrival that misses the latency limit is not a failed operation,
	// but it is not a good one either.
	s["ok_ops_share"] = 1 - float64(rec.Failed+late)/float64(rec.Attempted)
}

func runUntraced(w *workload, rec *record, log *spanLog, window xenic.Time) {
	m := measure(w, rec, log, window, nil, nil, nil)
	if m == nil {
		return
	}
	peakRSS := maxRSSMiB()
	committed := float64(m.res.Committed)

	// Set-up time: this run's construction plus four more back to back, GC
	// between, median of the five. The measured system is dropped first so
	// peak_rss_mb above belongs to the measured run alone.
	setups := []float64{m.setup.Seconds()}
	m.sys, m.arrivals = nil, nil
	log.do("setup_repeats", func() {
		for i := 0; i < 4; i++ {
			runtime.GC()
			t := time.Now()
			if _, _, err := w.build(rec.Seed); err != nil {
				rec.fail("build: %v", err)
				return
			}
			setups = append(setups, time.Since(t).Seconds())
		}
	})
	sort.Float64s(setups)

	vals := map[string]float64{
		"setup_s":               setups[len(setups)/2],
		"host_us_per_txn":       rec.HostUsPerTxn,
		"host_allocs_per_txn":   float64(m.mem1.Mallocs-m.mem0.Mallocs) / committed,
		"host_alloc_kb_per_txn": float64(m.mem1.TotalAlloc-m.mem0.TotalAlloc) / 1024 / committed,
		"peak_rss_mb":           peakRSS,
	}
	for _, d := range endToEnd {
		v, ok := vals[d.Name]
		if !ok {
			v = rec.Sim[d.Name]
		}
		rec.Metrics[d.Name] = value{v, d.Unit}
	}
	rec.Notes["host_us_per_txn"] = fmt.Sprintf("%.3fs host for %d commits, %d events", m.host.Seconds(), m.res.Committed, m.events)

	historyPass(w, rec, log, slice(2*xenic.Millisecond, rec.Seconds))
}

// historyPass is the second half of the correctness gate: a short separate
// run with the history recorder attached must be serializable (no witness
// cycle) and its drained state must match the recorded history. It returns
// the checker's host cost per recorded transaction.
func historyPass(w *workload, rec *record, log *spanLog, window xenic.Time) (usPerTxn float64) {
	log.do("check", func() {
		runtime.GC()
		h := xenic.NewHistory()
		sys, _, err := w.build(rec.Seed, xenic.WithHistory(h))
		if err != nil {
			rec.fail("history pass: build: %v", err)
			return
		}
		sys.Measure(warmup, window)
		if !sys.Drain(500 * xenic.Millisecond) {
			rec.fail("history pass: did not drain")
			return
		}
		t := time.Now()
		rep := h.Check()
		audit := sys.AuditHistory()
		usPerTxn = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(max(h.Len(), 1))
		if !rep.Ok() {
			rec.fail("history pass: not serializable: %v", rep)
		}
		if audit != nil {
			rec.fail("history pass: audit: %v", audit)
		}
		rec.Notes["check"] = fmt.Sprintf("%v; audit clean=%v; %d records over %v", rep, audit == nil, h.Len(), window)
	})
	return usPerTxn
}

func runTraced(w *workload, rec *record, log *spanLog, window xenic.Time) {
	dir, err := os.MkdirTemp(".", "bench-prof-")
	if err != nil {
		rec.fail("profile dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	cpuPath, heapPath := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "heap.pb.gz")
	cpuFile, err := os.Create(cpuPath)
	if err != nil {
		rec.fail("cpu profile: %v", err)
		return
	}
	// Profiles cover the run from construction to the end of the measure
	// window, so set-up allocations (tables, population) are in the shares.
	if err := pprof.StartCPUProfile(cpuFile); err != nil {
		rec.fail("cpu profile: %v", err)
		return
	}
	profiling := true
	stopProfiles := func() {
		if !profiling {
			return
		}
		profiling = false
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			rec.fail("cpu profile: %v", err)
		}
		runtime.GC() // the heap profile is as of the last completed GC
		f, err := os.Create(heapPath)
		if err == nil {
			err = pprof.Lookup("allocs").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			rec.fail("heap profile: %v", err)
		}
	}
	defer stopProfiles()

	reg := xenic.NewStatsRegistry()
	tel := xenic.NewTelemetry(0)
	var snap0, snap1 map[string]any
	m := measure(w, rec, log, window, []xenic.Option{xenic.WithStats(reg), xenic.WithTelemetry(tel)},
		func() { snap0 = reg.Snapshot() },
		func() {
			snap1 = reg.Snapshot()
			tel.Stop()
			stopProfiles()
		})
	if m == nil {
		return
	}
	m.sys = nil

	out := map[string]float64{}
	log.do("profiles", func() {
		if err := profileShares(cpuPath, "", cpuLayers, "host_cpu_share", out); err != nil {
			rec.fail("cpu profile: %v", err)
		}
		if err := profileShares(heapPath, "alloc_space", allocLayers, "host_alloc_share", out); err != nil {
			rec.fail("heap profile: %v", err)
		}
	})
	simLayerMetrics(w, rec, m, snap0, snap1, tel.Set(), out)
	out["check.us_per_txn"] = historyPass(w, rec, log, slice(1*xenic.Millisecond, rec.Seconds))
	log.do("drivers", func() { driverLoops(w, rec, out) })
	log.do("trace_overhead", func() { out["trace.overhead_ratio"] = tracerOverhead(w, rec) })

	for _, d := range perLayer() {
		rec.Metrics[d.Name] = value{out[d.Name], d.Unit}
	}
}

// tracerOverhead is the host cost of the Perfetto tracer: host time per
// commit over a short slice with the tracer attached, divided by the same
// slice without. The tracer is too expensive in time and memory to attach
// to the full traced run, which is why it is measured apart.
func tracerOverhead(w *workload, rec *record) float64 {
	usPerTxn := func(opts ...xenic.Option) float64 {
		runtime.GC()
		sys, _, err := w.build(rec.Seed, opts...)
		if err != nil {
			rec.fail("tracer slice: build: %v", err)
			return 0
		}
		sys.Start()
		sys.Run(warmup)
		t := time.Now()
		res := sys.Measure(0, slice(1*xenic.Millisecond, rec.Seconds))
		return float64(time.Since(t).Nanoseconds()) / 1e3 / float64(max(res.Committed, 1))
	}
	off := usPerTxn()
	on := usPerTxn(xenic.WithTracer(xenic.NewTracer()))
	if off == 0 {
		return 0
	}
	return on / off
}

// maxRSSMiB is the process's peak resident set so far.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
