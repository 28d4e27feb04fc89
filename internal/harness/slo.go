package harness

import (
	"fmt"

	"xenic"
	"xenic/internal/baseline"
	"xenic/internal/core"
	"xenic/internal/openloop"
	"xenic/internal/sim"
	"xenic/internal/txnmodel"
	"xenic/internal/workload/smallbank"
)

// slo is the open-loop methodology experiment. Closed-loop generators (the
// fig8 sweeps) self-throttle: when the system saturates, the generator slows
// with it and reported latency stays flat. Driving the same clusters with
// the open-loop front-end instead exposes the "hockey stick": p99 is flat
// while offered load is below the saturation knee, then diverges as the
// arrival rate outruns service capacity and queueing delay accumulates
// without bound. The final cell shows admission control cutting the stick
// off — a queue-depth policy bounds in-flight work, holding p99 near the
// service floor past saturation at the price of rejecting the excess.

func init() {
	register(&Experiment{
		ID:       "slo",
		Title:    "Open-loop hockey stick: offered load vs p99, admission control vs SLO",
		PaperRef: "open-loop load methodology; DESIGN.md §13 (LoadSource front-end)",
		Run:      runSLO,
	})
}

// SLOTuning carries cmd/xenic-bench's open-loop flag overrides into the slo
// experiment (Options.SLO). Zero values keep the experiment defaults.
type SLOTuning struct {
	Arrival  string // arrival process: poisson (default) | pareto
	Admit    string // admission-cell policy spec ("" or "none" = queue:64:64)
	Sessions int    // client sessions (0 = 64)
	SLOUs    int    // p99 SLO bound in microseconds (0 = 5x the low-load p99)
}

func runSLO(opt Options) *Report {
	const nodes = 4
	warm, win := 2*sim.Millisecond, 6*sim.Millisecond
	fracs := []float64{0.3, 0.6, 0.9, 1.1, 1.4}
	if opt.Quick {
		warm, win = 1*sim.Millisecond, 2*sim.Millisecond
		fracs = []float64{0.3, 0.9, 1.4}
	}
	tune := opt.SLO
	if tune == nil {
		tune = &SLOTuning{}
	}
	arrival := tune.Arrival
	if arrival == "" {
		arrival = "poisson"
	}
	sessions := tune.Sessions
	if sessions == 0 {
		sessions = 64
	}
	admitSpec := tune.Admit
	if admitSpec == "" || admitSpec == "none" {
		// Bound cluster-wide in-flight work near the calibration concurrency
		// and keep the standing queue short, so queueing delay stays small
		// even when the excess is rejected.
		admitSpec = "queue:64:64"
	}
	// Fail fast on bad flag specs; cells re-parse to get private (stateful)
	// policy instances.
	if _, err := openloop.ParseArrival(arrival); err != nil {
		panic(err)
	}
	if _, err := openloop.ParseAdmission(admitSpec); err != nil {
		panic(err)
	}

	gen := func() txnmodel.Generator {
		g := smallbank.New()
		g.AccountsPerServer = 20_000
		return g
	}
	systems := []string{"Xenic", "DrTM+H"}
	xenicCfg := func(seed int64) core.Config {
		cfg := core.DefaultConfig()
		cfg.Nodes = nodes
		cfg.Replication = 3
		cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = 2, 2, 8
		cfg.Seed = seed
		return cfg
	}
	drtmhCfg := func(seed int64) baseline.Config {
		cfg := baseline.DefaultConfig(baseline.DrTMH)
		cfg.Nodes = nodes
		cfg.Replication = 3
		cfg.Threads = 8
		cfg.Seed = seed
		return cfg
	}

	// Phase 1: closed-loop calibration. Each system's saturated closed-loop
	// throughput C anchors the sweep's offered rates, so "1.4x" means the
	// same thing run to run and system to system.
	const calWindow = 64 // outstanding txns per node
	capacity := runCells(opt, len(systems), func(i int, o Options) float64 {
		tel, reg := o.Telemetry.Sampler(), o.Stats.Registry()
		var sys xenic.System
		var err error
		if i == 0 {
			cfg := xenicCfg(o.Seed)
			cfg.Outstanding = perThread(calWindow, cfg.AppThreads)
			sys, err = xenic.NewCluster(cfg, gen(), xenic.WithTelemetry(tel), xenic.WithStats(reg))
		} else {
			cfg := drtmhCfg(o.Seed)
			cfg.Outstanding = perThread(calWindow, cfg.Threads)
			sys, err = xenic.NewBaseline(cfg, gen(), xenic.WithTelemetry(tel), xenic.WithStats(reg))
		}
		if err != nil {
			panic(err)
		}
		res := sys.Measure(warm, win)
		label := "slo/calibrate/" + systems[i]
		o.Stats.Done(label, reg)
		o.Telemetry.Done(label, tel)
		return res.PerServerTput * nodes
	})

	// Phase 2: the open-loop sweep (every system x fraction, no admission)
	// plus one admission cell — Xenic at the top fraction with the policy on.
	type cellDef struct {
		si    int
		frac  float64
		admit string
	}
	var cells []cellDef
	for si := range systems {
		for _, f := range fracs {
			cells = append(cells, cellDef{si, f, "none"})
		}
	}
	admCell := len(cells)
	cells = append(cells, cellDef{0, fracs[len(fracs)-1], admitSpec})

	type openPoint struct {
		offered, completed, rejected float64 // cluster-wide rates [1/s]
		p50, p99, qd99               sim.Time
	}
	points := runCells(opt, len(cells), func(i int, o Options) openPoint {
		c := cells[i]
		arr, err := openloop.ParseArrival(arrival)
		if err != nil {
			panic(err)
		}
		adm, err := openloop.ParseAdmission(c.admit)
		if err != nil {
			panic(err)
		}
		olc := openloop.Config{
			Rate:     capacity[c.si] * c.frac,
			Arrival:  arr,
			Sessions: sessions,
			Admit:    adm,
			Seed:     o.Seed,
		}
		tel, reg := o.Telemetry.Sampler(), o.Stats.Registry()
		var sys xenic.System
		if c.si == 0 {
			cfg := xenicCfg(o.Seed)
			sys, err = xenic.NewCluster(cfg, gen(), xenic.WithOpenLoop(olc), xenic.WithTelemetry(tel), xenic.WithStats(reg))
		} else {
			cfg := drtmhCfg(o.Seed)
			sys, err = xenic.NewBaseline(cfg, gen(), xenic.WithOpenLoop(olc), xenic.WithTelemetry(tel), xenic.WithStats(reg))
		}
		if err != nil {
			panic(err)
		}
		// No warmup: open-loop latency is client-observed, so the whole
		// arrival timeline from t=0 is the measurement — a warmup at an
		// overloaded rate would only pre-build the backlog the window is
		// meant to expose.
		sys.Start()
		sys.Measure(0, win)
		s := sys.OfferedLoad()
		label := fmt.Sprintf("slo/%s/%.1fx-%s", systems[c.si], c.frac, c.admit)
		o.Stats.Done(label, reg)
		o.Telemetry.Done(label, tel)
		sec := win.Seconds()
		return openPoint{
			offered:   float64(s.Offered) / sec,
			completed: float64(s.Completed) / sec,
			rejected:  float64(s.Rejected) / sec,
			p50:       s.LatencyP50,
			p99:       s.LatencyP99,
			qd99:      s.QueueDelayP99,
		}
	})

	slo := sim.Time(tune.SLOUs) * sim.Microsecond
	if slo == 0 {
		// Derive the bound from the measured service floor: 5x the p99 of
		// Xenic's lowest-rate cell, where queueing is negligible.
		slo = 5 * points[0].p99
	}

	r := &Report{ID: "slo",
		Title:  fmt.Sprintf("open-loop %s arrivals, %d sessions: throughput vs p99", arrival, sessions),
		Header: []string{"system", "load", "offered/s", "completed/s", "admit", "rejected/s", "p50", "p99", "p99<=slo"}}
	row := func(c cellDef, p openPoint) {
		within := "yes"
		if p.p99 > slo {
			within = "NO"
		}
		r.AddCells(Text(systems[c.si]), Text(fmt.Sprintf("%.1fxC", c.frac)),
			Tput(p.offered), Tput(p.completed), Text(c.admit), Tput(p.rejected),
			Micros(p.p50), Micros(p.p99), Text(within))
	}
	for i, c := range cells {
		row(c, points[i])
	}

	for si, name := range systems {
		r.AddNote("closed-loop calibration %s: C = %s cluster-wide (window %d/node)",
			name, ktps(capacity[si]), calWindow)
	}
	r.AddNote("SLO bound: p99 <= %s%s", us(slo), map[bool]string{true: " (5x Xenic low-load p99)", false: " (-slo-us)"}[tune.SLOUs == 0])

	// The hockey stick: below the knee p99 sits at the service floor; past
	// it, unadmitted p99 grows with the backlog.
	lowIdx, topIdx := 0, len(fracs)-1
	low, top := points[lowIdx], points[topIdx]
	if low.p99 > 0 {
		r.AddNote("hockey stick (Xenic, no admission): p99 %s at %.1fxC -> %s at %.1fxC (%.1fx)",
			us(low.p99), fracs[lowIdx], us(top.p99), fracs[topIdx],
			top.p99.Seconds()/low.p99.Seconds())
	}
	adm := points[admCell]
	switch {
	case adm.p99 <= slo && top.p99 > slo:
		r.AddNote("admission control (%s) holds p99 within the SLO at %.1fxC (%s vs %s unadmitted), rejecting %s/s",
			admitSpec, fracs[topIdx], us(adm.p99), us(top.p99), ktps(adm.rejected))
	case adm.p99 <= slo:
		r.AddNote("admission cell met the SLO (%s) but so did the unadmitted run — raise the sweep if the knee moved", us(adm.p99))
	default:
		r.AddNote("FAILURE: admission cell p99 %s exceeds the SLO %s", us(adm.p99), us(slo))
	}
	r.AddNote("open-loop latency is client-observed (arrival to completion, queue delay included); closed-loop sweeps cannot show the divergence")
	finishTelemetry(r, opt)
	return r
}
