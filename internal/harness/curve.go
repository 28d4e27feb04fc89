package harness

import (
	"fmt"

	"xenic"
	"xenic/internal/baseline"
	"xenic/internal/core"
	"xenic/internal/sim"
)

// This file is the generic throughput/latency curve runner: every system —
// the Xenic cluster and each baseline — is measured through xenic.System,
// so a sweep is described by a builder function and a stats label, and the
// former per-system runner duplicates (runXenicCurve / runBaselineCurve and
// their one-link variants) collapse into runCurve.

// Result is the shared measurement summary every System reports.
type Result = xenic.Result

// builder constructs a configured System for one offered-load window;
// observers (telemetry samplers in particular) ride along as
// construction-time options.
type builder func(window int, opts ...xenic.Option) (xenic.System, error)

// xenicBuilder returns a builder for the Xenic cluster under setup s.
// oneLink halves the fabric to a single 50Gbps link (§5.3).
func xenicBuilder(s workloadSetup, opt Options, oneLink bool) builder {
	return func(w int, opts ...xenic.Option) (xenic.System, error) {
		cfg := core.DefaultConfig()
		if oneLink {
			cfg.Params = cfg.Params.OneLink()
		}
		cfg.AppThreads = s.app
		cfg.WorkerThreads = s.workers
		cfg.NICCores = s.nic
		cfg.Outstanding = perThread(w, s.app)
		cfg.Seed = opt.Seed
		return xenic.NewCluster(cfg, s.gen(opt.Quick), opts...)
	}
}

// baselineBuilder returns a builder for baseline system sys under setup s.
func baselineBuilder(sys baseline.System, s workloadSetup, opt Options, oneLink bool) builder {
	return func(w int, opts ...xenic.Option) (xenic.System, error) {
		cfg := baseline.DefaultConfig(sys)
		if oneLink {
			cfg.Params = cfg.Params.OneLink()
		}
		cfg.Threads = s.threads
		cfg.Outstanding = perThread(w, s.threads)
		cfg.Seed = opt.Seed
		return xenic.NewBaseline(cfg, s.gen(opt.Quick), opts...)
	}
}

// runCurve measures one system across the offered-load windows — one pool
// cell per window — and returns the (window, throughput, median) samples in
// window order. label names each window's stats snapshot.
func runCurve(opt Options, windows []int, warm, win sim.Time,
	label func(w int) string, build builder) []point {
	return runCells(opt, len(windows), func(i int, o Options) point {
		w := windows[i]
		tel, reg := o.Telemetry.Sampler(), o.Stats.Registry()
		sys, err := build(w, xenic.WithTelemetry(tel), xenic.WithStats(reg))
		if err != nil {
			panic(err)
		}
		res := sys.Measure(warm, win)
		o.Stats.Done(label(w), reg)
		o.Telemetry.Done(label(w), tel)
		return point{window: w, tput: res.PerServerTput, median: res.Median}
	})
}

// curveSpec names one system's sweep for runCurves.
type curveSpec struct {
	name  string // row/series label ("Xenic", "DrTM+H", ...)
	stats string // stats-label component ("xenic", "DrTM+H", ...)
	build builder
}

// fig8Specs are the five systems of a Figure 8 panel, Xenic first.
func fig8Specs(s workloadSetup, opt Options) []curveSpec {
	specs := []curveSpec{{name: "Xenic", stats: "xenic", build: xenicBuilder(s, opt, false)}}
	for _, sys := range []baseline.System{baseline.DrTMH, baseline.DrTMHNC, baseline.FaSST, baseline.DrTMR} {
		specs = append(specs, curveSpec{name: sys.String(), stats: sys.String(),
			build: baselineBuilder(sys, s, opt, false)})
	}
	return specs
}

// runCurves sweeps every spec over windows as one flat pool of cells
// (len(specs) x len(windows)), so a multi-system figure saturates the
// worker pool instead of parallelizing only within one system's sweep.
// Results are returned per spec, in spec order.
func runCurves(s workloadSetup, opt Options, specs []curveSpec, windows []int, warm, win sim.Time) [][]point {
	type cellID struct{ spec, win int }
	var ids []cellID
	for si := range specs {
		for wi := range windows {
			ids = append(ids, cellID{si, wi})
		}
	}
	flat := runCells(opt, len(ids), func(i int, o Options) point {
		id := ids[i]
		w := windows[id.win]
		tel, reg := o.Telemetry.Sampler(), o.Stats.Registry()
		sys, err := specs[id.spec].build(w, xenic.WithTelemetry(tel), xenic.WithStats(reg))
		if err != nil {
			panic(err)
		}
		res := sys.Measure(warm, win)
		label := fmt.Sprintf("%s/%s/w%d", s.name, specs[id.spec].stats, w)
		o.Stats.Done(label, reg)
		o.Telemetry.Done(label, tel)
		return point{window: w, tput: res.PerServerTput, median: res.Median}
	})
	out := make([][]point, len(specs))
	for i, id := range ids {
		out[id.spec] = append(out[id.spec], flat[i])
	}
	return out
}
