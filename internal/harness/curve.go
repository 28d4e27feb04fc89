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
// so a sweep is described by a builder function and a label per window.

// Result is the shared measurement summary every System reports.
type Result = xenic.Result

// builder constructs a configured System for one offered-load window;
// observers (telemetry samplers in particular) ride along as
// construction-time options.
type builder func(window int, opts ...xenic.Option) (xenic.System, error)

// at binds b to one window, in the shape measure takes.
func (b builder) at(w int) func(...xenic.Option) (xenic.System, error) {
	return func(opts ...xenic.Option) (xenic.System, error) { return b(w, opts...) }
}

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

// curveSpec names one system's sweep for runCurves.
type curveSpec struct {
	name  string             // row/series label ("Xenic", "DrTM+H", ...)
	label func(w int) string // stats/telemetry label of the cell at window w
	build builder
}

// windowLabel labels setup s's cells "<workload>/<sys>/w<window>".
func windowLabel(s workloadSetup, sys string) func(int) string {
	return func(w int) string { return fmt.Sprintf("%s/%s/w%d", s.name, sys, w) }
}

// fig8Specs are the five systems of a Figure 8 panel, Xenic first.
func fig8Specs(s workloadSetup, opt Options) []curveSpec {
	specs := []curveSpec{{"Xenic", windowLabel(s, "xenic"), xenicBuilder(s, opt, false)}}
	for _, sys := range []baseline.System{baseline.DrTMH, baseline.DrTMHNC, baseline.FaSST, baseline.DrTMR} {
		specs = append(specs, curveSpec{sys.String(), windowLabel(s, sys.String()),
			baselineBuilder(sys, s, opt, false)})
	}
	return specs
}

// runCurves sweeps every spec over windows as one flat pool of cells
// (len(specs) x len(windows)), so a multi-system figure saturates the
// worker pool instead of parallelizing only within one system's sweep.
// Results are returned per spec, in spec order.
func runCurves(opt Options, specs []curveSpec, windows []int, warm, win sim.Time) [][]point {
	flat := runCells(opt, len(specs)*len(windows), func(i int, o Options) point {
		spec, w := specs[i/len(windows)], windows[i%len(windows)]
		res := measure(o, spec.label(w), warm, win, spec.build.at(w))
		return point{window: w, tput: res.PerServerTput, median: res.Median}
	})
	out := make([][]point, len(specs))
	for i := range specs {
		out[i] = flat[i*len(windows) : (i+1)*len(windows)]
	}
	return out
}
