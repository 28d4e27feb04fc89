package harness

import (
	"fmt"

	"xenic/internal/baseline"
	"xenic/internal/sim"
	"xenic/internal/txnmodel"
	"xenic/internal/workload/retwis"
	"xenic/internal/workload/smallbank"
	"xenic/internal/workload/tpcc"
)

// This file regenerates Figure 8: per-server throughput and median latency
// for TPC-C new-order (a), full TPC-C (b), Retwis (c), and Smallbank (d),
// comparing Xenic against DrTM+H, DrTM+H NC, FaSST, and DrTM+R.

func init() {
	register(&Experiment{
		ID:       "fig8a",
		Title:    "TPC-C new-order: throughput vs median latency",
		PaperRef: "Figure 8a: Xenic 1.19M txn/s/server, 2.42x DrTM+H, 3.81x NC; FaSST 232k",
		Run:      func(o Options) *Report { return runFig8(o, "fig8a") },
	})
	register(&Experiment{
		ID:       "fig8b",
		Title:    "Full TPC-C: new-order throughput vs median latency",
		PaperRef: "Figure 8b: Xenic 541k NO/s/server, ~25us median at low load; one-link vs DrTM+R 2.1x",
		Run:      func(o Options) *Report { return runFig8(o, "fig8b") },
	})
	register(&Experiment{
		ID:       "fig8c",
		Title:    "Retwis: throughput vs median latency",
		PaperRef: "Figure 8c: Xenic 2.07x DrTM+H, 42% lower latency; FaSST median 2.12x Xenic",
		Run:      func(o Options) *Report { return runFig8(o, "fig8c") },
	})
	register(&Experiment{
		ID:       "fig8d",
		Title:    "Smallbank: throughput vs median latency",
		PaperRef: "Figure 8d: Xenic 12.0M txn/s/server, 2.21x DrTM+H, 21.5% lower min median",
		Run:      func(o Options) *Report { return runFig8(o, "fig8d") },
	})
}

// workloadSetup describes one benchmark's cluster sizing.
type workloadSetup struct {
	name    string
	gen     func(quick bool) txnmodel.Generator
	app     int // Xenic host application threads
	workers int // Xenic host worker threads
	nic     int // Xenic NIC cores
	threads int // baseline host threads
	// windows are per-node outstanding-transaction targets (offered load
	// sweep); each system divides by its thread count.
	windows []int
	oneLink bool
}

func tpccGen(newOrderOnly, quick bool) txnmodel.Generator {
	var g *tpcc.Gen
	if newOrderOnly {
		g = tpcc.NewOrderVariant()
	} else {
		g = tpcc.New()
	}
	if quick {
		g.WarehousesPerServer = 12
		g.ItemsPerWarehouse = 500
		g.CustomersPerDistrict = 30
	}
	return g
}

func retwisGen(quick bool) txnmodel.Generator {
	g := retwis.New()
	g.KeysPerServer = 250_000
	if quick {
		g.KeysPerServer = 40_000
	}
	return g
}

func smallbankGen(quick bool) txnmodel.Generator {
	g := smallbank.New()
	g.AccountsPerServer = 250_000
	if quick {
		g.AccountsPerServer = 40_000
	}
	return g
}

func setupFor(id string) workloadSetup {
	switch id {
	case "fig8a":
		return workloadSetup{name: "tpcc-neworder",
			gen: func(q bool) txnmodel.Generator { return tpccGen(true, q) },
			app: 12, workers: 6, nic: 12, threads: 16,
			windows: []int{12, 24, 48, 96, 192}}
	case "fig8b":
		return workloadSetup{name: "tpcc",
			gen: func(q bool) txnmodel.Generator { return tpccGen(false, q) },
			app: 12, workers: 6, nic: 12, threads: 16,
			windows: []int{12, 24, 48, 96, 192}, oneLink: true}
	case "fig8c":
		return workloadSetup{name: "retwis",
			gen: func(q bool) txnmodel.Generator { return retwisGen(q) },
			app: 2, workers: 3, nic: 16, threads: 16,
			windows: []int{16, 32, 64, 128, 256, 512}}
	case "fig8d":
		return workloadSetup{name: "smallbank",
			gen: func(q bool) txnmodel.Generator { return smallbankGen(q) },
			app: 2, workers: 3, nic: 16, threads: 16,
			windows: []int{16, 32, 64, 128, 256, 512}}
	}
	panic("harness: unknown fig8 id " + id)
}

// point is one measured (throughput, latency) sample.
type point struct {
	window int
	tput   float64
	median sim.Time
}

func peak(ps []point) float64 {
	best := 0.0
	for _, p := range ps {
		if p.tput > best {
			best = p.tput
		}
	}
	return best
}

func lowLat(ps []point) sim.Time {
	if len(ps) == 0 {
		return 0
	}
	best := ps[0].median
	for _, p := range ps {
		if p.median > 0 && (best == 0 || p.median < best) {
			best = p.median
		}
	}
	return best
}

func runFig8(opt Options, id string) *Report {
	s := setupFor(id)
	warm, win := 3*sim.Millisecond, 10*sim.Millisecond
	windows := s.windows
	if opt.Quick {
		warm, win = 1*sim.Millisecond, 3*sim.Millisecond
		windows = []int{s.windows[0], s.windows[len(s.windows)/2], s.windows[len(s.windows)-2]}
	}
	r := &Report{ID: id, Title: s.name + ": per-server throughput vs median latency",
		Header: []string{"system", "window", "tput/server", "median"}}

	specs := fig8Specs(s, opt)
	series := runCurves(opt, specs, windows, warm, win)
	curves := map[string][]point{}
	for i, spec := range specs {
		curves[spec.name] = series[i]
		for _, p := range series[i] {
			r.AddCells(Text(spec.name), Count(p.window), Tput(p.tput), Micros(p.median))
		}
	}

	xPeak := peak(curves["Xenic"])
	if d := curves["DrTM+H"]; len(d) > 0 && peak(d) > 0 {
		r.AddNote("peak throughput: Xenic %s vs DrTM+H %s -> %.2fx (paper: %s)",
			ktps(xPeak), ktps(peak(d)), xPeak/peak(d), paperPeakRatio(id))
		xl, dl := lowLat(curves["Xenic"]), lowLat(d)
		if dl > 0 {
			r.AddNote("low-load median: Xenic %s vs DrTM+H %s -> %.0f%% lower (paper: %s)",
				us(xl), us(dl), 100*(1-xl.Seconds()/dl.Seconds()), paperLatGain(id))
		}
	}
	if f := curves["FaSST"]; len(f) > 0 && peak(f) > 0 {
		r.AddNote("FaSST peak %s (paper fig8a: 232k)", ktps(peak(f)))
	}

	if s.oneLink {
		// §5.3: one 50Gbps link, compare Xenic against DrTM+R.
		oneLink := func(sys string) func(int) string {
			return func(int) string { return s.name + "/" + sys + "/one-link" }
		}
		ol := runCurves(opt, []curveSpec{
			{"Xenic", oneLink("xenic"), xenicBuilder(s, opt, true)},
			{"DrTM+R", oneLink("DrTM+R"), baselineBuilder(baseline.DrTMR, s, opt, true)},
		}, []int{96}, warm, win)
		xe, dr := ol[0][0].tput, ol[1][0].tput
		ratio := 0.0
		if dr > 0 {
			ratio = xe / dr
		}
		r.AddNote("one-link (50Gbps): Xenic %s vs DrTM+R %s -> %.2fx (paper: 322k vs 150k, 2.1x)",
			ktps(xe), ktps(dr), ratio)
	}
	finishTelemetry(r, opt)
	if r.Bottlenecks != nil {
		// Name the limiting resource at the most contended point of the sweep:
		// the Xenic cell with the largest offered-load window.
		label := fmt.Sprintf("%s/xenic/w%d", s.name, windows[len(windows)-1])
		if v, ok := r.Bottlenecks[label]; ok {
			r.AddNote("bottleneck at window %d: %s", windows[len(windows)-1], v)
		}
	}
	return r
}

func paperPeakRatio(id string) string {
	switch id {
	case "fig8a":
		return "2.42x"
	case "fig8b":
		return "n/a (paper compares one-link vs DrTM+R)"
	case "fig8c":
		return "2.07x"
	case "fig8d":
		return "2.21x"
	}
	return "?"
}

func paperLatGain(id string) string {
	switch id {
	case "fig8a":
		return "59%"
	case "fig8b":
		return "~25us median at low load"
	case "fig8c":
		return "42%"
	case "fig8d":
		return "21.5%"
	}
	return "?"
}

func perThread(total, threads int) int {
	v := total / threads
	if v < 1 {
		v = 1
	}
	return v
}
