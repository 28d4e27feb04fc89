package harness

import (
	"fmt"

	"xenic"
	"xenic/internal/baseline"
	"xenic/internal/core"
	"xenic/internal/sim"
)

// This file regenerates Figure 9 (§5.7): sequentially enabling Xenic's
// design features against a DrTM+H-like baseline.

func init() {
	register(&Experiment{
		ID:       "fig9a",
		Title:    "Retwis throughput, enabling throughput-oriented features",
		PaperRef: "Figure 9a: baseline 0.90x DrTM+H -> +smart ops 1.47x -> +Eth agg 1.98x -> +async DMA 2.30x",
		Run:      runFig9a,
	})
	register(&Experiment{
		ID:       "fig9b",
		Title:    "Smallbank low-load median latency, enabling latency-oriented features",
		PaperRef: "Figure 9b: baseline 1.37x DrTM+H -> +smart ops -20% -> +NIC exec -32% -> +OCC opt -42%",
		Run:      runFig9b,
	})
}

// featureStep is one cumulative feature set of a Figure 9 panel.
type featureStep struct {
	name string
	feat core.Features
}

// runFig9 measures one Figure 9 panel at a fixed per-thread window: cell 0
// is the DrTM+H reference, cells 1.. the Xenic feature steps, each labelled
// "<id>/<name>".
func runFig9(opt Options, id string, s workloadSetup, window int, steps []featureStep) []Result {
	warm, win := 3*sim.Millisecond, 10*sim.Millisecond
	if opt.Quick {
		warm, win = 1*sim.Millisecond, 3*sim.Millisecond
	}
	return runCells(opt, len(steps)+1, func(i int, o Options) Result {
		if i == 0 {
			return measure(o, id+"/DrTM+H", warm, win, func(opts ...xenic.Option) (*xenic.BaselineCluster, error) {
				cfg := baseline.DefaultConfig(baseline.DrTMH)
				cfg.Threads, cfg.Outstanding, cfg.Seed = s.threads, window, o.Seed
				return xenic.NewBaseline(cfg, s.gen(o.Quick), opts...)
			})
		}
		st := steps[i-1]
		return measure(o, id+"/"+st.name, warm, win, func(opts ...xenic.Option) (*xenic.Cluster, error) {
			cfg := core.DefaultConfig()
			cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = s.app, s.workers, s.nic
			cfg.Outstanding, cfg.Features, cfg.Seed = window, st.feat, o.Seed
			return xenic.NewCluster(cfg, s.gen(o.Quick), opts...)
		})
	})
}

func runFig9a(opt Options) *Report {
	r := &Report{ID: "fig9a", Title: "Retwis per-server peak throughput by feature set",
		Header: []string{"config", "tput/server", "vs baseline", "vs DrTM+H"}}

	// Throughput-oriented ablation runs with execution at the host
	// (NICExecution and multi-hop are latency features, §5.7).
	steps := []featureStep{
		{"Xenic baseline", core.Features{}},
		{"+ Smart remote ops", core.Features{SmartRemoteOps: true}},
		{"+ Eth aggregation", core.Features{SmartRemoteOps: true, EthAggregation: true}},
		{"+ Async DMA", core.Features{SmartRemoteOps: true, EthAggregation: true, AsyncDMA: true}},
	}
	window := 16
	if opt.Quick {
		window = 8
	}
	results := runFig9(opt, "fig9a", setupFor("fig8c"), window, steps)

	dres := results[0]
	r.AddCells(Text("DrTM+H"), Tput(dres.PerServerTput), Text("-"), Text("1.00x"))
	base := results[1].PerServerTput
	for i, st := range steps {
		res := results[i+1]
		vsBase, vsD := Text("-"), Text("-")
		if base > 0 {
			v := res.PerServerTput / base
			vsBase = Num(v, fmt.Sprintf("%.2fx", v))
		}
		if dres.PerServerTput > 0 {
			v := res.PerServerTput / dres.PerServerTput
			vsD = Num(v, fmt.Sprintf("%.2fx", v))
		}
		r.AddCells(Text(st.name), Tput(res.PerServerTput), vsBase, vsD)
	}
	r.AddNote("paper: 1.00x -> 1.47x -> 1.98x -> 2.30x over baseline; final = 2.07x DrTM+H")
	finishTelemetry(r, opt)
	return r
}

func runFig9b(opt Options) *Report {
	r := &Report{ID: "fig9b", Title: "Smallbank low-load median latency by feature set",
		Header: []string{"config", "median", "vs baseline", "vs DrTM+H"}}

	rt := core.Features{EthAggregation: true, AsyncDMA: true}
	steps := []featureStep{
		{"Xenic baseline", rt},
		{"+ Smart remote ops", with(rt, func(f *core.Features) { f.SmartRemoteOps = true })},
		{"+ NIC execution", with(rt, func(f *core.Features) { f.SmartRemoteOps = true; f.NICExecution = true })},
		{"+ OCC optimization", with(rt, func(f *core.Features) {
			f.SmartRemoteOps = true
			f.NICExecution = true
			f.MultiHopOCC = true
		})},
	}
	results := runFig9(opt, "fig9b", setupFor("fig8d"), 1, steps) // low load

	dres := results[0]
	r.AddCells(Text("DrTM+H"), Micros(dres.Median), Text("-"), Text("1.00x"))
	base := results[1].Median
	for i, st := range steps {
		res := results[i+1]
		vsBase, vsD := Text("-"), Text("-")
		if base > 0 {
			v := 100 * (1 - res.Median.Seconds()/base.Seconds())
			vsBase = Num(v, fmt.Sprintf("%.0f%%", v))
		}
		if dres.Median > 0 {
			v := res.Median.Seconds() / dres.Median.Seconds()
			vsD = Num(v, fmt.Sprintf("%.2fx", v))
		}
		r.AddCells(Text(st.name), Micros(res.Median), vsBase, vsD)
	}
	r.AddNote("paper: baseline 1.37x DrTM+H; -20%%, -32%%, -42%% vs baseline; final 0.78x DrTM+H")
	finishTelemetry(r, opt)
	return r
}

func with(f core.Features, fn func(*core.Features)) core.Features {
	fn(&f)
	return f
}
