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

func runFig9a(opt Options) *Report {
	s := setupFor("fig8c")
	warm, win := 3*sim.Millisecond, 10*sim.Millisecond
	if opt.Quick {
		warm, win = 1*sim.Millisecond, 3*sim.Millisecond
	}
	r := &Report{ID: "fig9a", Title: "Retwis per-server peak throughput by feature set",
		Header: []string{"config", "tput/server", "vs baseline", "vs DrTM+H"}}

	// Throughput-oriented ablation runs with execution at the host
	// (NICExecution and multi-hop are latency features, §5.7).
	steps := []struct {
		name string
		feat core.Features
	}{
		{"Xenic baseline", core.Features{}},
		{"+ Smart remote ops", core.Features{SmartRemoteOps: true}},
		{"+ Eth aggregation", core.Features{SmartRemoteOps: true, EthAggregation: true}},
		{"+ Async DMA", core.Features{SmartRemoteOps: true, EthAggregation: true, AsyncDMA: true}},
	}
	window := 16
	if opt.Quick {
		window = 8
	}

	// Cell 0 is the DrTM+H reference, cells 1..4 the feature steps.
	results := runCells(opt, len(steps)+1, func(i int, o Options) Result {
		if i == 0 {
			dcfg := baseline.DefaultConfig(baseline.DrTMH)
			dcfg.Threads = s.threads
			dcfg.Outstanding = window
			dcfg.Seed = o.Seed
			tel, reg := o.Telemetry.Sampler(), o.Stats.Registry()
			dcl, err := xenic.NewBaseline(dcfg, s.gen(o.Quick), xenic.WithTelemetry(tel), xenic.WithStats(reg))
			if err != nil {
				panic(err)
			}
			res := dcl.Measure(warm, win)
			o.Stats.Done("fig9a/DrTM+H", reg)
			o.Telemetry.Done("fig9a/DrTM+H", tel)
			return res
		}
		st := steps[i-1]
		cfg := core.DefaultConfig()
		cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = s.app, s.workers, s.nic
		cfg.Outstanding = window
		cfg.Features = st.feat
		cfg.Seed = o.Seed
		tel, reg := o.Telemetry.Sampler(), o.Stats.Registry()
		cl, err := xenic.NewCluster(cfg, s.gen(o.Quick), xenic.WithTelemetry(tel), xenic.WithStats(reg))
		if err != nil {
			panic(err)
		}
		res := cl.Measure(warm, win)
		o.Stats.Done("fig9a/"+st.name, reg)
		o.Telemetry.Done("fig9a/"+st.name, tel)
		return res
	})

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
	s := setupFor("fig8d")
	warm, win := 3*sim.Millisecond, 10*sim.Millisecond
	if opt.Quick {
		warm, win = 1*sim.Millisecond, 3*sim.Millisecond
	}
	r := &Report{ID: "fig9b", Title: "Smallbank low-load median latency by feature set",
		Header: []string{"config", "median", "vs baseline", "vs DrTM+H"}}

	rt := core.Features{EthAggregation: true, AsyncDMA: true}
	steps := []struct {
		name string
		feat core.Features
	}{
		{"Xenic baseline", rt},
		{"+ Smart remote ops", with(rt, func(f *core.Features) { f.SmartRemoteOps = true })},
		{"+ NIC execution", with(rt, func(f *core.Features) { f.SmartRemoteOps = true; f.NICExecution = true })},
		{"+ OCC optimization", with(rt, func(f *core.Features) {
			f.SmartRemoteOps = true
			f.NICExecution = true
			f.MultiHopOCC = true
		})},
	}

	// Cell 0 is the DrTM+H reference, cells 1..4 the feature steps.
	results := runCells(opt, len(steps)+1, func(i int, o Options) Result {
		if i == 0 {
			dcfg := baseline.DefaultConfig(baseline.DrTMH)
			dcfg.Threads = s.threads
			dcfg.Outstanding = 1 // low load
			dcfg.Seed = o.Seed
			tel, reg := o.Telemetry.Sampler(), o.Stats.Registry()
			dcl, err := xenic.NewBaseline(dcfg, s.gen(o.Quick), xenic.WithTelemetry(tel), xenic.WithStats(reg))
			if err != nil {
				panic(err)
			}
			res := dcl.Measure(warm, win)
			o.Stats.Done("fig9b/DrTM+H", reg)
			o.Telemetry.Done("fig9b/DrTM+H", tel)
			return res
		}
		st := steps[i-1]
		cfg := core.DefaultConfig()
		cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = s.app, s.workers, s.nic
		cfg.Outstanding = 1
		cfg.Features = st.feat
		cfg.Seed = o.Seed
		tel, reg := o.Telemetry.Sampler(), o.Stats.Registry()
		cl, err := xenic.NewCluster(cfg, s.gen(o.Quick), xenic.WithTelemetry(tel), xenic.WithStats(reg))
		if err != nil {
			panic(err)
		}
		res := cl.Measure(warm, win)
		o.Stats.Done("fig9b/"+st.name, reg)
		o.Telemetry.Done("fig9b/"+st.name, tel)
		return res
	})

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
