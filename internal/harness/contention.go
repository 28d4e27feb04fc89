package harness

import (
	"fmt"

	"xenic"
	"xenic/internal/core"
	"xenic/internal/sim"
	"xenic/internal/txnmodel"
	"xenic/internal/workload/smallbank"
	"xenic/internal/workload/tpcc"
)

// The contention experiment measures the DESIGN.md §14 claim: under Zipfian
// skew the OCC protocol burns throughput on hot-key aborts, and the NIC-side
// conflict scheduler wins it back by serializing hot-key conflicters behind
// the current owner instead of letting them race, abort, back off, and
// retry. Each cell pair runs the identical workload and seed with the
// scheduler off then on; skew rises across cells so the abort-rate delta is
// visible from "barely contended" to "hammered".

func init() {
	register(&Experiment{
		ID:       "contention",
		Title:    "conflict scheduling: Zipf-skew sweep, hash dispatch vs conflict-aware NIC scheduler",
		PaperRef: "DESIGN.md §14: batch, predict conflicts from declared r/w sets, serialize hot-key conflicters",
		Run:      runContentionSweep,
	})
}

func runContentionSweep(opt Options) *Report {
	warm, win := 2*sim.Millisecond, 8*sim.Millisecond
	if opt.Quick {
		warm, win = 1*sim.Millisecond, 3*sim.Millisecond
	}

	// Skew rises within each workload group; the A/B acceptance gate below
	// is evaluated on the last (highest-skew) cell of each group.
	type cellDef struct {
		workload string
		skew     string
		gen      func() txnmodel.Generator
		// fullWin forces the full-scale window even under -quick: TPC-C
		// commits ~10k txns/s/server, so a 3ms quick window sees ~30
		// commits per server and the A/B delta drowns in sampling noise.
		// The cells are cheap to simulate (low event rate), so they keep
		// the 8ms window unconditionally.
		fullWin bool
	}
	smallbankDef := func(hotFrac, hotProb float64) cellDef {
		return cellDef{"smallbank", fmt.Sprintf("hot %.1f%%@%.0f%%", 100*hotFrac, 100*hotProb),
			func() txnmodel.Generator {
				g := smallbank.New()
				// 1000 accounts/server keep the hot set resident and hot; the
				// sweep shrinks it while raising the probability mass on it.
				g.AccountsPerServer = 1000
				g.HotFrac, g.HotProb = hotFrac, hotProb
				return g
			}, false}
	}
	tpccDef := func(warehouses int) cellDef {
		return cellDef{"tpcc", fmt.Sprintf("wh/server=%d", warehouses),
			func() txnmodel.Generator {
				// TPC-C contention concentrates on the per-district next-order
				// rows; fewer warehouses per server = hotter districts.
				g := tpcc.New()
				g.WarehousesPerServer = warehouses
				return g
			}, true}
	}
	defs := []cellDef{
		smallbankDef(0.04, 0.90), // the paper's mix
		smallbankDef(0.01, 0.95),
		smallbankDef(0.005, 0.99), // gate cell
		tpccDef(4),
		tpccDef(1), // gate cell
	}

	type cellRes struct {
		res   Result
		sched core.SchedStats
	}
	// Cells interleave off/on per definition: cell 2i is scheduler off,
	// 2i+1 on, so -j runs pair the identical workload at any worker count.
	results := runCells(opt, 2*len(defs), func(i int, o Options) cellRes {
		d := defs[i/2]
		cfg := core.DefaultConfig()
		cfg.Nodes = 4
		cfg.Replication = 3
		cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = 2, 3, 8
		cfg.Outstanding = 16
		cfg.Seed = o.Seed
		cfg.Sched = i%2 == 1
		if cfg.Sched && o.Sched != nil {
			cfg.SchedBatchUs = o.Sched.BatchUs
			cfg.SchedHotK = o.Sched.HotK
		}
		tel, reg := o.Telemetry.Sampler(), o.Stats.Registry()
		cl, err := xenic.NewCluster(cfg, d.gen(), xenic.WithTelemetry(tel), xenic.WithStats(reg))
		if err != nil {
			panic(err)
		}
		cw, cv := warm, win
		if d.fullWin {
			cw, cv = 2*sim.Millisecond, 8*sim.Millisecond
		}
		res := cl.Measure(cw, cv)
		label := fmt.Sprintf("contention/%s-%s-%s", d.workload, d.skew, onOff(cfg.Sched))
		o.Stats.Done(label, reg)
		o.Telemetry.Done(label, tel)
		return cellRes{res: res, sched: cl.SchedStats()}
	})

	r := &Report{ID: "contention",
		Title:  "Zipf-skew sweep: static hash dispatch vs conflict-aware NIC scheduler",
		Header: []string{"workload", "skew", "sched", "tput/server", "aborts", "abort-rate", "parked", "shed", "goodput"}}

	abortRate := func(res Result) float64 {
		tot := res.Committed + res.Aborts
		if tot == 0 {
			return 0
		}
		return float64(res.Aborts) / float64(tot)
	}
	gatePass := true
	gateCells := map[int]bool{2: true, 4: true} // highest-skew def per workload
	for i, d := range defs {
		off, on := results[2*i], results[2*i+1]
		gain := 0.0
		if off.res.PerServerTput > 0 {
			gain = on.res.PerServerTput / off.res.PerServerTput
		}
		offRate, onRate := abortRate(off.res), abortRate(on.res)
		r.AddCells(Text(d.workload), Text(d.skew), Text("off"),
			Tput(off.res.PerServerTput), Count(int(off.res.Aborts)),
			Num(offRate, fmt.Sprintf("%.1f%%", 100*offRate)),
			Text("-"), Text("-"), Text("1.00x"))
		r.AddCells(Text(d.workload), Text(d.skew), Text("on"),
			Tput(on.res.PerServerTput), Count(int(on.res.Aborts)),
			Num(onRate, fmt.Sprintf("%.1f%%", 100*onRate)),
			Count(int(on.sched.Parked)), Count(int(on.sched.Shed)),
			Num(gain, fmt.Sprintf("%.2fx", gain)))
		if gateCells[i] && (onRate >= offRate || gain < 1.0) {
			gatePass = false
		}
	}
	if gatePass {
		r.AddNote("A/B gate (highest-skew cell per workload): PASS - scheduler-on abort rate strictly lower, goodput >= off")
	} else {
		r.AddNote("A/B gate (highest-skew cell per workload): FAIL - see abort-rate / goodput columns")
	}
	r.AddNote("scheduler-off cells use the legacy hash dispatch byte-for-byte (pinned against the closed-loop goldens)")
	r.AddNote("parked = transactions serialized behind a hot-key owner instead of racing; shed = parked past the deadline and retried (counts in aborts as sched=)")
	finishTelemetry(r, opt)
	return r
}
