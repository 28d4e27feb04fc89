package harness

import (
	"fmt"

	"xenic/internal/baseline"
	"xenic/internal/core"
	"xenic/internal/cpubench"
	"xenic/internal/metrics"
	"xenic/internal/sim"
)

// This file regenerates Table 3 (§5.6): the minimum number of threads each
// system needs to stay within 95% of its peak throughput, with NIC threads
// normalized by the Coremark ratio.

func init() {
	register(&Experiment{
		ID:       "table3",
		Title:    "Minimum threads at 95% of peak throughput (Coremark-normalized)",
		PaperRef: "Table 3: Xenic 21.7/9.9/9.9 vs DrTM+H 24/18/20, FaSST 32/24/28",
		Run:      runTable3,
	})
}

func runTable3(opt Options) *Report {
	warm, win := 2*sim.Millisecond, 6*sim.Millisecond
	if opt.Quick {
		warm, win = 1*sim.Millisecond, 2*sim.Millisecond
	}
	benches := []string{"fig8a", "fig8c", "fig8d"}
	names := map[string]string{"fig8a": "TPC-C NO", "fig8c": "Retwis", "fig8d": "Smallbank"}
	paper := map[string]string{
		"fig8a": "Xenic 21.7 (18,12) | DrTM+H 24 | FaSST 32",
		"fig8c": "Xenic 9.9 (5,16) | DrTM+H 18 | FaSST 24",
		"fig8d": "Xenic 9.9 (5,16) | DrTM+H 20 | FaSST 28",
	}

	r := &Report{ID: "table3", Title: "Normalized thread counts at 95% of peak",
		Header: []string{"benchmark", "Xenic norm (host,NIC)", "DrTM+H", "FaSST", "paper"}}
	ratio := cpubench.CoremarkRatio()

	// Each benchmark contributes three pool cells — the Xenic host/NIC
	// shrink and the two baseline shrinks — which are independent searches.
	// Within a cell the shrink stays sequential: every measurement depends
	// on the previous minimum.
	type search struct {
		host, nic int // Xenic cells
		min       int // baseline cells
	}
	cells := runCells(opt, len(benches)*3, func(ci int, o Options) search {
		id := benches[ci/3]
		s := setupFor(id)
		// Constant offered load per node across thread counts, so the
		// search finds the CPU-bound point rather than the load the
		// removed threads were generating.
		const nodeWindow = 128

		if ci%3 == 0 {
			// Xenic: measure peak at generous resourcing, then shrink host
			// threads and NIC cores independently.
			measure := func(host, nic int) float64 {
				app, workers := splitHost(id, host)
				cfg := core.DefaultConfig()
				cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = app, workers, nic
				cfg.Outstanding = perThread(nodeWindow, app)
				cfg.Seed = o.Seed
				reg := o.Stats.Registry()
				cl, err := core.New(cfg, s.gen(o.Quick), core.Observers{Stats: reg})
				if err != nil {
					panic(err)
				}
				res := cl.Measure(warm, win)
				o.Stats.Done(fmt.Sprintf("table3/%s/xenic/h%d-n%d", names[id], host, nic), reg)
				return res.PerServerTput
			}
			maxHost, maxNIC := 24, 24
			if o.Quick {
				maxHost, maxNIC = 12, 12
			}
			peak := measure(maxHost, maxNIC)
			hostMin := shrink(maxHost, peak, func(h int) float64 { return measure(h, maxNIC) })
			nicMin := shrink(maxNIC, peak, func(n int) float64 { return measure(hostMin, n) })
			return search{host: hostMin, nic: nicMin}
		}

		// Baselines: shrink the symmetric host thread count.
		sys := baseline.DrTMH
		if ci%3 == 2 {
			sys = baseline.FaSST
		}
		measureB := func(th int) float64 {
			cfg := baseline.DefaultConfig(sys)
			cfg.Threads = th
			cfg.Outstanding = perThread(nodeWindow, th)
			cfg.Seed = o.Seed
			reg := o.Stats.Registry()
			cl, err := baseline.New(cfg, s.gen(o.Quick), baseline.Observers{Stats: reg})
			if err != nil {
				panic(err)
			}
			res := cl.Measure(warm, win)
			o.Stats.Done(fmt.Sprintf("table3/%s/%s/t%d", names[id], sys, th), reg)
			return res.PerServerTput
		}
		maxTh := 32
		if o.Quick {
			maxTh = 12
		}
		return search{min: shrink(maxTh, measureB(maxTh), measureB)}
	})

	for bi, id := range benches {
		x := cells[bi*3]
		norm := metrics.NormalizedThreads(x.host, x.nic, ratio)
		r.AddCells(Text(names[id]),
			Num(norm, fmt.Sprintf("%.1f (%d,%d)", norm, x.host, x.nic)),
			Count(cells[bi*3+1].min), Count(cells[bi*3+2].min), Text(paper[id]))
	}
	r.AddNote("NIC threads weighted by the %.2fx Coremark ratio (§5.6)", ratio)
	return r
}

// splitHost divides a host-thread budget between application and worker
// threads: TPC-C is application-heavy (B+tree work), the KV workloads are
// worker-heavy.
func splitHost(id string, total int) (app, workers int) {
	frac := 0.4
	if id == "fig8a" || id == "fig8b" {
		frac = 0.66
	}
	app = int(float64(total)*frac + 0.5)
	if app < 1 {
		app = 1
	}
	workers = total - app
	if workers < 1 {
		workers = 1
		if app > 1 {
			app = total - 1
		}
	}
	return
}

// shrink halves-then-refines the resource count, returning the smallest
// value whose throughput stays within 95% of peak.
func shrink(max int, peak float64, measure func(int) float64) int {
	if peak <= 0 {
		return max
	}
	best := max
	for c := max - 2; c >= 1; c -= 2 {
		if measure(c) >= 0.95*peak {
			best = c
		} else {
			break
		}
	}
	return best
}
