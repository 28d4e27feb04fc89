package harness

import (
	"fmt"

	"xenic"
	"xenic/internal/baseline"
	"xenic/internal/check"
	"xenic/internal/core"
	"xenic/internal/fault"
	"xenic/internal/sim"
	"xenic/internal/txnmodel"
	"xenic/internal/workload/retwis"
	"xenic/internal/workload/smallbank"
	"xenic/internal/workload/tpcc"
)

// checksweep drives Xenic and all four baselines over a grid of seeds,
// read-write workloads, and fault plans, recording every transaction into
// a check.History. Each cell must produce a serializable dependency graph
// (no cycles, no anomalies) and pass the system's drain-time state audit
// (no orphan locks, store versions matching the last committed writer).
// It is the paper's correctness claim — "Xenic preserves serializability"
// (§4) — as an executable sweep, not a benchmark.

func init() {
	register(&Experiment{
		ID:       "checksweep",
		Title:    "Serializability checker + state audit across systems, workloads, faults",
		PaperRef: "DESIGN.md §9: history checking vs the §4 serializability claim",
		Run:      runChecksweep,
	})
}

func runChecksweep(opt Options) *Report {
	const nodes = 4
	seeds := 3
	runFor := 3 * sim.Millisecond
	if opt.Quick {
		seeds = 1
	}

	workloads := []string{"tpcc", "smallbank", "retwis"}
	// Baselines only model network faults, so the faulty column injects a
	// lossy, duplicating network everywhere and adds NIC/DMA chaos (random
	// plan: crashes, stalls, partitions) on the Xenic cells only. The
	// restart column audits the rejoin path: a Xenic node crashes, is
	// evicted and replaced, then restarts and re-replicates under load —
	// every transaction before, during, and after the state transfer must
	// still serialize. Baselines cannot crash, so their restart cells rerun
	// the network plan.
	netPlan, err := fault.Parse("drop=0.02,dup=0.01")
	if err != nil {
		panic(err)
	}
	restartPlan, err := fault.Parse("crash=2@500us,restart=2@3ms")
	if err != nil {
		panic(err)
	}
	plans := []string{"none", "faulty", "restart"}
	baselines := []baseline.System{baseline.DrTMH, baseline.DrTMHNC, baseline.FaSST, baseline.DrTMR}
	systems := []string{"xenic", baselines[0].String(), baselines[1].String(),
		baselines[2].String(), baselines[3].String()}

	type outcome struct {
		txns int
		err  error
	}
	perSeed := len(workloads) * len(plans) * len(systems)
	cellAt := func(seed, w, p, s int) int {
		return ((seed*len(workloads)+w)*len(plans)+p)*len(systems) + s
	}
	outcomes := runCells(opt, seeds*perSeed, func(i int, o Options) outcome {
		s := i % len(systems)
		p := i / len(systems) % len(plans)
		w := i / (len(systems) * len(plans)) % len(workloads)
		seed := o.Seed + int64(i/perSeed)

		var gen txnmodel.Generator
		switch workloads[w] {
		case "tpcc":
			g := tpcc.New()
			g.WarehousesPerServer = 2
			gen = g
		case "smallbank":
			g := smallbank.New()
			g.AccountsPerServer = 2000
			gen = g
		default:
			g := retwis.New()
			g.KeysPerServer = 2000
			gen = g
		}

		var out outcome
		if s == 0 {
			cfg := core.DefaultConfig()
			cfg.Nodes = nodes
			cfg.Replication = 3
			cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = 2, 2, 4
			cfg.Outstanding = 4
			cfg.Seed = seed
			// Snapshot reads on: pure-read transactions (Retwis get-timeline,
			// Smallbank Balance) take the lock-free MVCC path, so the
			// checker's SI visibility pass sweeps alongside the serialization
			// graph.
			cfg.MVCC = true
			cellFor := runFor
			switch plans[p] {
			case "faulty":
				cfg.Faults = fault.RandomPlan(seed, nodes)
			case "restart":
				// Run past the rejoin so load flows while the restarted node
				// pulls state and after it is re-admitted.
				cfg.Faults = restartPlan
				cellFor = 6 * sim.Millisecond
			}
			out.txns, out.err = checkCell(cellFor, func(opts ...xenic.Option) (xenic.System, error) {
				return xenic.NewCluster(cfg, gen, opts...)
			})
		} else {
			cfg := baseline.DefaultConfig(baselines[s-1])
			cfg.Nodes = nodes
			cfg.Replication = 3
			cfg.Threads = 4
			cfg.Outstanding = 4
			cfg.Seed = seed
			if plans[p] != "none" {
				cfg.Faults = netPlan
			}
			out.txns, out.err = checkCell(runFor, func(opts ...xenic.Option) (xenic.System, error) {
				return xenic.NewBaseline(cfg, gen, opts...)
			})
		}
		return out
	})

	r := &Report{ID: "checksweep",
		Title: fmt.Sprintf("%d seeds x %d workloads x %d fault plans x %d systems",
			seeds, len(workloads), len(plans), len(systems)),
		Header: []string{"system", "workload", "faults", "txns", "result"}}
	fails := 0
	for s := range systems {
		for w := range workloads {
			for p := range plans {
				txns, verdict := 0, "serializable, audits clean"
				for seed := 0; seed < seeds; seed++ {
					out := outcomes[cellAt(seed, w, p, s)]
					txns += out.txns
					if out.err != nil && verdict == "serializable, audits clean" {
						fails++
						verdict = fmt.Sprintf("seed %d: %v", opt.Seed+int64(seed), out.err)
					}
				}
				r.AddRow(systems[s], workloads[w], plans[p], fmt.Sprintf("%d", txns), verdict)
			}
		}
	}
	if fails == 0 {
		r.AddNote("every cell produced an acyclic dependency graph, clean SI snapshot visibility, and a clean drain-time audit")
	} else {
		r.AddNote("FAILURES: %d cell group(s) violated serializability or the state audit", fails)
	}
	r.AddNote("restart cells crash, evict, restart, and re-replicate a Xenic node mid-history; baselines cannot crash, so theirs rerun the network plan")
	r.AddNote("sweep checks correctness only; cell throughput is not comparable to the paper's numbers")
	return r
}

// checkCell builds one cell with a history recorder attached, runs it for
// runFor and drains it, and returns the committed-transaction count plus any
// build, drain, checker or audit failure.
func checkCell(runFor sim.Time, build func(...xenic.Option) (xenic.System, error)) (int, error) {
	h := check.NewHistory()
	cl, err := build(xenic.WithHistory(h))
	if err != nil {
		return 0, err
	}
	cl.Start()
	cl.Run(runFor)
	if !cl.Drain(100 * sim.Millisecond) {
		return h.Len(), fmt.Errorf("did not drain")
	}
	return h.Len(), verify(h, cl.AuditHistory)
}

// verify runs the serializability checker and the drain-time audit,
// requiring a non-vacuous history.
func verify(h *check.History, audit func() error) error {
	if h.Len() == 0 {
		return fmt.Errorf("history recorded nothing")
	}
	if err := h.Check().Err(); err != nil {
		return err
	}
	return audit()
}
