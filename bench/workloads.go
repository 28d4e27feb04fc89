package main

import (
	"fmt"

	"xenic"
)

// referenceSeconds is the --seconds value the frozen windows below were
// calibrated for (BENCHMARK.json's run_seconds): at that value an untraced
// measure call takes about that many host seconds on the 2-core reference
// box. Another --seconds scales the simulated window in proportion; the
// window is never scaled from a measured speed, so event counts repeat
// exactly for a given (seed, seconds).
const referenceSeconds = 15

// nodes is every workload's server count: the paper's 6-node testbed, which
// is also what DefaultConfig and DefaultBaselineConfig build.
const nodes = 6

// warmup is the simulated warm-up before every measured window.
const warmup = 1 * xenic.Millisecond

// latencyLimit is the open-loop workload's latency limit: an arrival that is
// not committed within it counts as failed.
const latencyLimit = 100 * xenic.Microsecond

// workload is one frozen benchmark configuration. build constructs a fresh
// system for a seed with the given observers; an open-loop workload also
// returns its arrival recorder.
type workload struct {
	Name     string
	Why      string
	System   string // "xenic" | "drtmh"
	Loop     string // "closed" | "open"
	WindowUs int    // simulated measure window at referenceSeconds
	Sizes    string // frozen sizes, for the README and the run header
	build    func(seed int64, opts ...xenic.Option) (xenic.System, *recorder, error)
	gen      func() xenic.Workload // fresh generator, for the driver loops
}

func smallbankGen() xenic.Workload {
	g := xenic.Smallbank()
	g.AccountsPerServer = 40_000
	return g
}

func tpccGen() xenic.Workload {
	g := xenic.TPCC()
	g.WarehousesPerServer = 12
	g.ItemsPerWarehouse = 500
	g.CustomersPerDistrict = 30
	return g
}

func retwisGen() xenic.Workload {
	g := xenic.Retwis()
	g.KeysPerServer = 40_000
	return g
}

// xenicConfig is the paper's 6-node, 3-replica testbed with the given
// per-node thread counts and closed-loop window per application thread.
func xenicConfig(seed int64, app, workers, nic, outstanding int) xenic.Config {
	cfg := xenic.DefaultConfig()
	cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = app, workers, nic
	cfg.Outstanding = outstanding
	cfg.Seed = seed
	return cfg
}

var workloads = []workload{
	{
		Name:   "smallbank_xenic",
		Why:    "smallest transactions (about 27 events per commit): per-event overhead in sim, simnet, nicrt dispatch, wire, coordinator bookkeeping and GC does most of the work; Fig. 8d cell",
		System: "xenic", Loop: "closed", WindowUs: 24_000,
		Sizes: "6 nodes x 3 replicas, 2 app / 3 worker threads / 16 NIC cores, window 64 per app thread, Smallbank 40000 accounts/server, hot 4%@90%",
		build: func(seed int64, opts ...xenic.Option) (xenic.System, *recorder, error) {
			cl, err := xenic.NewCluster(xenicConfig(seed, 2, 3, 16, 64), smallbankGen(), opts...)
			return cl, nil, err
		},
		gen: smallbankGen,
	},
	{
		Name:   "smallbank_drtmh",
		Why:    "same generator, population and seed on the DrTM+H baseline: core, nicrt, pcie and store.nicindex do no work, baseline, rdma and hostrt do all of it; the bypass workload for Xenic-path changes",
		System: "drtmh", Loop: "closed", WindowUs: 36_000,
		Sizes: "6 nodes x 3 replicas, 16 host threads x window 8, Smallbank 40000 accounts/server, hot 4%@90%",
		build: func(seed int64, opts ...xenic.Option) (xenic.System, *recorder, error) {
			cfg := xenic.DefaultBaselineConfig(xenic.DrTMH)
			cfg.Threads, cfg.Outstanding, cfg.Seed = 16, 8, seed
			cl, err := xenic.NewBaseline(cfg, smallbankGen(), opts...)
			return cl, nil, err
		},
		gen: smallbankGen,
	},
	{
		Name:   "tpcc_xenic",
		Why:    "large read/write sets, B+tree tables, log and worker apply, DMA vectors, about a quarter of attempts commit: the contention-bound case, where aborted work, store.btree, pcie and hostrt dominate",
		System: "xenic", Loop: "closed", WindowUs: 52_000,
		Sizes: "6 nodes x 3 replicas, 12 app / 6 worker threads / 12 NIC cores, window 8 per app thread, full TPC-C mix, 12 warehouses/server, 500 items, 30 customers/district, retries uncapped",
		build: func(seed int64, opts ...xenic.Option) (xenic.System, *recorder, error) {
			cfg := xenicConfig(seed, 12, 6, 12, 8)
			// Three in four attempts abort here, and with the default cap of
			// 64 retries a few transactions in 100000 are abandoned. The
			// benchmark wants workloads on which no operation fails.
			cfg.MaxRetries = 1 << 20
			cl, err := xenic.NewCluster(cfg, tpccGen(), opts...)
			return cl, nil, err
		},
		gen: tpccGen,
	},
	{
		Name:   "retwis_xenic_open",
		Why:    "open loop at a fixed 6.0M txn/s: half read-only, working set larger than the NIC index cache (DMA lookups), the openloop/load layers; a faster system shows as lower latency, so queueing shows here",
		System: "xenic", Loop: "open", WindowUs: 33_000,
		Sizes: "6 nodes x 3 replicas, 2 app / 3 worker threads / 16 NIC cores, Poisson arrivals at 6.0M txn/s cluster-wide, 256 sessions, 1 tenant, no admission control, Retwis 40000 keys/server, Zipf alpha 0.5, 50% read-only, limit p99 <= 100us",
		build: func(seed int64, opts ...xenic.Option) (xenic.System, *recorder, error) {
			rec := newRecorder(xenic.NewOpenLoop(xenic.OpenLoopConfig{
				Rate: 6.0e6, Sessions: 256, Tenants: 1, Seed: seed}))
			opts = append(opts, xenic.WithLoad(rec))
			cl, err := xenic.NewCluster(xenicConfig(seed, 2, 3, 16, 8), retwisGen(), opts...)
			return cl, rec, err
		},
		gen: retwisGen,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// window is the simulated measure window for a --seconds value.
func (w *workload) window(seconds float64) xenic.Time {
	return xenic.Time(float64(w.WindowUs) * seconds / referenceSeconds * float64(xenic.Microsecond))
}
