package xenic_test

import (
	"runtime"
	"testing"

	"xenic"
	"xenic/internal/raceflag"
)

// smallbankAllocBudget is the host allocations one committed Smallbank
// transaction may cost on the Xenic path, about 10 % above what the tree
// measured when the budget was last set (40.9 here, 39.6 in a
// one-second smallbank_xenic benchmark run; Go 1.24). The hot path recycles
// its per-transaction and per-operation records (DESIGN.md "Hot-path memory
// discipline"); a change that adds a closure, a map or a scratch slice to it
// shows here, before it shows in a benchmark run. The CI bench-contract job
// holds the benchmark's own smallbank_xenic workload to the same number.
const smallbankAllocBudget = 45.0

// TestSmallbankAllocBudget runs the benchmark's smallbank_xenic shape (six
// nodes, three replicas, 2 application / 3 worker threads, 16 NIC cores,
// window 64) at a small population and divides the allocations of one
// simulated millisecond by the transactions it committed. The count is a
// function of the seed alone — no pool in the tree is emptied by the
// collector — so the bound needs no slack for noise.
func TestSmallbankAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := xenic.DefaultConfig()
	cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores, cfg.Outstanding = 2, 3, 16, 64
	cfg.Seed = 1
	gen := xenic.Smallbank()
	gen.AccountsPerServer = 10_000
	cl, err := xenic.NewCluster(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	cl.Measure(xenic.Millisecond, 0) // warm-up: freelists and queues reach working size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := cl.Measure(0, xenic.Millisecond)
	runtime.ReadMemStats(&after)
	if res.Committed < 10_000 {
		t.Fatalf("only %d transactions committed in the window", res.Committed)
	}
	perTxn := float64(after.Mallocs-before.Mallocs) / float64(res.Committed)
	t.Logf("%.2f allocations per committed transaction (%d committed, budget %.0f)",
		perTxn, res.Committed, smallbankAllocBudget)
	if perTxn > smallbankAllocBudget {
		t.Fatalf("%.2f allocations per committed transaction, budget %.0f", perTxn, smallbankAllocBudget)
	}
}
