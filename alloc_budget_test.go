package xenic_test

import (
	"runtime"
	"testing"

	"xenic"
	"xenic/internal/raceflag"
)

// smallbankAllocBudget is the host allocations one committed Smallbank
// transaction may cost on the Xenic path, about 10 % above what the tree
// measured when the budget was last set (38.83 here, 37.53 in a
// one-second smallbank_xenic benchmark run; Go 1.24). The hot path recycles
// its per-transaction and per-operation records (DESIGN.md "Hot-path memory
// discipline"); a change that adds a closure, a map or a scratch slice to it
// shows here, before it shows in a benchmark run. The CI bench-contract job
// holds the benchmark's own smallbank_xenic workload to the same number.
const smallbankAllocBudget = 42.0

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
	cl := smallbankBudgetCluster(t)
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

// smallbankLiveHeapMiB is the live heap smallbankBudgetCluster may hold
// after a short window, about 15 % above the 49.1 MiB measured when the
// ceiling was set; nearly all of it is the 18 populated replica tables.
const smallbankLiveHeapMiB = 56.0

func smallbankBudgetCluster(t *testing.T) *xenic.Cluster {
	t.Helper()
	cfg := xenic.DefaultConfig()
	cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores, cfg.Outstanding = 2, 3, 16, 64
	cfg.Seed = 1
	gen := xenic.Smallbank()
	gen.AccountsPerServer = 10_000
	cl, err := xenic.NewCluster(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestSmallbankHeapIndependentOfWindow holds the live heap of a running
// cluster to the same size after a window W and after 4 W: the host log
// recycles its segments once workers have applied them (DESIGN.md §5), so
// nothing a commit allocates outlives it by more than the in-flight window.
// Measured here: +1.6 % (49.1 → 49.9 MiB, nearly all of it the populated
// stores); with a log that only grows the same 15 279 commits add about
// half a KiB each (+7.6 MiB), linear in the window from there on. The
// absolute ceiling holds the stores themselves: with 64-byte
// pointer-bearing table slots instead of 24-byte ones (DESIGN.md §4) the
// same cluster measured 91.6 MiB.
func TestSmallbankHeapIndependentOfWindow(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow memory is part of the heap")
	}
	const w = 250 * xenic.Microsecond
	cl := smallbankBudgetCluster(t)
	liveHeap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	cl.Measure(w, 0)
	short := liveHeap()
	res := cl.Measure(0, 3*w)
	long := liveHeap()
	runtime.KeepAlive(cl)
	if res.Committed < 10_000 {
		t.Fatalf("only %d transactions committed in the window", res.Committed)
	}
	t.Logf("live heap %.1f MiB after %v, %.1f MiB after %v (%d commits between)", short, w, long, 4*w, res.Committed)
	if long > 1.05*short {
		t.Fatalf("live heap grew from %.1f to %.1f MiB when the window grew fourfold", short, long)
	}
	if short > smallbankLiveHeapMiB {
		t.Fatalf("live heap %.1f MiB after %v, ceiling %.0f MiB", short, w, smallbankLiveHeapMiB)
	}
}
