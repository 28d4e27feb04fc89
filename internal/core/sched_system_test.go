package core

import (
	"fmt"
	"testing"

	"xenic/internal/fault"
	"xenic/internal/sim"
)

// hotGen returns a counter workload squeezed onto few keys so hot-key
// contention (and the scheduler's park/serialize machinery) engages hard.
func hotGen() *kvGen {
	return &kvGen{keys: 48, keysPer: 2, readFrac: 0.1, nicExec: true}
}

func schedConfig(seed int64) Config {
	cfg := testConfig(4, AllFeatures())
	cfg.Seed = seed
	cfg.Sched = true
	return cfg
}

// TestSchedOnDeterminism: with the conflict scheduler enabled, the same seed
// must reproduce the exact same run — results and scheduler counters both.
// Batching, hotness decay, parking, and release ordering are all engine-
// driven, so any hidden map-iteration or wall-clock dependence shows up here.
func TestSchedOnDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		var results []string
		for rep := 0; rep < 2; rep++ {
			cl, err := New(schedConfig(seed), hotGen(), Observers{})
			if err != nil {
				t.Fatal(err)
			}
			res := cl.Measure(500*sim.Microsecond, 2*sim.Millisecond)
			results = append(results, fmt.Sprintf("%+v sched=%+v", res, cl.SchedStats()))
		}
		if results[0] != results[1] {
			t.Errorf("seed %d: runs differ:\n  %s\n  %s", seed, results[0], results[1])
		}
	}
}

// TestSchedEngagesUnderContention: the scheduler actually schedules on a
// hot-key workload — transactions flow through it, some are serialized — and
// the cluster still drains to quiescence (no parked transaction is leaked).
func TestSchedEngagesUnderContention(t *testing.T) {
	cl, err := New(schedConfig(7), hotGen(), Observers{})
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Measure(500*sim.Microsecond, 2*sim.Millisecond)
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
	ss := cl.SchedStats()
	if ss.Submitted == 0 || ss.Dispatched == 0 {
		t.Fatalf("scheduler bypassed: %+v", ss)
	}
	if ss.HotRouted == 0 {
		t.Fatalf("no hot-key routing on a 48-key counter workload: %+v", ss)
	}
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatal("did not drain with scheduler on (parked txn leaked?)")
	}
}

// abortSum adds up every per-reason abort field of a Result.
func abortSum(res Result) int64 {
	return res.AbortLocked + res.AbortVersion + res.AbortMissing +
		res.AbortView + res.AbortTimeout + res.AbortSched + res.AbortSnapshot
}

// TestSchedAbortAccountingCrossCheck pins the accounting invariant on a
// contended scheduler run: every abort increments exactly one per-reason
// counter, so the per-reason fields sum to Aborts. This is the regression
// test for the Measure aggregation bug where AbortTimeout (and then
// AbortSched) were counted in Aborts but missing from the breakdown.
func TestSchedAbortAccountingCrossCheck(t *testing.T) {
	cl, err := New(schedConfig(11), hotGen(), Observers{})
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Measure(500*sim.Microsecond, 3*sim.Millisecond)
	if res.Aborts == 0 {
		t.Fatal("contended run produced no aborts; cross-check is vacuous")
	}
	if got := abortSum(res); got != res.Aborts {
		t.Errorf("per-reason sum %d != aborts %d (%+v)", got, res.Aborts, res)
	}
}

// TestAbortAccountingCrossCheckFaulty runs the same invariant on a faulty
// high-contention run, where the timeout reason (the historically dropped
// one) actually fires.
func TestAbortAccountingCrossCheckFaulty(t *testing.T) {
	plan, err := fault.Parse("drop=0.02,delay=0.05,maxdelay=60us")
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []bool{false, true} {
		cfg := testConfig(4, AllFeatures())
		cfg.Seed = 5
		cfg.Sched = sched
		cfg.Faults = plan
		cl, err := New(cfg, hotGen(), Observers{})
		if err != nil {
			t.Fatal(err)
		}
		res := cl.Measure(500*sim.Microsecond, 4*sim.Millisecond)
		if res.Aborts == 0 {
			t.Fatalf("sched=%v: faulty run produced no aborts", sched)
		}
		if got := abortSum(res); got != res.Aborts {
			t.Errorf("sched=%v: per-reason sum %d != aborts %d (%+v)", sched, got, res.Aborts, res)
		}
	}
}
