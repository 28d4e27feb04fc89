package xenic_test

import (
	"testing"

	"xenic"
)

// TestClosedLoopGolden pins the closed-loop schedule to fingerprints
// captured before the LoadSource front-end existed. The open-loop redesign
// is required to leave closed-loop runs byte-identical: every injection-path
// check is a nil/len test that draws no randomness and schedules no events,
// so a run without an attached LoadSource must reproduce these counters
// exactly. Any drift here means the redesign perturbed the closed loop.
//
// The xenic fingerprint was re-captured once after the host-local read-only
// validation gained the §4.2 step-4 lock check (a serializability fix: the
// old version-only check could commit a read taken under a writer's lock
// window).
func TestClosedLoopGolden(t *testing.T) {
	type golden struct {
		committed, measured, aborts int64
		median, p99                 xenic.Time
	}
	check := func(t *testing.T, res xenic.Result, want golden) {
		t.Helper()
		got := golden{res.Committed, res.Measured, res.Aborts, res.Median, res.P99}
		if got != want {
			t.Errorf("closed-loop fingerprint drifted:\n got %+v\nwant %+v", got, want)
		}
	}
	gen := func() xenic.Workload {
		g := xenic.Smallbank()
		g.AccountsPerServer = 4000
		return g
	}

	t.Run("xenic", func(t *testing.T) {
		cfg := xenic.DefaultConfig()
		cfg.Nodes = 4
		cfg.AppThreads = 2
		cfg.WorkerThreads = 2
		cfg.NICCores = 4
		cfg.Outstanding = 4
		cfg.Seed = 42
		cl, err := xenic.NewCluster(cfg, gen())
		if err != nil {
			t.Fatal(err)
		}
		res := cl.Measure(1*xenic.Millisecond, 4*xenic.Millisecond)
		check(t, res, golden{
			committed: 10695, measured: 10695, aborts: 526,
			median: 11094061, p99: 26386273,
		})
	})

	t.Run("fasst", func(t *testing.T) {
		cfg := xenic.DefaultBaselineConfig(xenic.FaSST)
		cfg.Nodes = 4
		cfg.Threads = 4
		cfg.Outstanding = 4
		cfg.Seed = 42
		cl, err := xenic.NewBaseline(cfg, gen())
		if err != nil {
			t.Fatal(err)
		}
		res := cl.Measure(1*xenic.Millisecond, 4*xenic.Millisecond)
		check(t, res, golden{
			committed: 8662, measured: 8662, aborts: 1621,
			median: 26386273, p99: 81386393,
		})
	})
}
