package harness

import (
	"testing"

	"xenic"
	"xenic/internal/check"
	"xenic/internal/core"
	"xenic/internal/fault"
	"xenic/internal/sim"
	"xenic/internal/workload/smallbank"
)

// TestRestartExtremeSkewSerializable is the pinned regression for a
// promotion-path serializability bug found by the high-skew abort sweep:
// crash a primary at 1ms and restart it at 3ms while Smallbank hammers a
// 0.5% hot set at 99% probability. Before the fix, a backup promoted to
// primary could leave an undecided log record's write-set key unprotected
// (adoptShards' TryLock loses the key to an earlier undecided record for
// the same hot key, and handleRecoveryDecide unlocked before applying), so
// a transaction validated against the pre-commit version and committed a
// stale read — a cycle in the dependency graph. Seed 1 produced a witness
// cycle.
func TestRestartExtremeSkewSerializable(t *testing.T) {
	plan, err := fault.Parse("crash=2@1ms,restart=2@3ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Nodes = 4
	cfg.Replication = 3
	cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = 2, 3, 8
	cfg.Outstanding = 32
	cfg.Seed = 1
	cfg.Faults = plan

	g := smallbank.New()
	g.AccountsPerServer = 24000
	g.HotFrac, g.HotProb = 0.005, 0.99

	h := check.NewHistory()
	cl, err := xenic.NewCluster(cfg, g, xenic.WithHistory(h))
	if err != nil {
		t.Fatal(err)
	}
	cl.Measure(1*sim.Millisecond, 6*sim.Millisecond)
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatal("did not drain")
	}
	if err := verify(h, cl.AuditHistory); err != nil {
		t.Error(err)
	}
}
