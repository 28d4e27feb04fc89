package core

import (
	"testing"

	"xenic/internal/chassis"
	"xenic/internal/check"
	"xenic/internal/fault"
	"xenic/internal/sim"
	"xenic/internal/wire"
	"xenic/internal/workload/retwis"
)

// rejoinConfig is testConfig plus a fault plan (restart mechanics — epoch
// stamping, fencing, duplicate suppression — are fault-run features).
func rejoinConfig(t *testing.T, nodes int, plan string) Config {
	t.Helper()
	cfg := testConfig(nodes, AllFeatures())
	p, err := fault.Parse(plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = p
	return cfg
}

// TestRestartRejoin closes the loop: crash a node mid-run, restart it, and
// require that it re-replicates its shards and re-enters every replica
// chain — the replication factor is restored and the rebuilt replicas match
// the primaries byte for byte.
func TestRestartRejoin(t *testing.T) {
	g := &kvGen{keys: 600, keysPer: 3, readFrac: 0.3, nicExec: true}
	cfg := rejoinConfig(t, 4, "crash=2@5ms,restart=2@12ms")
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(30 * sim.Millisecond)
	if !cl.Drain(800 * sim.Millisecond) {
		t.Fatal("cluster did not quiesce after restart")
	}
	n := cl.Node(2)
	if !n.alive {
		t.Fatal("restarted node is not alive")
	}
	if n.rejoin != nil {
		t.Fatal("rejoin never completed")
	}
	v := cl.View()
	if !v.Alive[2] || v.Joining[2] {
		t.Fatalf("view did not admit node 2: alive=%v joining=%v", v.Alive[2], v.Joining[2])
	}
	if v.JoinedEpoch[2] == 0 {
		t.Fatal("rejoined node has no join epoch")
	}
	for s := 0; s < cfg.Nodes; s++ {
		if got := 1 + len(v.BackupsOf[s]); got != cfg.Replication {
			t.Fatalf("shard %d has %d replicas after rejoin, want %d", s, got, cfg.Replication)
		}
	}
	// The crashed primary's shard stays with the promoted node; the
	// rejoiner re-enters as a backup (stable-primary rule).
	if v.PrimaryOf[2] == 2 {
		t.Fatal("rejoiner took its old shard back as primary")
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := cl.ReplicasConsistent(); err != nil {
		t.Fatal(err)
	}
}

// TestViewChangeReleasesInFlightLocalExecLocks pins a lock leak in the
// EXECUTE round: when a view change (here, the rejoin at restart) aborts an
// in-flight transaction, abortInFlight sweeps t.Locked — but a local EXECUTE
// unit still in flight at the coordinator's own shard acquires its locks
// *after* the sweep, and coordExecPart's dead-transaction guard used to drop
// them on the floor (remote stragglers get a cleanup Abort; the local path
// had no analogue). The drain-time audit catches the orphan. The cell is the
// checksweep configuration that first witnessed the leak.
func TestViewChangeReleasesInFlightLocalExecLocks(t *testing.T) {
	g := retwis.New()
	g.KeysPerServer = 2000
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Replication = 3
	cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = 2, 2, 4
	cfg.Outstanding = 4
	cfg.Seed = 1
	cfg.MVCC = true
	plan, err := fault.Parse("crash=2@500us,restart=2@3ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	h := check.NewHistory()
	cl, err := New(cfg, g, Observers{History: h})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(6 * sim.Millisecond)
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatal("cluster did not drain")
	}
	viewAborts := 0
	for _, r := range h.Records() {
		if r.Status == wire.StatusAbortView {
			viewAborts++
		}
	}
	if viewAborts == 0 {
		t.Fatal("no view-change aborts recorded; the scenario never raced an in-flight EXECUTE against a view change")
	}
	if rep := h.Check(); !rep.Ok() {
		t.Fatalf("history not serializable:\n%s", rep.String())
	}
	if err := cl.AuditHistory(); err != nil {
		t.Fatalf("drain-time audit failed (leaked in-flight EXECUTE locks): %v", err)
	}
}

// TestRestartDeterminism: two same-seed runs with a restart plan must agree
// exactly — the whole failure→healing loop is deterministic.
func TestRestartDeterminism(t *testing.T) {
	run := func() (int64, int64, sim.Time) {
		g := &kvGen{keys: 400, keysPer: 3, readFrac: 0.3, nicExec: true}
		cfg := rejoinConfig(t, 4, "crash=1@4ms,restart=1@11ms,drop=0.01")
		cl, err := New(cfg, g, Observers{})
		if err != nil {
			t.Fatal(err)
		}
		cl.Start()
		cl.Run(25 * sim.Millisecond)
		cl.Drain(800 * sim.Millisecond)
		var committed, aborts int64
		for _, n := range cl.nodes {
			committed += n.stats.Committed
			aborts += n.stats.Aborts
		}
		return committed, aborts, cl.Engine().Now()
	}
	c1, a1, t1 := run()
	c2, a2, t2 := run()
	if c1 != c2 || a1 != a2 || t1 != t2 {
		t.Fatalf("same-seed restart runs diverged: (%d,%d,%v) vs (%d,%d,%v)",
			c1, a1, t1, c2, a2, t2)
	}
}

// TestEpochFencingDropsStaleFrames is the fencing regression test: a node
// evicted during a partition that later heals and rejoins must drop
// in-flight verbs stamped with its pre-eviction epoch — a healed evictee
// cannot serve stale reads or acquire locks with them.
func TestEpochFencingDropsStaleFrames(t *testing.T) {
	g := &kvGen{keys: 400, keysPer: 3, readFrac: 0.3, nicExec: true}
	// Partition node 1 long enough for its lease to lapse (it is evicted and
	// self-fences); the partition heals, then the node restarts and rejoins.
	cfg := rejoinConfig(t, 4, "part=1@3ms+4ms,restart=1@9ms")
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(22 * sim.Millisecond)
	// Quiesce so lock-table observations below are not perturbed by load.
	if !cl.Drain(800 * sim.Millisecond) {
		t.Fatal("cluster did not quiesce")
	}

	n := cl.Node(1)
	if n.rejoin != nil {
		t.Fatal("node 1 still rejoining at 22ms")
	}
	if n.joined == nil || n.joined[1] == 0 {
		t.Fatal("node 1 has no join epoch recorded")
	}

	// Craft a delayed Execute from the old incarnation: a frame stamped with
	// an epoch before node 1's rejoin, carrying a lock-acquiring verb. The
	// fence must drop it without touching the index.
	key := uint64(7)
	tshard := cl.Placement().ShardOf(key)
	target := cl.nodes[cl.primaryNode(tshard)]
	staleEpoch := n.joined[1] - 1
	drops := target.stats.StaleDrops
	locked := countLocked(target, tshard)
	target.nic.InjectRx(staleEpoch, 1, &wire.Execute{
		Header:   wire.Header{TxnID: chassis.TxnID(1, 0, 0xfffe), Src: 1},
		LockKeys: []uint64{key},
	})
	cl.Run(1 * sim.Millisecond)
	if target.stats.StaleDrops <= drops {
		t.Fatal("stale-epoch Execute was not dropped")
	}
	if got := countLocked(target, tshard); got != locked {
		t.Fatalf("stale Execute acquired locks: %d -> %d", locked, got)
	}

	// And the rejoiner itself must drop traffic addressed to its previous
	// incarnation (stamped before its own join).
	drops1 := n.stats.StaleDrops
	n.nic.InjectRx(staleEpoch, 0, &wire.RecoveryDecide{
		Header: wire.Header{TxnID: chassis.TxnID(0, 0, 0xfffd), Src: 0},
		Shard:  uint8(1), Commit: true,
	})
	cl.Run(1 * sim.Millisecond)
	if n.stats.StaleDrops <= drops1 {
		t.Fatal("rejoiner accepted a frame addressed to its previous incarnation")
	}

	if err := cl.ReplicasConsistent(); err != nil {
		t.Fatal(err)
	}
}

// countLocked counts locked keys in a node's serving index for a shard.
func countLocked(n *Node, shard int) int {
	p := n.prim(shard)
	if p == nil {
		return 0
	}
	count := 0
	p.index.ForEachLocked(func(_, _ uint64) { count++ })
	return count
}

// TestRecoveryRevoteOnSecondViewChange covers sweepOrphanLocks/adoptShards
// racing a second view change: two back-to-back crashes, the second landing
// while the first promotion's recovery votes are still outstanding. The
// re-vote against the shrunken replica set must decide every transaction
// and open the shard.
func TestRecoveryRevoteOnSecondViewChange(t *testing.T) {
	g := &kvGen{keys: 600, keysPer: 3, readFrac: 0.3, nicExec: true}
	// Node 2 crashes; its lease lapses at ~7ms and node 3 is promoted for
	// shard 2, querying the remaining backup (node 0). Node 0 is partitioned
	// just before that view lands, so promotion-scan query responses are
	// stalled until node 0 is itself evicted — a second view change while
	// recoveries are in flight.
	cfg := rejoinConfig(t, 4, "crash=2@5ms,part=0@6900us+4ms")
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(30 * sim.Millisecond)
	if !cl.Drain(800 * sim.Millisecond) {
		t.Fatal("cluster did not quiesce after back-to-back failures")
	}
	var refreshes int64
	for _, n := range cl.nodes {
		refreshes += n.stats.RecoveryRefreshes
	}
	if refreshes == 0 {
		t.Fatal("no recovery re-votes despite a view change racing the promotion scan")
	}
	for s := 0; s < cfg.Nodes; s++ {
		pn := cl.nodes[cl.primaryNode(s)]
		if !pn.alive {
			continue
		}
		if p := pn.prim(s); p == nil || !p.ready {
			t.Fatalf("shard %d never reopened after re-vote", s)
		}
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
