package core

import (
	"encoding/binary"
	"testing"

	"xenic/internal/sim"
)

// recoverySetup runs the counter workload, kills a node mid-run, and lets
// the cluster reconfigure and continue.
func recoverySetup(t *testing.T, victim int, runBefore, runAfter sim.Time) (*Cluster, *kvGen) {
	t.Helper()
	g := &kvGen{keys: 600, keysPer: 3, readFrac: 0.3, nicExec: true}
	cfg := testConfig(4, AllFeatures())
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(runBefore)
	cl.Kill(victim)
	cl.Run(runAfter)
	if !cl.Drain(800 * sim.Millisecond) {
		t.Fatal("cluster did not quiesce after failure")
	}
	return cl, g
}

// aliveSum reads every counter from its current (possibly promoted)
// primary.
func aliveSum(t *testing.T, cl *Cluster, g *kvGen) uint64 {
	t.Helper()
	var sum uint64
	for k := 0; k < g.keys; k++ {
		shard := cl.Placement().ShardOf(uint64(k))
		pn := cl.nodes[cl.primaryNode(shard)]
		if !pn.alive {
			t.Fatalf("shard %d has no live primary", shard)
		}
		p := pn.prim(shard)
		if p == nil {
			t.Fatalf("node %d does not serve shard %d", pn.id, shard)
		}
		v, _, found := p.data.Read(uint64(k))
		if !found {
			t.Fatalf("key %d missing after recovery", k)
		}
		sum += binary.LittleEndian.Uint64(v)
	}
	return sum
}

func TestPrimaryFailover(t *testing.T) {
	victim := 2
	cl, _ := recoverySetup(t, victim, 5*sim.Millisecond, 30*sim.Millisecond)

	// The view promoted node 3 (first backup) for shard 2.
	if got := cl.primaryNode(victim); got != 3 {
		t.Fatalf("shard %d primary is %d, want 3", victim, got)
	}
	if cl.nodes[3].prim(victim) == nil {
		t.Fatal("promoted node does not serve the shard")
	}
	if !cl.nodes[3].prim(victim).ready {
		t.Fatal("promoted shard never became ready")
	}

	// Progress continued after the failure: survivors committed
	// transactions in the new configuration (including writes to the
	// recovered shard, since keys are uniform).
	var afterCommits int64
	for _, n := range cl.nodes {
		if n.alive {
			afterCommits += n.stats.Committed
		}
	}
	if afterCommits == 0 {
		t.Fatal("no commits after failure")
	}
}

// TestRecoveryNoLostCommits is the headline durability property: every
// increment whose transaction was counted committed survives the crash —
// the counter total over live primaries is at least the committed count
// (it may exceed it by transactions that reached their commit point just
// as the coordinator died, which recovery must also apply; §4.2.1).
func TestRecoveryNoLostCommits(t *testing.T) {
	cl, g := recoverySetup(t, 1, 5*sim.Millisecond, 30*sim.Millisecond)

	var counted uint64
	for _, n := range cl.nodes {
		counted += uint64(n.stats.UpdateKeysCommitted) // includes the dead node's
	}
	sum := aliveSum(t, cl, g)
	if sum < counted {
		t.Fatalf("counter sum %d < committed increments %d: committed writes lost", sum, counted)
	}
	// The overshoot is bounded by what was in flight at the crash.
	maxInflight := uint64(cl.cfg.AppThreads*cl.cfg.Outstanding) * uint64(g.keysPer)
	if sum > counted+maxInflight {
		t.Fatalf("counter sum %d exceeds committed %d by more than in-flight bound %d",
			sum, counted, maxInflight)
	}
}

func TestRecoveryNoStuckLocks(t *testing.T) {
	cl, _ := recoverySetup(t, 0, 5*sim.Millisecond, 30*sim.Millisecond)
	for _, n := range cl.nodes {
		if !n.alive {
			continue
		}
		for s, p := range n.prims {
			stuck := 0
			p.index.ForEachLocked(func(key, owner uint64) { stuck++ })
			if stuck > 0 {
				t.Fatalf("node %d shard %d has %d locks after drain", n.id, s, stuck)
			}
		}
	}
}

func TestRecoveryReplicasConsistent(t *testing.T) {
	cl, _ := recoverySetup(t, 3, 5*sim.Millisecond, 30*sim.Millisecond)
	if err := cl.ReplicasConsistent(); err != nil {
		t.Fatal(err)
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveredShardServesWrites(t *testing.T) {
	cl, g := recoverySetup(t, 2, 5*sim.Millisecond, 40*sim.Millisecond)
	// Keys of shard 2 must have received new increments after failover:
	// their versions advance beyond what they had... simply check some key
	// on the recovered shard has version > 1 (written at least once) and
	// that the promoted index serves lookups.
	promoted := cl.nodes[cl.primaryNode(2)]
	data := promoted.prim(2).data
	written := false
	for k := 2; k < g.keys; k += 4 {
		if _, ver, ok := data.Read(uint64(k)); ok && ver > 1 {
			written = true
			break
		}
	}
	if !written {
		t.Fatal("no key on the recovered shard was ever written")
	}
}

func TestKillBackupOnlyStillConsistent(t *testing.T) {
	// Node 3 is never a primary for shards 0..2's chains... every node is a
	// primary of its own shard, so any kill exercises promotion; this case
	// checks the lighter path too: backups pruned from other shards' views.
	cl, g := recoverySetup(t, 3, 5*sim.Millisecond, 30*sim.Millisecond)
	v := cl.View()
	for s := 0; s < 4; s++ {
		for _, b := range v.BackupsOf[s] {
			if b == 3 {
				t.Fatalf("dead node still a backup of shard %d", s)
			}
		}
	}
	_ = g
}

func TestDoubleFailure(t *testing.T) {
	// Kill two of four nodes (RF=3 leaves one survivor per shard).
	g := &kvGen{keys: 400, keysPer: 2, readFrac: 0.3, nicExec: true}
	cfg := testConfig(4, AllFeatures())
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(4 * sim.Millisecond)
	cl.Kill(1)
	cl.Run(15 * sim.Millisecond)
	cl.Kill(2)
	cl.Run(25 * sim.Millisecond)
	if !cl.Drain(800 * sim.Millisecond) {
		t.Fatal("no quiesce after double failure")
	}
	// Every shard still has a live primary and all data survives.
	var counted uint64
	for _, n := range cl.nodes {
		counted += uint64(n.stats.UpdateKeysCommitted)
	}
	sum := aliveSum(t, cl, g)
	if sum < counted {
		t.Fatalf("sum %d < committed %d after double failure", sum, counted)
	}
	// No stuck locks anywhere.
	for _, n := range cl.nodes {
		if !n.alive {
			continue
		}
		for s, p := range n.prims {
			stuck := 0
			p.index.ForEachLocked(func(key, owner uint64) { stuck++ })
			if stuck > 0 {
				t.Fatalf("node %d shard %d: %d stuck locks", n.id, s, stuck)
			}
		}
	}
}

// TestRepeatedCrashSameShard crashes a shard's primary, waits just long
// enough for the first backup to be promoted, then crashes the promoted
// primary too while the recovered shard is still draining its replayed log.
// The chain's last replica must take over and the data must stay intact.
func TestRepeatedCrashSameShard(t *testing.T) {
	g := &kvGen{keys: 400, keysPer: 2, readFrac: 0.3, nicExec: true}
	cfg := testConfig(4, AllFeatures())
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(4 * sim.Millisecond)
	cl.Kill(2)
	// Lease expiry is 2ms; at +4ms node 3 holds shard 2 but may still be
	// replaying and re-serving it.
	cl.Run(4 * sim.Millisecond)
	if got := cl.primaryNode(2); got != 3 {
		t.Fatalf("shard 2 primary is %d after first crash, want 3", got)
	}
	cl.Kill(3)
	cl.Run(25 * sim.Millisecond)
	if !cl.Drain(800 * sim.Millisecond) {
		t.Fatal("no quiesce after repeated crash")
	}
	if got := cl.primaryNode(2); got != 0 {
		t.Fatalf("shard 2 primary is %d after second crash, want 0", got)
	}
	if !cl.nodes[0].prim(2).ready {
		t.Fatal("twice-recovered shard never became ready")
	}
	// Durability across both crashes.
	var counted uint64
	for _, n := range cl.nodes {
		counted += uint64(n.stats.UpdateKeysCommitted)
	}
	sum := aliveSum(t, cl, g)
	if sum < counted {
		t.Fatalf("sum %d < committed %d after repeated crash", sum, counted)
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := cl.ReplicasConsistent(); err != nil {
		t.Fatal(err)
	}
	// No stuck locks on the survivors.
	for _, n := range cl.nodes {
		if !n.alive {
			continue
		}
		for s, p := range n.prims {
			stuck := 0
			p.index.ForEachLocked(func(key, owner uint64) { stuck++ })
			if stuck > 0 {
				t.Fatalf("node %d shard %d: %d stuck locks", n.id, s, stuck)
			}
		}
	}
}

func TestDeterministicRecovery(t *testing.T) {
	run := func() uint64 {
		g := &kvGen{keys: 300, keysPer: 2, readFrac: 0.3, nicExec: true}
		cfg := testConfig(4, AllFeatures())
		cl, err := New(cfg, g, Observers{})
		if err != nil {
			t.Fatal(err)
		}
		cl.Start()
		cl.Run(3 * sim.Millisecond)
		cl.Kill(1)
		cl.Run(20 * sim.Millisecond)
		cl.Drain(500 * sim.Millisecond)
		return aliveSum(t, cl, g)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("recovery nondeterministic: %d vs %d", a, b)
	}
}
