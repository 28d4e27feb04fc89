package core

import (
	"encoding/binary"
	"testing"

	"xenic/internal/check"
	"xenic/internal/sim"
	"xenic/internal/workload/smallbank"
)

// mvccConfig is the shared cluster shape for MVCC tests: 4 nodes with the
// snapshot path enabled.
func mvccConfig(nodes int) Config {
	cfg := testConfig(nodes, AllFeatures())
	cfg.MVCC = true
	return cfg
}

// runMVCC drives a workload with MVCC on and a history attached, drains,
// and returns the cluster and history for assertions.
func runMVCC(t *testing.T, g *kvGen, cfg Config, dur sim.Time) (*Cluster, *check.History) {
	t.Helper()
	h := check.NewHistory()
	cl, err := New(cfg, g, Observers{History: h})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(dur)
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatal("MVCC cluster did not quiesce")
	}
	return cl, h
}

// TestMVCCSnapshotReads: read-only transactions ride the lock-free snapshot
// path (both the distributed fan-out and the host-local variant), the
// counter invariant holds, and the history is serializable with clean SI
// visibility.
func TestMVCCSnapshotReads(t *testing.T) {
	g := &kvGen{keys: 300, keysPer: 3, readFrac: 0.5, localFrac: 0.3, nicExec: true}
	cl, h := runMVCC(t, g, mvccConfig(4), 8*sim.Millisecond)

	var snap, inline, walks, committed int64
	for _, n := range cl.nodes {
		snap += n.stats.SnapCommitted
		inline += n.stats.SnapInline
		walks += n.stats.SnapWalks
		committed += n.stats.Committed
	}
	if snap == 0 {
		t.Fatal("no read-only transaction took the snapshot path")
	}
	if inline == 0 && walks == 0 {
		t.Fatal("snapshot path resolved no keys (neither NIC-inline nor chain walks)")
	}
	var sum uint64
	var updates int64
	for k := 0; k < g.keys; k++ {
		v, _, _ := cl.nodes[cl.Placement().ShardOf(uint64(k))].Primary().Read(uint64(k))
		sum += binary.LittleEndian.Uint64(v)
	}
	for _, n := range cl.nodes {
		updates += n.stats.UpdateKeysCommitted
	}
	if sum != uint64(updates) {
		t.Fatalf("counter sum %d != committed update keys %d", sum, updates)
	}
	if rep := h.Check(); !rep.Ok() {
		t.Fatalf("history not clean:\n%s", rep.String())
	}
	if err := cl.AuditHistory(); err != nil {
		t.Fatal(err)
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The snapshot records themselves must carry their timestamps so the SI
	// pass was not vacuous.
	snapRecs := 0
	for _, r := range h.Records() {
		if r.Snapshot {
			snapRecs++
			if len(r.Writes) != 0 {
				t.Fatalf("snapshot txn %#x recorded writes", r.ID)
			}
		}
	}
	if snapRecs == 0 {
		t.Fatal("no snapshot records in history")
	}
}

// TestMVCCSnapshotAbortsOnlyCorrectness: snapshot-path aborts can only be
// StatusAbortSnapshot (chain GC / promotion races) — never lock or version
// conflicts. With a fault-free run and default chain depth, read-only
// transactions must see (near-)zero aborts even under extreme contention.
func TestMVCCSnapshotReadOnlyAbortFree(t *testing.T) {
	// 8 hot keys, heavy update traffic: the OCC read-only path would abort
	// constantly on validation; the snapshot path must not.
	g := &kvGen{keys: 8, keysPer: 2, readFrac: 0.5, nicExec: true}
	cl, h := runMVCC(t, g, mvccConfig(4), 8*sim.Millisecond)

	var roAborts, roCommitted int64
	for _, n := range cl.nodes {
		roAborts += n.stats.ROAborts
		roCommitted += n.stats.ROCommitted
	}
	if roCommitted == 0 {
		t.Fatal("no read-only transactions committed")
	}
	if roAborts != 0 {
		t.Fatalf("read-only aborts under fault-free MVCC: %d (of %d committed)", roAborts, roCommitted)
	}
	if rep := h.Check(); !rep.Ok() {
		t.Fatalf("history not clean:\n%s", rep.String())
	}
}

// Captured from the pre-MVCC tree (commit bd075d9) with the exact workload
// and config of TestMVCCOffGolden, then re-captured once when the host-local
// read-only validation gained its lock check (a serializability fix that
// changes the abort schedule with MVCC on or off alike).
const (
	mvccOffGoldenCommitted = 10215
	mvccOffGoldenSum       = 14355
)

// TestMVCCOffGolden pins the MVCC-off behavior of a fixed seed: the values
// below were captured from the pre-MVCC tree, so any drift means the
// feature leaked simulated work (an extra charge, message byte, or event)
// into runs that have it disabled.
func TestMVCCOffGolden(t *testing.T) {
	g := &kvGen{keys: 300, keysPer: 3, readFrac: 0.3, nicExec: true}
	cfg := testConfig(4, AllFeatures())
	if cfg.MVCC {
		t.Fatal("test requires MVCC off")
	}
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(5 * sim.Millisecond)
	if !cl.Drain(200 * sim.Millisecond) {
		t.Fatal("no quiesce")
	}
	var committed int64
	var snap int64
	for _, n := range cl.nodes {
		committed += n.stats.Committed
		snap += n.stats.SnapCommitted + n.stats.SnapInline + n.stats.SnapWalks
	}
	var sum uint64
	for k := 0; k < g.keys; k++ {
		v, _, _ := cl.nodes[cl.Placement().ShardOf(uint64(k))].Primary().Read(uint64(k))
		sum += binary.LittleEndian.Uint64(v)
	}
	if snap != 0 {
		t.Fatalf("MVCC-off run touched snapshot machinery (%d)", snap)
	}
	if committed != mvccOffGoldenCommitted || sum != mvccOffGoldenSum {
		t.Fatalf("MVCC-off run drifted from the pre-MVCC seed: committed=%d sum=%d, want %d/%d",
			committed, sum, mvccOffGoldenCommitted, mvccOffGoldenSum)
	}
}

// TestLongSnapshotRacingUpdaters is the recorder-misclassification
// regression: long-running (multi-shard, cross-node) snapshot reads race a
// firehose of committing updaters on a tiny keyspace. The history must
// stay clean — in particular the snapshot transactions' old-version reads
// must not be flagged as stale, their empty write sets must not trip the
// drained-state audits, and reads below the watermark must not look like
// phantoms.
func TestLongSnapshotRacingUpdaters(t *testing.T) {
	g := &kvGen{keys: 12, keysPer: 4, readFrac: 0.3, nicExec: true}
	cfg := mvccConfig(4)
	cfg.Outstanding = 6
	cl, h := runMVCC(t, g, cfg, 10*sim.Millisecond)

	// The interesting interleaving must actually have happened: at least one
	// snapshot transaction observed a version strictly below the key's final
	// (drained) version AND below another committed read of the same key —
	// i.e. it read history, not the head.
	final := map[uint64]uint64{}
	for k := 0; k < g.keys; k++ {
		_, ver, _ := cl.nodes[cl.Placement().ShardOf(uint64(k))].Primary().Read(uint64(k))
		final[uint64(k)] = ver
	}
	oldReads := 0
	for _, r := range h.Records() {
		if !r.Snapshot {
			continue
		}
		for _, kv := range r.Reads {
			if kv.Version > 0 && kv.Version < final[kv.Key] {
				oldReads++
			}
		}
	}
	if oldReads == 0 {
		t.Fatal("no snapshot read observed an old version; the race never happened")
	}
	if rep := h.Check(); !rep.Ok() {
		t.Fatalf("snapshot reads misclassified:\n%s", rep.String())
	}
	if err := cl.AuditHistory(); err != nil {
		t.Fatalf("drained-state audit rejected snapshot history: %v", err)
	}
}

// TestMVCCChainsBounded: version chains never exceed the configured depth,
// and GC leaves every key readable at the current watermark.
func TestMVCCChainsBounded(t *testing.T) {
	g := &kvGen{keys: 16, keysPer: 2, readFrac: 0.2, nicExec: true}
	cfg := mvccConfig(4)
	cfg.MVCCKeep = 3
	cl, _ := runMVCC(t, g, cfg, 6*sim.Millisecond)
	for _, n := range cl.nodes {
		for s, p := range n.prims {
			for k := 0; k < g.keys; k++ {
				if cl.Placement().ShardOf(uint64(k)) != s {
					continue
				}
				if l := p.data.ChainLen(uint64(k)); l > cfg.MVCCKeep {
					t.Fatalf("node %d shard %d key %d: chain depth %d > keep %d", n.id, s, k, l, cfg.MVCCKeep)
				}
				if _, _, _, ok := p.data.ReadAt(uint64(k), cl.mv.stable); !ok {
					t.Fatalf("key %d unreadable at the stable watermark after GC", k)
				}
			}
		}
	}
}

// TestMVCCUpdatePathEventBudget caps the simulated work version chains add
// to the update path. One update-only Smallbank cell (ReadOnlyFrac < 0
// strips the Balance transactions, so every commit drives the ApplyTS chain
// hold) runs with MVCC off and then on; the simulator events processed are a
// function of the seed alone, so the on/off ratio (1.0237 when the budget
// was set: 724 566 / 707 757) is held to 5% with no allowance for noise.
func TestMVCCUpdatePathEventBudget(t *testing.T) {
	events := func(mvcc bool) uint64 {
		g := smallbank.New()
		g.AccountsPerServer = 5000
		g.ReadOnlyFrac = -1
		cfg := DefaultConfig()
		cfg.Nodes = 4
		cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = 2, 2, 4
		cfg.MVCC = mvcc
		cl, err := New(cfg, g, Observers{})
		if err != nil {
			t.Fatal(err)
		}
		cl.Measure(500*sim.Microsecond, 4*sim.Millisecond)
		return cl.Engine().Events()
	}
	off, on := events(false), events(true)
	ratio := float64(on) / float64(off)
	t.Logf("events: off %d, on %d, ratio %.4f", off, on, ratio)
	if ratio > 1.05 {
		t.Fatalf("MVCC update path processes %.1f%% more events than MVCC off (off %d, on %d), budget 5%%",
			100*(ratio-1), off, on)
	}
}
