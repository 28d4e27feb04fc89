package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"xenic/internal/check"
	"xenic/internal/fault"
	"xenic/internal/sim"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// shipGen generates only single-remote-node update transactions, so every
// coordinated transaction is eligible for function shipping (§4.2.3).
// Built for 4-node clusters, like kvGen's locality mode.
type shipGen struct{ kvGen }

func (g *shipGen) Next(node, thread int, rng *rand.Rand) *txnmodel.TxnDesc {
	nodes := g.keysNodes()
	k := uint64(rng.Intn(g.keys))
	k = k - k%uint64(nodes) + uint64((node+1)%nodes)
	if k >= uint64(g.keys) {
		k = uint64((node + 1) % nodes)
	}
	st := make([]byte, 2)
	binary.LittleEndian.PutUint16(st, 1)
	return &txnmodel.TxnDesc{
		NICExec:    true,
		UpdateKeys: []uint64{k},
		FnID:       fnIncr,
		State:      st,
	}
}

// shipSplitGen generates transactions with a read on the issuing node's own
// shard and updates on shard 2 plus shard (node+1)%4. Before any crash these
// span two remote nodes and take the normal OCC path; once node 2 crashes and
// a survivor is promoted to primary of shard 2, that survivor's transactions
// see exactly one remote node and ship — holding a local read lock on its
// original shard while the write commits on the adopted shard.
type shipSplitGen struct{ kvGen }

func (g *shipSplitGen) Next(node, thread int, rng *rand.Rand) *txnmodel.TxnDesc {
	pick := func(shard int) uint64 {
		k := uint64(rng.Intn(g.keys))
		k = k - k%4 + uint64(shard)
		if k >= uint64(g.keys) {
			k = uint64(shard)
		}
		return k
	}
	r := pick(node)
	u := pick(2)
	w := pick((node + 1) % 4)
	for w == u {
		w = pick((node + 1) % 4)
	}
	st := make([]byte, 2)
	binary.LittleEndian.PutUint16(st, 2)
	return &txnmodel.TxnDesc{
		NICExec:    true,
		ReadKeys:   []uint64{r},
		UpdateKeys: []uint64{u, w},
		FnID:       fnIncr,
		State:      st,
	}
}

// TestShippedCommitReleasesAdoptedShardReadLocks pins a lock leak in the
// shipped commit path: the coordinator's lock-all covers read keys too, and
// after a promotion the coordinator can serve two shards. When the shipped
// write set lands on one local shard (committed via commitShard, which
// releases only that shard's locks) the read locks held on the *other* local
// shard must still be released — a single "did any local commit run" bit
// suppressed that release and left orphan locks behind, caught by the
// drain-time audit.
func TestShippedCommitReleasesAdoptedShardReadLocks(t *testing.T) {
	g := &shipSplitGen{kvGen{keys: 64, keysPer: 1}}
	cfg := testConfig(4, AllFeatures())
	cfg.Seed = 7
	crashAt := 500 * sim.Microsecond
	cfg.Faults = &fault.Plan{Crashes: []fault.Crash{{Node: 2, At: crashAt}}}
	h := check.NewHistory()
	cl, err := New(cfg, g, Observers{History: h})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(3 * sim.Millisecond)
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatal("cluster did not drain")
	}

	// Non-vacuity: at least one post-crash shipped commit must have written
	// the adopted shard 2 while reading the coordinator's own shard.
	bugShape := 0
	for _, r := range h.Records() {
		if !r.Shipped || r.Status != wire.StatusOK || r.End <= crashAt || r.Node == 2 {
			continue
		}
		wroteAdopted, readOwn := false, false
		for _, kv := range r.Writes {
			if kv.Key%4 == 2 {
				wroteAdopted = true
			}
		}
		for _, kv := range r.Reads {
			if kv.Key%4 == uint64(r.Node) {
				readOwn = true
			}
		}
		if wroteAdopted && readOwn {
			bugShape++
		}
	}
	if bugShape == 0 {
		t.Fatal("no post-crash shipped commit wrote the adopted shard while holding a local read lock; the scenario did not exercise the leak path")
	}
	if rep := h.Check(); !rep.Ok() {
		t.Fatalf("history not serializable:\n%s", rep.String())
	}
	if err := cl.AuditHistory(); err != nil {
		t.Fatalf("drain-time audit failed (leaked shipped read locks): %v", err)
	}
}

// TestDelayedShipDoesNotTimeoutAbort pins the watchdog's shipped-phase
// contract: a slow ship target (all its NIC cores stalled well past the
// transaction timeout) must never cause a timeout abort of a transaction
// whose execution already committed remotely — the watchdog re-arms across
// shipTxn/coordShipResult instead of firing. The recorded history must
// stay serializable and ship-consistent throughout.
func TestDelayedShipDoesNotTimeoutAbort(t *testing.T) {
	g := &shipGen{kvGen{keys: 400, keysPer: 1}}
	cfg := testConfig(4, AllFeatures())
	cfg.Seed = 31
	plan := &fault.Plan{TxnTimeout: 100 * sim.Microsecond}
	for core := 0; core < cfg.NICCores; core++ {
		plan.CoreStalls = append(plan.CoreStalls, fault.CoreStall{
			Node: 1, Core: core, At: 1 * sim.Millisecond, Dur: 600 * sim.Microsecond,
		})
	}
	cfg.Faults = plan
	h := check.NewHistory()
	cl, err := New(cfg, g, Observers{History: h})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(3 * sim.Millisecond)
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatal("cluster did not drain")
	}

	shipped, outlived := 0, false
	for _, r := range h.Records() {
		if !r.Shipped || r.Status != wire.StatusOK {
			continue
		}
		shipped++
		if r.End-r.Start > plan.TxnTimeoutOrDefault() {
			outlived = true
		}
	}
	if shipped == 0 {
		t.Fatal("no transaction committed via shipping")
	}
	if !outlived {
		t.Fatal("stall ineffective: no shipped commit outlived the watchdog deadline")
	}
	for _, n := range cl.nodes {
		if n.stats.Timeouts[phShipped] != 0 {
			t.Fatalf("node %d: watchdog fired %d timeout aborts in the shipped phase",
				n.id, n.stats.Timeouts[phShipped])
		}
	}
	if rep := h.Check(); !rep.Ok() {
		t.Fatalf("delayed ship broke serializability:\n%s", rep.String())
	}
	if err := cl.AuditHistory(); err != nil {
		t.Fatal(err)
	}
}
