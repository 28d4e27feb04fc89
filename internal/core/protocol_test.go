package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"xenic/internal/sim"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// condGen exercises application-level aborts and multi-round execution:
// fnGuard aborts when the guard key's counter is odd; fnChain reads one key
// in round one and requests its "pointer" in round two.
type condGen struct {
	keys int
	mode int // 0 = guard aborts, 1 = chained reads
}

const (
	fnGuard = 1
	fnChain = 2
)

func (g *condGen) Name() string { return "cond" }
func (g *condGen) Spec() txnmodel.StoreSpec {
	return txnmodel.StoreSpec{HashSlots: 4096, InlineValueSize: 16, MaxDisplacement: 16, NICCacheObjects: 2048}
}
func (g *condGen) Placement(nodes, replication int) txnmodel.Placement {
	return modPlace{nodes: nodes}
}
func (g *condGen) Register(r *txnmodel.Registry) {
	r.Register(&txnmodel.ExecFunc{
		ID: fnGuard, HostCost: 100 * sim.Nanosecond,
		Run: func(state []byte, reads []wire.KV) txnmodel.ExecResult {
			v := binary.LittleEndian.Uint64(reads[0].Value)
			if v%2 == 1 {
				return txnmodel.ExecResult{Abort: true}
			}
			nv := make([]byte, 8)
			binary.LittleEndian.PutUint64(nv, v+2)
			return txnmodel.ExecResult{Writes: []wire.KV{{Key: reads[0].Key, Value: nv}}}
		},
	})
	r.Register(&txnmodel.ExecFunc{
		ID: fnChain, HostCost: 100 * sim.Nanosecond,
		Run: func(state []byte, reads []wire.KV) txnmodel.ExecResult {
			if len(reads) == 1 {
				// Round 1: follow the "pointer" stored in the value.
				next := binary.LittleEndian.Uint64(reads[0].Value) % 97
				if next == reads[0].Key {
					next = (next + 1) % 97
				}
				return txnmodel.ExecResult{MoreReads: []uint64{next}}
			}
			// Round 2: write a tombstone-ish marker to the first key.
			v := binary.LittleEndian.Uint64(reads[0].Value)
			nv := make([]byte, 8)
			binary.LittleEndian.PutUint64(nv, v+2)
			return txnmodel.ExecResult{Writes: []wire.KV{{Key: reads[0].Key, Value: nv}}}
		},
	})
}
func (g *condGen) Populate(shard, nodes int, emit func(uint64, []byte)) {
	for k := shard; k < g.keys; k += nodes {
		v := make([]byte, 8)
		if k%3 == 0 {
			binary.LittleEndian.PutUint64(v, 1) // odd: guard transactions abort
		}
		emit(uint64(k), v)
	}
}
func (g *condGen) Measure(d *txnmodel.TxnDesc) bool { return true }
func (g *condGen) Next(node, thread int, rng *rand.Rand) *txnmodel.TxnDesc {
	k := uint64(rng.Intn(g.keys))
	if g.mode == 0 {
		return &txnmodel.TxnDesc{
			UpdateKeys: []uint64{k},
			FnID:       fnGuard,
			NICExec:    rng.Intn(2) == 0, // mix NIC and host execution
		}
	}
	return &txnmodel.TxnDesc{
		UpdateKeys: []uint64{k % 97}, // chain within a small space
		FnID:       fnChain,
		// Multi-round requires host execution (§4.2.3 restricts shipping).
		NICExec: false,
	}
}

func TestApplicationAborts(t *testing.T) {
	g := &condGen{keys: 300, mode: 0}
	cfg := testConfig(4, AllFeatures())
	cfg.MaxRetries = 2 // guard aborts are deterministic: don't spin
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(5 * sim.Millisecond)
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatal("no quiesce")
	}
	var committed, failed int64
	for _, n := range cl.nodes {
		committed += n.stats.Committed
		failed += n.stats.Failed
	}
	if committed == 0 {
		t.Fatal("even-guard transactions never committed")
	}
	if failed == 0 {
		t.Fatal("odd-guard transactions never reported failure (app aborts lost)")
	}
	// Odd counters must never have been written (their value stays 1).
	for k := 0; k < g.keys; k += 3 {
		v, _, _ := cl.nodes[cl.Placement().ShardOf(uint64(k))].Primary().Read(uint64(k))
		if binary.LittleEndian.Uint64(v)%2 != 1 {
			t.Fatalf("aborting transaction wrote key %d", k)
		}
	}
	if err := cl.ReplicasConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiRoundExecution(t *testing.T) {
	g := &condGen{keys: 300, mode: 1}
	cfg := testConfig(4, AllFeatures())
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(5 * sim.Millisecond)
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatal("no quiesce")
	}
	var committed int64
	for _, n := range cl.nodes {
		committed += n.stats.Committed
	}
	if committed == 0 {
		t.Fatal("no multi-round transaction committed")
	}
	if err := cl.ReplicasConsistent(); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadConfig(t *testing.T) {
	g := &condGen{keys: 100}
	bad := []Config{
		func() Config { c := DefaultConfig(); c.Nodes = 1; return c }(),
		func() Config { c := DefaultConfig(); c.Replication = 9; return c }(),
		func() Config { c := DefaultConfig(); c.AppThreads = 0; return c }(),
		func() Config { c := DefaultConfig(); c.Outstanding = 0; return c }(),
	}
	for i, cfg := range bad {
		if _, err := New(cfg, g, Observers{}); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}
