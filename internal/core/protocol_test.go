package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"xenic/internal/baseline"
	"xenic/internal/sim"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// condGen exercises application-level aborts and multi-round execution:
// fnGuard aborts when the guard key's counter is odd; fnChain reads one key
// in round one and requests its "pointer" in round two; fnRewrite writes a
// marker to the key it read in round one and increments the key it reads
// in round two, which only the final round's writes may commit.
type condGen struct {
	keys int
	mode int // 0 = guard aborts, 1 = chained reads, 2 = a write per round
	// Mode 2 only: the cluster size, whether both keys live on the
	// coordinator's own shard (the host-local path), and NIC execution.
	nodes   int
	local   bool
	nicExec bool
}

const (
	fnGuard   = 1
	fnChain   = 2
	fnRewrite = 3
)

// rewriteMarker is the value fnRewrite's first round writes.
var rewriteMarker = []byte{0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef}

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
		Run: func(state []byte, reads []wire.KV, rows *txnmodel.Rows) txnmodel.ExecResult {
			v := binary.LittleEndian.Uint64(reads[0].Value)
			if v%2 == 1 {
				return txnmodel.ExecResult{Abort: true}
			}
			nv := rows.Row(8)
			binary.LittleEndian.PutUint64(nv, v+2)
			return txnmodel.ExecResult{Writes: []wire.KV{{Key: reads[0].Key, Value: nv}}}
		},
	})
	r.Register(&txnmodel.ExecFunc{
		ID: fnChain, HostCost: 100 * sim.Nanosecond,
		Run: func(state []byte, reads []wire.KV, rows *txnmodel.Rows) txnmodel.ExecResult {
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
			nv := rows.Row(8)
			binary.LittleEndian.PutUint64(nv, v+2)
			return txnmodel.ExecResult{Writes: []wire.KV{{Key: reads[0].Key, Value: nv}}}
		},
	})
	r.Register(&txnmodel.ExecFunc{
		ID: fnRewrite, HostCost: 100 * sim.Nanosecond,
		Run: func(state []byte, reads []wire.KV, rows *txnmodel.Rows) txnmodel.ExecResult {
			if len(reads) == 1 {
				marker := rows.Row(len(rewriteMarker))
				copy(marker, rewriteMarker)
				return txnmodel.ExecResult{
					Writes:    []wire.KV{{Key: reads[0].Key, Value: marker}},
					MoreReads: []uint64{binary.LittleEndian.Uint64(state)},
				}
			}
			nv := rows.Row(8)
			binary.LittleEndian.PutUint64(nv, binary.LittleEndian.Uint64(reads[1].Value)+1)
			return txnmodel.ExecResult{Writes: []wire.KV{{Key: reads[1].Key, Value: nv}}}
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
	if g.mode == 2 {
		// Both keys on the coordinator's shard, or on two others.
		sa, sb := node, node
		if !g.local {
			sa, sb = (node+1)%g.nodes, (node+2)%g.nodes
		}
		rows := g.keys / g.nodes
		i := rng.Intn(rows)
		j := (i + 1 + rng.Intn(rows-1)) % rows
		st := make([]byte, 8)
		binary.LittleEndian.PutUint64(st, uint64(sb+g.nodes*j))
		return &txnmodel.TxnDesc{
			ReadKeys: []uint64{uint64(sa + g.nodes*i)},
			FnID:     fnRewrite,
			State:    st,
			NICExec:  g.nicExec,
		}
	}
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

// TestFinalRoundWritesOnly runs fnRewrite on every execution site — the
// coordinator NIC, the host over the NIC, the host-local fast path, and the
// four baselines — and checks the committed state: round one's marker is
// never installed, and the round-two counters sum to the committed count.
func TestFinalRoundWritesOnly(t *testing.T) {
	const nodes, keys = 4, 400
	check := func(t *testing.T, committed int64, read func(uint64) []byte) {
		t.Helper()
		if committed == 0 {
			t.Fatal("nothing committed")
		}
		var sum int64
		for k := uint64(0); k < keys; k++ {
			v := read(k)
			if string(v) == string(rewriteMarker) {
				t.Fatalf("key %d holds the first round's write", k)
			}
			sum += int64(binary.LittleEndian.Uint64(v))
			if k%3 == 0 {
				sum-- // populated at 1
			}
		}
		if sum != committed {
			t.Fatalf("counters sum to %d, %d transactions committed", sum, committed)
		}
	}
	for _, site := range []struct {
		name           string
		local, nicExec bool
	}{{"nic", false, true}, {"host", false, false}, {"host-local", true, false}} {
		t.Run("xenic/"+site.name, func(t *testing.T) {
			g := &condGen{keys: keys, mode: 2, nodes: nodes, local: site.local, nicExec: site.nicExec}
			feat := AllFeatures()
			feat.MultiHopOCC = false // shipped executions are single-round
			cl, err := New(testConfig(nodes, feat), g, Observers{})
			if err != nil {
				t.Fatal(err)
			}
			cl.Start()
			cl.Run(2 * sim.Millisecond)
			if !cl.Drain(500 * sim.Millisecond) {
				t.Fatal("no quiesce")
			}
			var committed int64
			for _, n := range cl.nodes {
				committed += n.stats.Committed
			}
			check(t, committed, func(k uint64) []byte {
				v, _, _ := cl.nodes[cl.Placement().ShardOf(k)].Primary().Read(k)
				return v
			})
			if err := cl.ReplicasConsistent(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, sys := range []baseline.System{baseline.DrTMH, baseline.DrTMHNC, baseline.FaSST, baseline.DrTMR} {
		t.Run(fmt.Sprintf("baseline/%v", sys), func(t *testing.T) {
			g := &condGen{keys: keys, mode: 2, nodes: nodes}
			cfg := baseline.DefaultConfig(sys)
			cfg.Nodes, cfg.Threads, cfg.Outstanding = nodes, 4, 4
			cl, err := baseline.New(cfg, g, baseline.Observers{})
			if err != nil {
				t.Fatal(err)
			}
			cl.Start()
			cl.Run(2 * sim.Millisecond)
			if !cl.Drain(500 * sim.Millisecond) {
				t.Fatal("no quiesce")
			}
			var committed int64
			for i := 0; i < nodes; i++ {
				committed += cl.Node(i).Stats().Committed
			}
			check(t, committed, func(k uint64) []byte {
				v, _, _ := cl.Replicas(cl.Placement().ShardOf(k))[0].Read(k)
				return v
			})
			if err := cl.ReplicasConsistent(); err != nil {
				t.Fatal(err)
			}
		})
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
