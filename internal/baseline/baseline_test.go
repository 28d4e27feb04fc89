package baseline

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"xenic/internal/chassis"
	"xenic/internal/hostrt"
	"xenic/internal/sim"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// counterGen mirrors the core package's micro-workload: increment counters
// via RMW transactions, plus read-only transactions.
type counterGen struct {
	keys     int
	keysPer  int
	readFrac float64
}

type modPlace struct{ nodes int }

func (p modPlace) ShardOf(key uint64) int  { return int(key % uint64(p.nodes)) }
func (p modPlace) IsBTree(key uint64) bool { return false }

const fnIncr = 1

func (g *counterGen) Name() string { return "counter" }
func (g *counterGen) Spec() txnmodel.StoreSpec {
	return txnmodel.StoreSpec{HashSlots: 4096, InlineValueSize: 16, MaxDisplacement: 16, NICCacheObjects: 2048}
}
func (g *counterGen) Placement(nodes, replication int) txnmodel.Placement {
	return modPlace{nodes: nodes}
}
func (g *counterGen) Register(r *txnmodel.Registry) {
	r.Register(&txnmodel.ExecFunc{
		ID:       fnIncr,
		HostCost: 200 * sim.Nanosecond,
		Run: func(state []byte, reads []wire.KV, rows *txnmodel.Rows) txnmodel.ExecResult {
			var res txnmodel.ExecResult
			nUpd := int(binary.LittleEndian.Uint16(state))
			for _, kv := range reads[len(reads)-nUpd:] {
				old := uint64(0)
				if len(kv.Value) >= 8 {
					old = binary.LittleEndian.Uint64(kv.Value)
				}
				nv := rows.Row(8)
				binary.LittleEndian.PutUint64(nv, old+1)
				res.Writes = append(res.Writes, wire.KV{Key: kv.Key, Value: nv})
			}
			return res
		},
	})
}
func (g *counterGen) Populate(shard, nodes int, emit func(uint64, []byte)) {
	zero := make([]byte, 8)
	for k := shard; k < g.keys; k += nodes {
		emit(uint64(k), zero)
	}
}
func (g *counterGen) Measure(d *txnmodel.TxnDesc) bool { return true }

func (g *counterGen) Next(node, thread int, rng *rand.Rand) *txnmodel.TxnDesc {
	d := &txnmodel.TxnDesc{}
	seen := map[uint64]bool{}
	n := 1 + rng.Intn(g.keysPer)
	readOnly := rng.Float64() < g.readFrac
	for i := 0; i < n; i++ {
		k := uint64(rng.Intn(g.keys))
		if seen[k] {
			continue
		}
		seen[k] = true
		if readOnly {
			d.ReadKeys = append(d.ReadKeys, k)
		} else {
			d.UpdateKeys = append(d.UpdateKeys, k)
		}
	}
	if !readOnly {
		d.FnID = fnIncr
		st := make([]byte, 2)
		binary.LittleEndian.PutUint16(st, uint16(len(d.UpdateKeys)))
		d.State = st
	}
	return d
}

func runSystem(t *testing.T, sys System, dur sim.Time) *Cluster {
	t.Helper()
	g := &counterGen{keys: 600, keysPer: 3, readFrac: 0.3}
	cfg := DefaultConfig(sys)
	cfg.Nodes = 4
	cfg.Threads = 4
	cfg.Outstanding = 4
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(dur)
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatalf("%v did not quiesce", sys)
	}
	var sum, expected uint64
	for k := 0; k < g.keys; k++ {
		v, _, ok := cl.nodes[cl.Placement().ShardOf(uint64(k))].primary.read(uint64(k))
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		sum += binary.LittleEndian.Uint64(v)
	}
	var committed int64
	for _, n := range cl.nodes {
		expected += uint64(n.Stats().UpdateKeysCommitted)
		committed += n.Stats().Committed
	}
	if sum != expected {
		t.Fatalf("%v: counter sum %d != committed increments %d", sys, sum, expected)
	}
	if committed == 0 {
		t.Fatalf("%v committed nothing", sys)
	}
	if err := cl.ReplicasConsistent(); err != nil {
		t.Fatalf("%v: %v", sys, err)
	}
	return cl
}

func TestDrTMHCounters(t *testing.T)   { runSystem(t, DrTMH, 10*sim.Millisecond) }
func TestDrTMHNCCounters(t *testing.T) { runSystem(t, DrTMHNC, 10*sim.Millisecond) }
func TestFaSSTCounters(t *testing.T)   { runSystem(t, FaSST, 10*sim.Millisecond) }
func TestDrTMRCounters(t *testing.T)   { runSystem(t, DrTMR, 10*sim.Millisecond) }

func TestSystemStrings(t *testing.T) {
	if DrTMH.String() != "DrTM+H" || FaSST.String() != "FaSST" ||
		DrTMHNC.String() != "DrTM+H NC" || DrTMR.String() != "DrTM+R" {
		t.Fatal("bad system names")
	}
	if System(9).String() == "" {
		t.Fatal("unknown system empty")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		g := &counterGen{keys: 300, keysPer: 3, readFrac: 0.3}
		cfg := DefaultConfig(DrTMH)
		cfg.Nodes = 4
		cfg.Threads = 4
		cl, err := New(cfg, g, Observers{})
		if err != nil {
			t.Fatal(err)
		}
		cl.Start()
		cl.Run(3 * sim.Millisecond)
		cl.Drain(100 * sim.Millisecond)
		var committed int64
		for _, n := range cl.nodes {
			committed += n.Stats().Committed
		}
		return committed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestMeasureProducesResults(t *testing.T) {
	g := &counterGen{keys: 2000, keysPer: 3, readFrac: 0.5}
	cfg := DefaultConfig(FaSST)
	cfg.Nodes = 4
	cfg.Threads = 6
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Measure(2*sim.Millisecond, 10*sim.Millisecond)
	if res.PerServerTput <= 0 || res.Median <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

func TestConfigValidation(t *testing.T) {
	g := &counterGen{keys: 100, keysPer: 2}
	bad := []Config{
		{Nodes: 1, Replication: 1, Threads: 1, Outstanding: 1},
		{Nodes: 4, Replication: 5, Threads: 1, Outstanding: 1},
		{Nodes: 4, Replication: 2, Threads: 0, Outstanding: 1},
	}
	for i, cfg := range bad {
		cfg.Params = DefaultConfig(DrTMH).Params
		if _, err := New(cfg, g, Observers{}); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestAbortKeysSurviveRecycle is the lock-list handoff test on the baseline
// coordinator. An attempt's per-shard lock-key lists survive its reset,
// except a list handed to an ABORT RPC: that one belongs to the message
// until it lands. The scenario: an attempt holding two locks on a remote
// shard aborts, and while its ABORT is in flight the same btxn is reset for
// the retry and locks two other keys on that shard. The ABORT must arrive
// carrying the keys it was sent with.
func TestAbortKeysSurviveRecycle(t *testing.T) {
	cfg := DefaultConfig(FaSST)
	cfg.Nodes = 4
	cfg.Threads = 2
	cl, err := New(cfg, &counterGen{keys: 400, keysPer: 3}, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	n, remote := cl.nodes[0], cl.nodes[1]
	first, second := []uint64{1, 5}, []uint64{9, 13} // keys of shard 1
	var arrived [][]uint64
	remote.host.OnMessage(func(th *hostrt.Thread, src int, m wire.Msg) {
		if a, ok := m.(*wire.Abort); ok {
			if !slices.Equal(a.LockedKeys, first) {
				// Checked before the handler, whose strict unlock panics on a
				// key the sender does not hold.
				t.Fatalf("ABORT carried keys %v, sent with %v", a.LockedKeys, first)
			}
			arrived = append(arrived, a.LockedKeys)
		}
		remote.hostHandler(th, src, m)
	})
	tx := newTxn().Attempt.(*btxn)
	lock := func(keys []uint64) {
		for _, k := range keys {
			if !remote.tryLock(k, tx.ID) {
				t.Fatalf("key %d already locked", k)
			}
		}
		tx.AddLocks(1, keys...)
	}
	tx.ID = chassis.TxnID(0, 0, 1<<20)
	lock(first)
	n.releaseLocks(n.host.Thread(0), tx)
	tx.reset()
	tx.ID++
	lock(second)
	eng := cl.Engine()
	for i := 0; i < 100_000 && len(arrived) == 0; i++ {
		if !eng.Step() {
			t.Fatal("engine ran dry before the ABORT landed")
		}
	}
	if len(arrived) == 0 {
		t.Fatal("the ABORT never landed")
	}
	for _, k := range second {
		if !remote.isLocked(k, 0) {
			t.Errorf("the retry's lock on key %d was released", k)
		}
	}
}
