package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"xenic/internal/fault"
	"xenic/internal/sim"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// kvGen is a scripted micro-workload over counters: fnIncr adds 1 to each
// update key; read-only transactions read a few keys. Keys 0..keys-1 map to
// shard key%nodes; none are B+tree keys.
type kvGen struct {
	keys      int
	keysPer   int
	readFrac  float64 // fraction of read-only transactions
	localFrac float64 // fraction of fully-local transactions
	nicExec   bool
	spec      txnmodel.StoreSpec
}

type modPlace struct{ nodes int }

func (p modPlace) ShardOf(key uint64) int  { return int(key % uint64(p.nodes)) }
func (p modPlace) IsBTree(key uint64) bool { return false }

const fnIncr = 1

func (g *kvGen) Name() string { return "kv" }
func (g *kvGen) Spec() txnmodel.StoreSpec {
	if g.spec.HashSlots == 0 {
		g.spec = txnmodel.StoreSpec{HashSlots: 4096, InlineValueSize: 16, MaxDisplacement: 16, NICCacheObjects: 2048}
	}
	return g.spec
}
func (g *kvGen) Placement(nodes, replication int) txnmodel.Placement {
	return modPlace{nodes: nodes}
}
func (g *kvGen) Register(r *txnmodel.Registry) {
	r.Register(&txnmodel.ExecFunc{
		ID:       fnIncr,
		HostCost: 200 * sim.Nanosecond,
		Run: func(state []byte, reads []wire.KV, rows *txnmodel.Rows) txnmodel.ExecResult {
			var res txnmodel.ExecResult
			nUpd := int(binary.LittleEndian.Uint16(state))
			// The last nUpd entries are update keys; increment each.
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
func (g *kvGen) Populate(shard, nodes int, emit func(uint64, []byte)) {
	zero := make([]byte, 8)
	for k := shard; k < g.keys; k += nodes {
		emit(uint64(k), zero)
	}
}
func (g *kvGen) Measure(d *txnmodel.TxnDesc) bool { return true }

func (g *kvGen) Next(node, thread int, rng *rand.Rand) *txnmodel.TxnDesc {
	d := &txnmodel.TxnDesc{NICExec: g.nicExec}
	local := rng.Float64() < g.localFrac
	pick := func() uint64 {
		k := uint64(rng.Intn(g.keys))
		if local {
			// Force local keys: congruent to this node (tests with
			// localFrac use 4-node clusters).
			k = k - k%uint64(g.keysNodes()) + uint64(node)
			if k >= uint64(g.keys) {
				k = uint64(node)
			}
		}
		return k
	}
	seen := map[uint64]bool{}
	n := 1 + rng.Intn(g.keysPer)
	if rng.Float64() < g.readFrac {
		for i := 0; i < n; i++ {
			k := pick()
			if !seen[k] {
				seen[k] = true
				d.ReadKeys = append(d.ReadKeys, k)
			}
		}
		return d
	}
	for i := 0; i < n; i++ {
		k := pick()
		if !seen[k] {
			seen[k] = true
			d.UpdateKeys = append(d.UpdateKeys, k)
		}
	}
	d.FnID = fnIncr
	st := make([]byte, 2)
	binary.LittleEndian.PutUint16(st, uint16(len(d.UpdateKeys)))
	d.State = st
	return d
}

// keysNodes is the modulus used by pick() for locality; set by tests via
// cluster size. Tests only use localFrac with 4-node clusters.
func (g *kvGen) keysNodes() int { return 4 }

func testConfig(nodes int, feat Features) Config {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.Replication = 3
	cfg.AppThreads = 2
	cfg.WorkerThreads = 2
	cfg.NICCores = 4
	cfg.Outstanding = 4
	cfg.Features = feat
	return cfg
}

// runCounters builds a cluster on the counter workload, runs it, drains,
// and checks the fundamental OCC property: the sum of all counters equals
// the number of committed increments (no lost updates, no phantom
// commits), and replicas converge.
func runCounters(t *testing.T, g *kvGen, cfg Config, dur sim.Time) *Cluster {
	t.Helper()
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(dur)
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatal("cluster did not quiesce")
	}
	// Each committed update transaction incremented each of its update keys
	// exactly once, so the counter totals must equal the committed update
	// key count — lost updates or phantom commits break this equality.
	var sum uint64
	for k := 0; k < g.keys; k++ {
		shard := cl.Placement().ShardOf(uint64(k))
		v, _, ok := cl.nodes[shard].Primary().Read(uint64(k))
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		sum += binary.LittleEndian.Uint64(v)
	}
	var expected uint64
	for _, n := range cl.nodes {
		expected += uint64(n.stats.UpdateKeysCommitted)
	}
	if sum != expected {
		t.Fatalf("counter sum %d != committed increments %d (lost/duplicated updates)", sum, expected)
	}
	if expected == 0 && g.readFrac < 1 {
		t.Fatal("no increments committed")
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := cl.ReplicasConsistent(); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestCountersAllFeatures(t *testing.T) {
	g := &kvGen{keys: 600, keysPer: 3, readFrac: 0.3, nicExec: true}
	runCounters(t, g, testConfig(4, AllFeatures()), 20*sim.Millisecond)
}

func TestCountersNoFeatures(t *testing.T) {
	g := &kvGen{keys: 600, keysPer: 3, readFrac: 0.3}
	feat := Features{EthAggregation: true, AsyncDMA: true} // protocol off, runtime on
	runCounters(t, g, testConfig(4, feat), 20*sim.Millisecond)
}

func TestCountersBaselineRuntime(t *testing.T) {
	g := &kvGen{keys: 400, keysPer: 2, readFrac: 0.2}
	runCounters(t, g, testConfig(4, BaselineFeatures()), 10*sim.Millisecond)
}

func TestCountersHostExecution(t *testing.T) {
	g := &kvGen{keys: 600, keysPer: 3, readFrac: 0.3, nicExec: false}
	runCounters(t, g, testConfig(4, AllFeatures()), 20*sim.Millisecond)
}

func TestCountersHighContention(t *testing.T) {
	// 12 hot keys, heavy conflicts: correctness must hold under aborts.
	g := &kvGen{keys: 12, keysPer: 2, readFrac: 0, nicExec: true}
	cl := runCounters(t, g, testConfig(4, AllFeatures()), 10*sim.Millisecond)
	var aborts int64
	for _, n := range cl.nodes {
		aborts += n.stats.Aborts
	}
	if aborts == 0 {
		t.Fatal("no aborts under heavy contention — lock conflicts not detected?")
	}
}

func TestCountersLocalTransactions(t *testing.T) {
	g := &kvGen{keys: 600, keysPer: 3, readFrac: 0.3, localFrac: 1.0}
	runCounters(t, g, testConfig(4, AllFeatures()), 10*sim.Millisecond)
}

func TestCountersMixedLocality(t *testing.T) {
	g := &kvGen{keys: 600, keysPer: 3, readFrac: 0.3, localFrac: 0.5, nicExec: true}
	runCounters(t, g, testConfig(4, AllFeatures()), 15*sim.Millisecond)
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, uint64) {
		g := &kvGen{keys: 300, keysPer: 3, readFrac: 0.3, nicExec: true}
		cfg := testConfig(4, AllFeatures())
		cl, err := New(cfg, g, Observers{})
		if err != nil {
			t.Fatal(err)
		}
		cl.Start()
		cl.Run(5 * sim.Millisecond)
		cl.Drain(200 * sim.Millisecond)
		var committed int64
		for _, n := range cl.nodes {
			committed += n.stats.Committed
		}
		var sum uint64
		for k := 0; k < g.keys; k++ {
			v, _, _ := cl.nodes[cl.Placement().ShardOf(uint64(k))].Primary().Read(uint64(k))
			sum += binary.LittleEndian.Uint64(v)
		}
		return committed, sum
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("nondeterministic: run1=(%d,%d) run2=(%d,%d)", c1, s1, c2, s2)
	}
}

func TestThroughputReasonable(t *testing.T) {
	g := &kvGen{keys: 6000, keysPer: 3, readFrac: 0.5, nicExec: true}
	cfg := testConfig(6, AllFeatures())
	cfg.Outstanding = 8
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Measure(5*sim.Millisecond, 20*sim.Millisecond)
	if res.PerServerTput < 50000 {
		t.Fatalf("throughput %.0f txn/s/server is implausibly low", res.PerServerTput)
	}
	if res.Median <= 0 || res.Median > 200*sim.Microsecond {
		t.Fatalf("median latency %v out of range", res.Median)
	}
}

func TestVersionsMonotonic(t *testing.T) {
	// After a run, every key's version equals its counter value + 1
	// (population wrote version 1; each increment bumps by exactly 1).
	g := &kvGen{keys: 200, keysPer: 2, readFrac: 0, nicExec: true}
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
	for k := 0; k < g.keys; k++ {
		v, ver, ok := cl.nodes[cl.Placement().ShardOf(uint64(k))].Primary().Read(uint64(k))
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		if ver != binary.LittleEndian.Uint64(v)+1 {
			t.Fatalf("key %d: version %d != count+1 (%d)", k, ver, binary.LittleEndian.Uint64(v)+1)
		}
	}
}

// abortAccounting measures window of a counter workload squeezed onto 48
// keys, so hot-key contention engages hard, and checks the accounting
// invariant: every abort increments exactly one per-reason counter, so the
// per-reason fields of the Result sum to Aborts. It is the regression check
// for the Measure aggregation bug where a reason (AbortTimeout) was counted
// in Aborts but missing from the breakdown.
func abortAccounting(t *testing.T, cfg Config, window sim.Time) Result {
	t.Helper()
	g := &kvGen{keys: 48, keysPer: 2, readFrac: 0.1, nicExec: true}
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Measure(500*sim.Microsecond, window)
	if res.Aborts == 0 {
		t.Fatal("contended run produced no aborts; cross-check is vacuous")
	}
	sum := res.AbortLocked + res.AbortVersion + res.AbortMissing +
		res.AbortView + res.AbortTimeout + res.AbortSnapshot
	if sum != res.Aborts {
		t.Errorf("per-reason sum %d != aborts %d (%+v)", sum, res.Aborts, res)
	}
	return res
}

// TestAbortAccountingCrossCheck pins the invariant on a fault-free contended
// run.
func TestAbortAccountingCrossCheck(t *testing.T) {
	cfg := testConfig(4, AllFeatures())
	cfg.Seed = 11
	abortAccounting(t, cfg, 3*sim.Millisecond)
}

// TestAbortAccountingCrossCheckFaulty pins it on a faulty run where the
// timeout reason (the historically dropped one) actually fires: the
// transport retransmits dropped frames, so it takes the partition to outlast
// a coordinator watchdog.
func TestAbortAccountingCrossCheckFaulty(t *testing.T) {
	plan, err := fault.Parse("drop=0.02,delay=0.05,maxdelay=60us,part=1@1ms+1ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(4, AllFeatures())
	cfg.Seed = 5
	cfg.Faults = plan
	if res := abortAccounting(t, cfg, 4*sim.Millisecond); res.AbortTimeout == 0 {
		t.Fatal("faulty run produced no timeout aborts; cross-check misses the reason it pins")
	}
}
