package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"xenic/internal/fault"
	"xenic/internal/sim"
	"xenic/internal/trace"
)

// faultyRun executes the counter workload under a fault plan and returns
// the cluster plus the serialized trace.
func faultyRun(t *testing.T, plan *fault.Plan, seed int64, dur sim.Time) (*Cluster, []byte) {
	t.Helper()
	g := &kvGen{keys: 200, keysPer: 2, readFrac: 0.2, nicExec: true}
	cfg := testConfig(4, AllFeatures())
	cfg.Seed = seed
	cfg.Faults = plan
	tr := trace.New()
	cl, err := New(cfg, g, Observers{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(dur)
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatalf("cluster did not quiesce under plan %s", plan)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return cl, buf.Bytes()
}

// planDeaths counts nodes a plan removes from the cluster: crashes plus
// partitions long enough to outlast the lease (eviction).
func planDeaths(p *fault.Plan) int {
	deaths := len(p.Crashes)
	for _, pt := range p.Partitions {
		if pt.End-pt.Start >= 2*sim.Millisecond {
			deaths += len(pt.Nodes)
		}
	}
	return deaths
}

// TestChaosPlansInvariants is the chaos acceptance gate: ten seeded random
// fault plans must each drain with store/index invariants and replica
// consistency intact. Plans that kill no node must additionally preserve
// the exact OCC counter equality (no lost or duplicated updates).
func TestChaosPlansInvariants(t *testing.T) {
	injected := false
	for i := int64(0); i < 10; i++ {
		plan := fault.RandomPlan(100+i, 4)
		cl, _ := faultyRun(t, plan, 100+i, 4*sim.Millisecond)
		if err := cl.CheckInvariants(); err != nil {
			t.Fatalf("plan %d (%s): %v", i, plan, err)
		}
		if err := cl.ReplicasConsistent(); err != nil {
			t.Fatalf("plan %d (%s): %v", i, plan, err)
		}
		var committed int64
		for _, n := range cl.nodes {
			committed += n.stats.Committed
		}
		if committed == 0 {
			t.Fatalf("plan %d (%s): nothing committed", i, plan)
		}
		inj := cl.Injector()
		if inj.Drops+inj.PartDrops+inj.Dups+inj.Delayed > 0 {
			injected = true
		}
		if planDeaths(plan) == 0 {
			// Full cluster survived: every committed increment must be
			// visible exactly once.
			g := &kvGen{keys: 200}
			var sum uint64
			for k := 0; k < g.keys; k++ {
				shard := cl.Placement().ShardOf(uint64(k))
				v, _, ok := cl.nodes[cl.primaryNode(shard)].prim(shard).data.Read(uint64(k))
				if !ok {
					t.Fatalf("plan %d: key %d missing", i, k)
				}
				sum += binary.LittleEndian.Uint64(v)
			}
			var expected uint64
			for _, n := range cl.nodes {
				expected += uint64(n.stats.UpdateKeysCommitted)
			}
			if sum != expected {
				t.Fatalf("plan %d (%s): counter sum %d != committed increments %d", i, plan, sum, expected)
			}
		}
	}
	if !injected {
		t.Fatal("no plan injected any frame fault")
	}
}

// TestFaultyTraceDeterministic locks in the reproducibility guarantee: the
// same seed and plan produce byte-identical traces, faults included.
func TestFaultyTraceDeterministic(t *testing.T) {
	plan, err := fault.Parse("drop=0.01,dup=0.005,delay=0.05,maxdelay=40us,dmaerr=0.005," +
		"crash=2@2ms,part=1@1ms+600us,stall=0/1@1ms+100us,dmastall=3@1.5ms+50us")
	if err != nil {
		t.Fatal(err)
	}
	_, a := faultyRun(t, plan, 7, 3*sim.Millisecond)
	_, b := faultyRun(t, plan, 7, 3*sim.Millisecond)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and fault plan produced different trace bytes")
	}
	// The trace must carry the injected faults as "fault" instants.
	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatal(err)
	}
	faults := 0
	for _, e := range doc.TraceEvents {
		if e.Cat == "fault" {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no fault instants in trace")
	}
}

// TestPartitionTimeoutAborts verifies the coordinator watchdog: a transient
// partition (shorter than the lease, so no eviction) strands in-flight
// transactions, which must time out, abort with the timeout status, and
// still leave a consistent cluster after the partition heals.
func TestPartitionTimeoutAborts(t *testing.T) {
	plan, err := fault.Parse("part=1@1ms+1ms")
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := faultyRun(t, plan, 11, 3*sim.Millisecond)
	var timeouts int64
	for _, n := range cl.nodes {
		for _, v := range n.stats.Timeouts {
			timeouts += v
		}
	}
	if timeouts == 0 {
		t.Fatal("partition produced no watchdog timeouts")
	}
	// All four nodes survived the transient partition.
	for _, n := range cl.nodes {
		if !n.alive {
			t.Fatalf("node %d was evicted by a sub-lease partition", n.id)
		}
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := cl.ReplicasConsistent(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultFreePathUnchanged pins the gating: a nil fault plan must leave
// the fault machinery fully disabled (no seq stamping, no watchdogs).
func TestFaultFreePathUnchanged(t *testing.T) {
	g := &kvGen{keys: 100, keysPer: 2, readFrac: 0.2, nicExec: true}
	cfg := testConfig(4, AllFeatures())
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(2 * sim.Millisecond)
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatal("cluster did not quiesce")
	}
	if cl.Injector() != nil {
		t.Fatal("injector present without a plan")
	}
	for _, n := range cl.nodes {
		for ph, v := range n.stats.Timeouts {
			if v != 0 {
				t.Fatalf("node %d counted %d timeouts in phase %d without faults", n.id, v, ph)
			}
		}
		if n.stats.StaleDrops != 0 {
			t.Fatalf("node %d counted stale drops without faults", n.id)
		}
	}
}
