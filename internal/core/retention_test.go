package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"xenic/internal/check"
	"xenic/internal/fault"
	"xenic/internal/sim"
	"xenic/internal/txnmodel"
)

// retainGen keeps a six-node cluster busy on shards 0–2 only — whose
// replicas are nodes 0–4 — so node 5 can crash without stalling anyone:
// nodes 0–4 increment one or two counters there, never victimKey; node 5
// only reads its own shard, which logs nothing.
type retainGen struct{ kvGen }

const (
	retainNodes = 6
	victimKey   = 0 // shard 0: primary node 0, backups nodes 1 and 2
)

func (g *retainGen) Next(node, thread int, rng *rand.Rand) *txnmodel.TxnDesc {
	if node == retainNodes-1 {
		return &txnmodel.TxnDesc{NICExec: true, ReadKeys: []uint64{3}}
	}
	pick := func() uint64 {
		for {
			if k := uint64(rng.Intn(g.keys)); k%retainNodes < 3 && k != victimKey {
				return k
			}
		}
	}
	keys := []uint64{pick()}
	if k := pick(); k != keys[0] && rng.Intn(2) == 0 {
		keys = append(keys, k)
	}
	return incrDesc(keys...)
}

// incrDesc is a NIC-executed transaction incrementing each of keys.
func incrDesc(keys ...uint64) *txnmodel.TxnDesc {
	st := make([]byte, 2)
	binary.LittleEndian.PutUint16(st, uint16(len(keys)))
	return &txnmodel.TxnDesc{NICExec: true, UpdateKeys: keys, FnID: fnIncr, State: st}
}

// retentionRun builds the one failure shape in which a recovery vote needs
// a record its holder applied long before. Node 5 coordinates a single
// increment of victimKey. Backup 1's DMA engine is stalled, so its Log ack —
// the last one — reaches the coordinator after a partition has cut {5, 1}
// off from the rest: LogCommit reaches backup 1, which applies its record,
// while LogCommit to backup 2 and COMMIT to the primary are still being
// retransmitted when node 5 crashes. Two milliseconds and a few thousand
// log records later the lease expires, the primary finds the orphan lock and
// asks both backups; backup 1 can only answer from the applied record.
func retentionRun(t *testing.T) (cl *Cluster, h *check.History) {
	t.Helper()
	plan, err := fault.Parse("dmastall=1@1ms+40us,part=5:1@1025us+60us,crash=5@1070us")
	if err != nil {
		t.Fatal(err)
	}
	g := &retainGen{kvGen{keys: 600}}
	cfg := testConfig(retainNodes, AllFeatures())
	cfg.Faults = plan
	h = check.NewHistory()
	cl, err = New(cfg, g, Observers{History: h})
	if err != nil {
		t.Fatal(err)
	}
	if b := cl.BackupsOf(victimKey); len(b) != 2 || b[0] != 1 || b[1] != 2 {
		t.Fatalf("shard 0 backups are %v, the scenario assumes [1 2]", b)
	}
	cl.Engine().At(sim.Millisecond, func() { cl.InjectTxn(retainNodes-1, 0, incrDesc(victimKey), nil) })
	cl.Start()
	cl.Run(6 * sim.Millisecond)
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatal("cluster did not drain")
	}
	return cl, h
}

// TestRecoveryVoteFromAppliedRecord pins the recovery path that reads a log
// record after it was applied — the reason the log retains finished records
// on fault runs — and that the transaction it saves commits everywhere.
func TestRecoveryVoteFromAppliedRecord(t *testing.T) {
	cl, h := retentionRun(t)
	if cl.nodes[1].log.appliedAnswers == 0 {
		t.Fatal("no recovery query was answered from an applied record: the scenario no longer reaches hostLog.has's decided-record fallback")
	}
	if err := cl.ReplicasConsistent(); err != nil {
		t.Fatal(err)
	}
	if rep := h.Check(); !rep.Ok() {
		t.Fatalf("history not clean:\n%s", rep.String())
	}
	if err := cl.AuditHistory(); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := cl.nodes[0].Primary().Read(victimKey); binary.LittleEndian.Uint64(v) != 1 {
		t.Fatalf("victim counter is %d, want the one recovered increment", binary.LittleEndian.Uint64(v))
	}
}

// TestReclaimUnderFaultsLosesCommit is the mutant: with reclamation forced
// on the same run, backup 1 has recycled the applied record by the time the
// primary asks, the vote aborts a transaction that reached its commit point,
// and the replica that applied it diverges. A retention rule "simplified"
// into always reclaiming fails here, not in a chaos run.
func TestReclaimUnderFaultsLosesCommit(t *testing.T) {
	mutReclaimUnderFaults = true
	defer func() { mutReclaimUnderFaults = false }()
	cl, _ := retentionRun(t)
	if cl.nodes[1].log.head == 0 {
		t.Fatal("mutant reclaimed nothing at backup 1")
	}
	replicas, audit := cl.ReplicasConsistent(), cl.AuditHistory()
	if replicas == nil || audit == nil {
		t.Fatalf("reclaiming under faults went unnoticed: replicas %v, audit %v", replicas, audit)
	}
	t.Logf("caught: %v; %v", replicas, audit)
}
