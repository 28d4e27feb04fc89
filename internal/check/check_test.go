package check

import (
	"strings"
	"testing"

	"xenic/internal/wire"
)

func kv(key, ver uint64) wire.KeyVer { return wire.KeyVer{Key: key, Version: ver} }

func committedRec(id uint64, reads, writes []wire.KeyVer) TxnRecord {
	return TxnRecord{ID: id, Status: wire.StatusOK, Reads: reads, Writes: writes}
}

// TestCheckSerializable: a clean chain of RMWs plus readers is serializable.
func TestCheckSerializable(t *testing.T) {
	h := NewHistory()
	// Populate leaves every key at version 1.
	h.Add(committedRec(1, []wire.KeyVer{kv(10, 1)}, []wire.KeyVer{kv(10, 2)}))
	h.Add(committedRec(2, []wire.KeyVer{kv(10, 2)}, []wire.KeyVer{kv(10, 3)}))
	h.Add(committedRec(3, []wire.KeyVer{kv(10, 3), kv(20, 1)}, nil))
	// A read of a missing key (version 0) is an initial-state read.
	h.Add(committedRec(4, []wire.KeyVer{kv(99, 0)}, nil))
	// Aborted txns do not participate.
	h.Add(TxnRecord{ID: 5, Status: wire.StatusAbortVersion, Reads: []wire.KeyVer{kv(10, 1)}})
	rep := h.Check()
	if !rep.Ok() {
		t.Fatalf("expected clean report, got: %s", rep)
	}
	if rep.Txns != 4 {
		t.Errorf("Txns = %d, want 4", rep.Txns)
	}
	if rep.Edges == 0 {
		t.Error("expected some dependency edges")
	}
}

// TestCheckLostUpdate: two txns installing the same version of one key is a
// lost update — mutual ww edges form a 2-cycle plus an anomaly.
func TestCheckLostUpdate(t *testing.T) {
	h := NewHistory()
	h.Add(committedRec(1, []wire.KeyVer{kv(7, 1)}, []wire.KeyVer{kv(7, 2)}))
	h.Add(committedRec(2, []wire.KeyVer{kv(7, 1)}, []wire.KeyVer{kv(7, 2)}))
	rep := h.Check()
	if rep.Ok() {
		t.Fatal("expected violation")
	}
	if len(rep.Cycles) == 0 {
		t.Fatalf("expected a witness cycle, got: %s", rep)
	}
	if got := len(rep.Cycles[0].Edges); got != 2 {
		t.Errorf("witness cycle length = %d, want 2 (%s)", got, rep.Cycles[0])
	}
	found := false
	for _, a := range rep.Anomalies {
		if strings.Contains(a, "lost update") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a lost-update anomaly, got %v", rep.Anomalies)
	}
}

// TestCheckNonAtomicRead: a reader observing half of a writer's update (old
// x, new y) forms a wr/rw 2-cycle — the classic broken-snapshot witness.
func TestCheckNonAtomicRead(t *testing.T) {
	h := NewHistory()
	// W updates x and y together.
	h.Add(committedRec(1,
		[]wire.KeyVer{kv(1, 1), kv(2, 1)},
		[]wire.KeyVer{kv(1, 2), kv(2, 2)}))
	// R saw x before W and y after W.
	h.Add(committedRec(2, []wire.KeyVer{kv(1, 1), kv(2, 2)}, nil))
	rep := h.Check()
	if rep.Ok() {
		t.Fatal("expected violation")
	}
	if len(rep.Cycles) != 1 {
		t.Fatalf("expected exactly one witness cycle, got: %s", rep)
	}
	c := rep.Cycles[0]
	if len(c.Edges) != 2 {
		t.Fatalf("witness cycle length = %d, want 2 (%s)", len(c.Edges), c)
	}
	kinds := c.Edges[0].Kind + c.Edges[1].Kind
	if kinds != "wrrw" && kinds != "rwwr" {
		t.Errorf("expected wr+rw cycle, got %s", c)
	}
}

// TestCheckDirtyRead: observing a version no committed txn installed is an
// anomaly even without a cycle.
func TestCheckDirtyRead(t *testing.T) {
	h := NewHistory()
	h.Add(committedRec(1, []wire.KeyVer{kv(3, 5)}, nil))
	rep := h.Check()
	if rep.Ok() {
		t.Fatal("expected anomaly for read of never-installed version")
	}
	if len(rep.Anomalies) != 1 || !strings.Contains(rep.Anomalies[0], "never installed") {
		t.Errorf("unexpected anomalies: %v", rep.Anomalies)
	}
}

// TestCheckMergeRecovered: a coordinator commit and per-shard recovery
// records for the same id merge into one txn (union of writes).
func TestCheckMergeRecovered(t *testing.T) {
	h := NewHistory()
	h.Add(committedRec(1, []wire.KeyVer{kv(1, 1), kv(2, 1)}, []wire.KeyVer{kv(1, 2), kv(2, 2)}))
	h.Add(TxnRecord{ID: 1, Status: wire.StatusOK, Recovered: true, Writes: []wire.KeyVer{kv(2, 2)}})
	h.Add(committedRec(2, []wire.KeyVer{kv(1, 2), kv(2, 2)}, nil))
	rep := h.Check()
	if !rep.Ok() {
		t.Fatalf("merged history should be clean: %s", rep)
	}
	if rep.Txns != 2 {
		t.Errorf("Txns = %d, want 2 after merging", rep.Txns)
	}
}

// TestCheckConflictingOutcome: one id recorded both committed and aborted.
func TestCheckConflictingOutcome(t *testing.T) {
	h := NewHistory()
	h.Add(committedRec(1, nil, []wire.KeyVer{kv(1, 2)}))
	h.Add(TxnRecord{ID: 1, Status: wire.StatusAbortView})
	rep := h.Check()
	if rep.Ok() {
		t.Fatal("expected conflicting-outcome anomaly")
	}
}

// TestShipConsistent: target shadow must cover the committed write set.
func TestShipConsistent(t *testing.T) {
	h := NewHistory()
	h.Add(TxnRecord{ID: 1, Status: wire.StatusOK, Shipped: true, ShipTo: 2,
		Writes: []wire.KeyVer{kv(1, 2), kv(2, 2)}})
	h.RecordShip(1, 0, 2, []wire.KV{{Key: 1, Version: 2}, {Key: 2, Version: 2}})
	if err := h.ShipConsistent(); err != nil {
		t.Fatalf("consistent shadow rejected: %v", err)
	}
	h2 := NewHistory()
	h2.Add(TxnRecord{ID: 1, Status: wire.StatusOK, Shipped: true, ShipTo: 2,
		Writes: []wire.KeyVer{kv(1, 2), kv(2, 3)}})
	h2.RecordShip(1, 0, 2, []wire.KV{{Key: 1, Version: 2}, {Key: 2, Version: 2}})
	if err := h2.ShipConsistent(); err == nil {
		t.Fatal("version mismatch between origin and target not detected")
	}
	// Shadows of never-committed txns are unconstrained.
	h3 := NewHistory()
	h3.RecordShip(9, 0, 1, []wire.KV{{Key: 1, Version: 2}})
	if err := h3.ShipConsistent(); err != nil {
		t.Fatalf("aborted ship constrained: %v", err)
	}
}

// TestNilHistory: all recording and checking entry points are nil-safe.
func TestNilHistory(t *testing.T) {
	var h *History
	h.Add(TxnRecord{ID: 1})
	h.Record(TxnRecord{ID: 1}, []wire.KV{{Key: 1}}, nil)
	h.RecordShip(1, 0, 1, []wire.KV{{Key: 1}})
	if h.Len() != 0 || h.Records() != nil || h.Ships() != nil {
		t.Error("nil history should be empty")
	}
	if rep := h.Check(); !rep.Ok() {
		t.Error("nil history should check clean")
	}
	if err := h.ShipConsistent(); err != nil {
		t.Error("nil history ship audit should pass")
	}
}

// TestCanonicalize: KeyVers sorts by key and keeps a repeated key's last
// version, and Record files both sets that way.
func TestCanonicalize(t *testing.T) {
	k := KeyVers([]wire.KV{{Key: 9, Version: 1}, {Key: 2, Version: 3}, {Key: 9, Version: 5}, {Key: 1, Version: 4}})
	if len(k) != 3 || k[0] != kv(1, 4) || k[1] != kv(2, 3) || k[2] != kv(9, 5) {
		t.Errorf("KeyVers not canonical: %v", k)
	}
	if KeyVers(nil) != nil {
		t.Error("KeyVers of nothing is not nil")
	}
	h := NewHistory()
	h.Record(TxnRecord{ID: 1, Status: wire.StatusOK},
		[]wire.KV{{Key: 3, Version: 1}, {Key: 1, Version: 1}},
		[]wire.KV{{Key: 3, Version: 1}, {Key: 3, Version: 2}})
	r := h.Records()[0]
	if len(r.Reads) != 2 || r.Reads[0] != kv(1, 1) || r.Reads[1] != kv(3, 1) || len(r.Writes) != 1 || r.Writes[0] != kv(3, 2) {
		t.Errorf("Record filed reads %v, writes %v", r.Reads, r.Writes)
	}
}

// TestLastVersions and CommittedIDs feed the store/log audits.
func TestSummaries(t *testing.T) {
	h := NewHistory()
	h.Add(committedRec(1, nil, []wire.KeyVer{kv(1, 2)}))
	h.Add(committedRec(2, nil, []wire.KeyVer{kv(1, 3), kv(2, 2)}))
	h.Add(TxnRecord{ID: 3, Status: wire.StatusAbortLocked})
	lv := h.LastVersions()
	if lv[1] != 3 || lv[2] != 2 {
		t.Errorf("LastVersions = %v", lv)
	}
	ids := h.CommittedIDs()
	if !ids[1] || !ids[2] || ids[3] {
		t.Errorf("CommittedIDs = %v", ids)
	}
}
