// Package check records complete transaction histories from a simulated
// cluster run and verifies them for serializability (DESIGN.md §9).
//
// The recorder is pure Go-side bookkeeping: it schedules no events, charges
// no simulated time, and sends no messages, so a run with a History attached
// is byte-identical to one without. Every system records one TxnRecord per
// finished attempt through History.Record at its protocol decision points
// (commit point, abort decision, recovery decision, host-local completion),
// and the Xenic ship target additionally records a ShipRecord shadow of
// every shipped execution (RecordShip) so the origin and target views can be
// cross-checked.
//
// The checker reconstructs the per-key version order from installed
// versions, builds the direct serialization graph (read-from, write-write,
// and anti-dependency edges), and reports every strongly connected component
// with more than one transaction as a serializability violation, together
// with a minimal witness cycle naming the transactions, keys, and versions
// involved.
package check

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"xenic/internal/sim"
	"xenic/internal/wire"
)

// TxnRecord is one transaction's recorded outcome.
type TxnRecord struct {
	// ID is the transaction id (unique per attempt; retries get fresh ids).
	ID uint64
	// Node is the coordinator node (for Recovered records, the node that
	// decided the recovery).
	Node int
	// Status is the final outcome; StatusOK means committed.
	Status wire.Status
	// Start is when the transaction opened; End is when the commit or abort
	// decision was made (the commit point for committed transactions).
	Start sim.Time
	End   sim.Time
	// Reads is the observed read set: for every key read, the version the
	// transaction observed (0 for a missing key). Sorted by key.
	Reads []wire.KeyVer
	// Writes is the installed write set: for every key written, the version
	// the commit installed. Sorted by key. Empty for aborts.
	Writes []wire.KeyVer
	// Recovered marks a synthetic record emitted when recovery commits a
	// dead coordinator's transaction from its replicated log records; it
	// carries only the recovered shard's writes and no reads. The checker
	// merges it with any other record of the same id.
	Recovered bool
	// Shipped marks a multi-hop transaction executed at node ShipTo.
	Shipped bool
	ShipTo  int
	// Snapshot marks a read-only transaction served by the MVCC snapshot
	// path (DESIGN.md §12): it read at SnapshotTS with no locks or
	// validation. The checker keeps it in the serialization graph and
	// additionally verifies snapshot-isolation visibility for it.
	Snapshot bool
	// SnapshotTS is the timestamp a Snapshot transaction read at.
	SnapshotTS uint64
	// CommitTS is the MVCC commit timestamp an update transaction's writes
	// installed at (0 when MVCC is off; such transactions are exempt from
	// the snapshot visibility pass).
	CommitTS uint64
}

// ShipRecord is the ship target's shadow of a shipped execution: the write
// set it computed and fanned out, used to audit that the origin committed
// exactly what the target executed.
type ShipRecord struct {
	Txn    uint64
	Origin int
	Target int
	Writes []wire.KeyVer
}

// History accumulates transaction records for one cluster run. All methods
// are nil-safe so recording sites call them unconditionally; a nil History
// records nothing. A History is not safe for concurrent use — each cluster
// owns a private sim.Engine and appends single-threaded.
type History struct {
	recs  []TxnRecord
	ships []ShipRecord
}

// NewHistory returns an empty history.
func NewHistory() *History { return &History{} }

// Add appends one transaction record as it is; recording sites use Record.
func (h *History) Add(r TxnRecord) {
	if h == nil {
		return
	}
	h.recs = append(h.recs, r)
}

// Record appends r as one attempt's outcome, with its read and write sets
// canonicalized (KeyVers) from the protocol's own slices, which it does not
// keep. On a nil History it builds nothing, so recording sites call it
// unconditionally.
func (h *History) Record(r TxnRecord, reads, writes []wire.KV) {
	if h == nil {
		return
	}
	r.Reads, r.Writes = KeyVers(reads), KeyVers(writes)
	h.recs = append(h.recs, r)
}

// RecordShip appends the ship target's shadow of a shipped execution: the
// write set target computed for origin's transaction txn.
func (h *History) RecordShip(txn uint64, origin, target int, writes []wire.KV) {
	if h == nil {
		return
	}
	h.ships = append(h.ships, ShipRecord{Txn: txn, Origin: origin, Target: target, Writes: KeyVers(writes)})
}

// Len reports the number of transaction records.
func (h *History) Len() int {
	if h == nil {
		return 0
	}
	return len(h.recs)
}

// Records returns the raw transaction records in append order.
func (h *History) Records() []TxnRecord {
	if h == nil {
		return nil
	}
	return h.recs
}

// Ships returns the ship shadow records in append order.
func (h *History) Ships() []ShipRecord {
	if h == nil {
		return nil
	}
	return h.ships
}

// KeyVers canonicalizes a read or write set into (key, version) pairs sorted
// by key; when a key repeats, its last version wins (the latest read, or the
// last install in apply order). Nil when kvs is empty.
func KeyVers(kvs []wire.KV) []wire.KeyVer {
	if len(kvs) == 0 {
		return nil
	}
	out := make([]wire.KeyVer, len(kvs))
	for i, kv := range kvs {
		out[i] = wire.KeyVer{Key: kv.Key, Version: kv.Version}
	}
	slices.SortStableFunc(out, func(a, b wire.KeyVer) int { return cmp.Compare(a.Key, b.Key) })
	n := 0
	for i := range out {
		if i+1 < len(out) && out[i+1].Key == out[i].Key {
			continue // a later entry of the same key wins
		}
		out[n] = out[i]
		n++
	}
	return out[:n]
}

// committedTxn is the checker's merged view of one committed transaction:
// records sharing a transaction id (a coordinator commit plus per-shard
// recovery decisions) union their read and write sets.
type committedTxn struct {
	id            uint64
	reads         map[uint64]uint64 // key -> observed version
	writes        map[uint64]uint64 // key -> installed version
	recoveredOnly bool              // committed only via recovery records
	shipped       bool
	snapshot      bool   // served by the MVCC snapshot read path
	snapTS        uint64 // snapshot timestamp it read at
	cts           uint64 // MVCC commit timestamp (0 when MVCC off)
}

// mergeCommitted folds the raw records into per-id committed transactions,
// reporting merge-level anomalies (conflicting outcomes for one id,
// conflicting versions for one key within one id).
func (h *History) mergeCommitted() (map[uint64]*committedTxn, []string) {
	var anomalies []string
	merged := map[uint64]*committedTxn{}
	aborted := map[uint64]bool{}
	for i := range h.recs {
		r := &h.recs[i]
		if r.Status != wire.StatusOK {
			aborted[r.ID] = true
			continue
		}
		t := merged[r.ID]
		if t == nil {
			t = &committedTxn{id: r.ID, reads: map[uint64]uint64{}, writes: map[uint64]uint64{}, recoveredOnly: true}
			merged[r.ID] = t
		}
		if !r.Recovered {
			t.recoveredOnly = false
		}
		if r.Shipped {
			t.shipped = true
		}
		if r.Snapshot {
			t.snapshot = true
			t.snapTS = r.SnapshotTS
		}
		if r.CommitTS != 0 {
			if t.cts != 0 && t.cts != r.CommitTS {
				anomalies = append(anomalies, fmt.Sprintf(
					"txn %#x: conflicting commit timestamps (%d vs %d)",
					r.ID, t.cts, r.CommitTS))
			} else {
				t.cts = r.CommitTS
			}
		}
		for _, kv := range r.Reads {
			if prev, ok := t.reads[kv.Key]; ok && prev != kv.Version {
				anomalies = append(anomalies, fmt.Sprintf(
					"txn %#x: conflicting observed versions for key %d (%d vs %d)",
					r.ID, kv.Key, prev, kv.Version))
				continue
			}
			t.reads[kv.Key] = kv.Version
		}
		for _, kv := range r.Writes {
			if prev, ok := t.writes[kv.Key]; ok && prev != kv.Version {
				anomalies = append(anomalies, fmt.Sprintf(
					"txn %#x: conflicting installed versions for key %d (%d vs %d)",
					r.ID, kv.Key, prev, kv.Version))
				continue
			}
			t.writes[kv.Key] = kv.Version
		}
	}
	for id := range merged {
		if aborted[id] {
			anomalies = append(anomalies, fmt.Sprintf(
				"txn %#x: recorded both committed and aborted", id))
		}
	}
	sort.Strings(anomalies)
	return merged, anomalies
}

// CommittedIDs returns the set of transaction ids with at least one
// committed record.
func (h *History) CommittedIDs() map[uint64]bool {
	out := map[uint64]bool{}
	if h == nil {
		return out
	}
	for i := range h.recs {
		if h.recs[i].Status == wire.StatusOK {
			out[h.recs[i].ID] = true
		}
	}
	return out
}

// LastVersions returns, per key, the highest version installed by any
// committed transaction. Keys never written by a committed transaction are
// absent (their stores must still hold the populate version, <= 1).
func (h *History) LastVersions() map[uint64]uint64 {
	out := map[uint64]uint64{}
	if h == nil {
		return out
	}
	for i := range h.recs {
		r := &h.recs[i]
		if r.Status != wire.StatusOK {
			continue
		}
		for _, kv := range r.Writes {
			if kv.Version > out[kv.Key] {
				out[kv.Key] = kv.Version
			}
		}
	}
	return out
}

// ShipConsistent audits shipped transactions: for every ship shadow whose
// transaction committed, every write the committed record carries must
// appear identically in the target's shadow (the target computed the full
// write set), and when the coordinator itself finished the transaction the
// two write sets must match exactly. Recovered-only commits may cover a
// subset of shards, so only the subset direction is required there.
func (h *History) ShipConsistent() error {
	if h == nil {
		return nil
	}
	merged, _ := h.mergeCommitted()
	for i := range h.ships {
		s := &h.ships[i]
		t, ok := merged[s.Txn]
		if !ok {
			continue // never committed; no constraint
		}
		shadow := map[uint64]uint64{}
		for _, kv := range s.Writes {
			shadow[kv.Key] = kv.Version
		}
		for k, v := range t.writes {
			if sv, ok := shadow[k]; !ok || sv != v {
				return fmt.Errorf(
					"check: shipped txn %#x (origin %d, target %d): committed write key %d v%d not in target shadow (target has v%d, present=%v)",
					s.Txn, s.Origin, s.Target, k, v, sv, ok)
			}
		}
		if !t.recoveredOnly && len(shadow) != len(t.writes) {
			return fmt.Errorf(
				"check: shipped txn %#x (origin %d, target %d): target computed %d writes but origin committed %d",
				s.Txn, s.Origin, s.Target, len(shadow), len(t.writes))
		}
	}
	return nil
}
