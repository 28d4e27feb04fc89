package baseline

import (
	"fmt"
	"slices"

	"xenic/internal/check"
	"xenic/internal/hostrt"
	"xenic/internal/wire"
)

// This file wires the transaction-history recorder (internal/check,
// DESIGN.md §9) into the baseline clusters. As in core, recording is pure
// Go-side bookkeeping at the protocol decision points and never perturbs
// the simulation.

// recordCommit appends tx's committed outcome at its commit point (log
// completion, or validation for read-only transactions).
func (n *Node) recordCommit(t *hostrt.Thread, tx *btxn) {
	h := n.cl.History()
	if h == nil {
		return
	}
	h.Add(check.TxnRecord{
		ID:     tx.ID,
		Node:   n.id,
		Status: wire.StatusOK,
		Start:  tx.Start,
		End:    t.Now(),
		Reads:  tx.ReadVers(),
		Writes: check.Writes(tx.Writes),
	})
}

// recordAbort appends the aborted outcome of one attempt (retries record
// again under their fresh id).
func (n *Node) recordAbort(t *hostrt.Thread, tx *btxn, st wire.Status) {
	h := n.cl.History()
	if h == nil {
		return
	}
	h.Add(check.TxnRecord{
		ID:     tx.ID,
		Node:   n.id,
		Status: st,
		Start:  tx.Start,
		End:    t.Now(),
		Reads:  tx.ReadVers(),
	})
}

// AuditHistory cross-checks the drained cluster's final state against the
// recorded history: no orphan locks and every replica's versions matching
// the last committed writer. Call only after a successful Drain; returns
// nil when no history is attached.
func (cl *Cluster) AuditHistory() error {
	h := cl.History()
	if h == nil {
		return nil
	}
	last := h.LastVersions()
	for _, n := range cl.nodes {
		if len(n.locks) > 0 {
			key, owner := lowestLock(n.locks)
			return fmt.Errorf("audit: node %d: %d orphan locks after drain (key %d held by txn %#x)",
				n.id, len(n.locks), key, owner)
		}
		if err := check.AuditReplica(fmt.Sprintf("node %d primary", n.id), last, n.primary.hash.ForEach, n.primary.btree); err != nil {
			return err
		}
		var shards []int
		for s := range n.backups {
			shards = append(shards, s)
		}
		slices.Sort(shards)
		for _, s := range shards {
			if err := check.AuditReplica(fmt.Sprintf("node %d backup of shard %d", n.id, s), last, n.backups[s].hash.ForEach, n.backups[s].btree); err != nil {
				return err
			}
		}
	}
	// Reverse direction: every committed write present at its primary.
	keys := make([]uint64, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, key := range keys {
		s := cl.Placement().ShardOf(key)
		_, ver, ok := cl.nodes[s].primary.read(key)
		if !ok || ver != last[key] {
			return fmt.Errorf("audit: shard %d: committed key %d should be at version %d, store has %d (present=%v)",
				s, key, last[key], ver, ok)
		}
	}
	return nil
}

// lowestLock picks the deterministic representative of a lock map.
func lowestLock(locks map[uint64]uint64) (key, owner uint64) {
	first := true
	for k, o := range locks {
		if first || k < key {
			key, owner = k, o
			first = false
		}
	}
	return key, owner
}
