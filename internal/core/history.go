package core

import (
	"fmt"

	"xenic/internal/chassis"
	"xenic/internal/check"
	"xenic/internal/sim"
	"xenic/internal/wire"
)

// This file wires the transaction-history recorder (internal/check,
// DESIGN.md §9) into the Xenic cluster. Recording is pure Go-side
// bookkeeping at the protocol decision points — the commit point, the abort
// decision, the recovery decision, and the ship target's write-set
// computation. It schedules no events, charges no simulated time, and sends
// no messages, so a run with a History attached is byte-identical to one
// without.

// recordCommit appends t's committed outcome: the observed read set and the
// write set with the versions the commit installs. Called exactly once per
// committed coordinated transaction, at its commit point.
func (n *Node) recordCommit(t *ctxn, writes []wire.KV) {
	h := n.cl.History()
	if h == nil {
		return
	}
	h.Add(check.TxnRecord{
		ID:         t.id,
		Node:       n.id,
		Status:     wire.StatusOK,
		Start:      t.openedAt,
		End:        n.cl.Engine().Now(),
		Reads:      t.ReadVers(),
		Writes:     check.Writes(writes),
		Shipped:    t.phase == phShipped,
		ShipTo:     t.shipTo,
		Snapshot:   t.snapshot,
		SnapshotTS: t.snapTS,
		CommitTS:   t.cts,
	})
}

// recordSnapLocal appends a snapshot read-only transaction decided entirely
// at the host (snapLocal). Absent-at-S keys record version 0.
func (n *Node) recordSnapLocal(tx *chassis.Txn, S uint64, reads []wire.KV, now sim.Time) {
	h := n.cl.History()
	if h == nil {
		return
	}
	kvs := make([]wire.KeyVer, 0, len(reads))
	for _, kv := range reads {
		kvs = append(kvs, wire.KeyVer{Key: kv.Key, Version: kv.Version})
	}
	h.Add(check.TxnRecord{
		ID:         tx.ID,
		Node:       n.id,
		Status:     wire.StatusOK,
		Start:      tx.Start,
		End:        now,
		Reads:      check.KeyVers(kvs),
		Snapshot:   true,
		SnapshotTS: S,
	})
}

// recordAbort appends t's aborted outcome, status t.Failed (reads kept for
// diagnostics).
func (n *Node) recordAbort(t *ctxn) {
	h := n.cl.History()
	if h == nil {
		return
	}
	h.Add(check.TxnRecord{
		ID:     t.id,
		Node:   n.id,
		Status: t.Failed,
		Start:  t.openedAt,
		End:    n.cl.Engine().Now(),
		Reads:  t.ReadVers(),
	})
}

// recordHostLocal appends an outcome decided entirely at the host (the
// read-only fast path of §4.2.4, which never creates a ctxn).
func (n *Node) recordHostLocal(tx *chassis.Txn, st wire.Status, reads []wire.KeyVer, now sim.Time) {
	h := n.cl.History()
	if h == nil {
		return
	}
	h.Add(check.TxnRecord{
		ID:     tx.ID,
		Node:   n.id,
		Status: st,
		Start:  tx.Start,
		End:    now,
		Reads:  check.KeyVers(reads),
	})
}

// recordRecovered appends the synthetic record emitted when recovery commits
// a dead coordinator's transaction from its replicated log records; the
// checker merges it with any other record of the same id.
func (n *Node) recordRecovered(txn uint64, writes []wire.KV, cts uint64) {
	h := n.cl.History()
	if h == nil {
		return
	}
	h.Add(check.TxnRecord{
		ID:        txn,
		Node:      n.id,
		Status:    wire.StatusOK,
		End:       n.cl.Engine().Now(),
		Recovered: true,
		Writes:    check.Writes(writes),
		CommitTS:  cts,
	})
}

// recordShip appends the ship target's shadow of a shipped execution.
func (n *Node) recordShip(txn uint64, coord int, writes []wire.KV) {
	h := n.cl.History()
	if h == nil {
		return
	}
	h.AddShip(check.ShipRecord{
		Txn:    txn,
		Origin: coord,
		Target: n.id,
		Writes: check.Writes(writes),
	})
}

// drainedChecks is Xenic's part of the drained-state checks (chassis
// Protocol.Check, DESIGN.md §9). Without a history it validates every live
// node's NIC indexes and that every reclaiming host log has shrunk back to
// at most one segment with nothing undecided. With one, it checks that
// shipped results agree between origin and ship target, and every live
// node's log records against the committed set.
func (cl *Cluster) drainedChecks(h *check.History) error {
	if err := h.ShipConsistent(); err != nil {
		return err
	}
	committed := h.CommittedIDs()
	for _, n := range cl.nodes {
		if !n.alive {
			continue
		}
		if h == nil {
			for s, p := range n.prims {
				if err := p.index.CheckInvariants(); err != nil {
					return fmt.Errorf("node %d index of shard %d: %w", n.id, s, err)
				}
			}
			if err := n.log.checkDrained(); err != nil {
				return fmt.Errorf("node %d log: %w", n.id, err)
			}
			continue
		}
		for r := range n.log.records() {
			if r.txn == 0 {
				// State-transfer snapshot chunks ride the backup-log path
				// under sentinel txn 0 (handleStateChunk); they carry already
				// committed rows, not a transaction of their own.
				continue
			}
			if r.committed && r.dropped {
				return fmt.Errorf("audit: node %d log seq %d: record for txn %#x both committed and dropped",
					n.id, r.seq, r.txn)
			}
			if r.committed && !committed[r.txn] {
				return fmt.Errorf("audit: node %d log seq %d: commit-marked record for txn %#x absent from committed history",
					n.id, r.seq, r.txn)
			}
			if r.dropped && committed[r.txn] {
				return fmt.Errorf("audit: node %d log seq %d: dropped record for committed txn %#x",
					n.id, r.seq, r.txn)
			}
		}
	}
	return nil
}
