package core

import (
	"fmt"

	"xenic/internal/chassis"
	"xenic/internal/check"
	"xenic/internal/hostrt"
	"xenic/internal/wire"
)

// This file wires the transaction-history recorder (internal/check,
// DESIGN.md §9) into the Xenic cluster. Every finished attempt is recorded
// once, at its decision point: the commit point and the abort decision
// (record), host-local completion (recordLocal), the recovery decision and
// the ship target's write-set computation (History.Record and RecordShip at
// their sites). Recording schedules no events, charges no simulated time,
// and sends no messages, so a run with a History attached is byte-identical
// to one without.

// record files coordinated transaction t's outcome st: its read set, and
// for a commit the write set with the versions it installs, whether it was
// shipped, read at a snapshot, or took a commit timestamp. Called once per
// ctxn, at its commit point or its exit.
func (n *Node) record(t *ctxn, st wire.Status, writes []wire.KV) {
	r := check.TxnRecord{ID: t.id, Node: n.id, Status: st, Start: t.openedAt, End: n.cl.Engine().Now()}
	if st == wire.StatusOK {
		r.Shipped, r.ShipTo = t.phase == phShipped, t.shipTo
		r.Snapshot, r.SnapshotTS, r.CommitTS = t.snapshot, t.snapTS, t.cts
	}
	n.cl.History().Record(r, t.Reads, writes)
}

// recordLocal files an attempt decided entirely at the host, which never
// creates a ctxn (the read-only fast path of §4.2.4 and its snapshot
// variant): r carries the outcome and any snapshot flags, and recordLocal
// adds who, when and the read set.
func (n *Node) recordLocal(t *hostrt.Thread, tx *chassis.Txn, r check.TxnRecord, reads []wire.KV) {
	r.ID, r.Node, r.Start, r.End = tx.ID, n.id, tx.Start, t.Now()
	n.cl.History().Record(r, reads, nil)
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
