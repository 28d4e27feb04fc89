package baseline

import (
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
