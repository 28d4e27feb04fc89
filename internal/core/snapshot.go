package core

import (
	"slices"

	"xenic/internal/nicrt"
	"xenic/internal/wire"
)

// This file implements the MVCC read-only fast path (DESIGN.md §12): a
// read-only transaction picks a snapshot timestamp S = the host-applied
// watermark and resolves every key at S — NIC version-chain cache hits
// inline, misses by a DMA row-header walk of the host chain — then commits
// without locks, validation, or any log traffic. Aborts happen only when a
// chain was GC'd past S or a promotion fenced the shard
// (StatusAbortSnapshot); contention cannot induce them.

// chainWalkBytes is the DMA payload for walking a host row's version
// chain on a NIC cache miss: the row header plus the chain entry headers
// and one value.
const chainWalkBytes = 64

// snapStart fans out SnapshotRead operations for a read-only transaction,
// one per shard, all at the same snapshot timestamp. Caller has verified
// snapReady().
func (n *Node) snapStart(c *nicrt.Core, t *ctxn) {
	t.snapshot = true
	t.snapTS = n.cl.snapTS()
	n.cl.mv.snapOpen(t.snapTS)
	byShard := map[int][]uint64{}
	var shards []int
	for _, k := range t.desc.ReadKeys {
		s := n.place().ShardOf(k)
		if _, ok := byShard[s]; !ok {
			shards = append(shards, s)
		}
		byShard[s] = append(byShard[s], k)
	}
	slices.Sort(shards)
	t.Pending = len(shards)
	if t.Pending == 0 {
		n.snapFinish(c, t)
		return
	}
	for _, s := range shards {
		dst := n.primaryNode(s)
		if dst == n.id {
			n.serveSnapshotRead(c, s, t.snapTS, byShard[s], func(st wire.Status, items []wire.KV) {
				n.snapPart(c, t, st, items)
			})
			continue
		}
		c.Send(dst, &wire.SnapshotRead{
			Header: wire.Header{TxnID: t.id, Src: uint8(n.id)},
			Shard:  uint8(s), TS: t.snapTS, Keys: byShard[s],
		})
	}
}

// coordSnapResp routes a remote SnapshotResp into the transaction.
func (n *Node) coordSnapResp(c *nicrt.Core, m *wire.SnapshotResp) {
	t, ok := n.ctxns[m.TxnID]
	if !ok || !t.snapshot {
		return // straggler: snapshot reads hold no remote state to release
	}
	n.snapPart(c, t, m.Status, m.Items)
}

// snapPart accumulates one shard's snapshot read.
func (n *Node) snapPart(c *nicrt.Core, t *ctxn, st wire.Status, items []wire.KV) {
	if t.dead {
		return
	}
	if !t.Landed(st, 0, nil, items) {
		return
	}
	if t.Failed != wire.StatusOK {
		n.abortTxn(c, t)
		return
	}
	n.snapFinish(c, t)
}

// snapFinish commits a snapshot read: no validation, no locks to release,
// no log traffic — the commit point is the completion of the last read.
func (n *Node) snapFinish(c *nicrt.Core, t *ctxn) {
	n.snapClose(t)
	n.stats.SnapCommitted++
	n.recordCommit(t, nil)
	n.finishTxn(c, t, wire.StatusOK)
	n.dropCtxn(t, wire.StatusOK)
}

// snapClose releases the transaction's GC protection refcount exactly once
// (abort paths route here too).
func (n *Node) snapClose(t *ctxn) {
	if t.snapshot && !t.snapClosed {
		t.snapClosed = true
		n.cl.mv.snapClose(t.snapTS)
	}
}

// serveSnapshotRead resolves keys of one of this node's primary shards at
// snapshot timestamp S: lock state is never consulted. Cached multi-version
// entries complete inline; a cache miss DMA-walks the host row's chain. A
// chain GC'd past S, or a shard promoted after S was picked, reports
// StatusAbortSnapshot so the coordinator retries at a fresher timestamp.
func (n *Node) serveSnapshotRead(c *nicrt.Core, shard int, S uint64, keys []uint64,
	done func(st wire.Status, items []wire.KV)) {

	p := n.prim(shard)
	if p == nil || !p.ready || p.mvFloor > S {
		done(wire.StatusAbortSnapshot, nil)
		return
	}
	if mutSnapshotTSAfterRead {
		// Mutant: re-pick the timestamp as the fan-out proceeds instead of
		// honoring the coordinator's choice — commits landing between two
		// shards' reads fracture the snapshot.
		S = n.cl.mv.stable
	}
	if len(keys) == 0 {
		done(wire.StatusOK, nil)
		return
	}
	items := make([]wire.KV, len(keys))
	pending := len(keys)
	failed := wire.StatusOK
	finish := func() {
		pending--
		if pending > 0 {
			return
		}
		if failed != wire.StatusOK {
			done(failed, nil)
			return
		}
		done(wire.StatusOK, items)
	}
	n.chargeIndexOps(c, len(keys))
	for i, k := range keys {
		i, k := i, k
		if !n.place().IsBTree(k) {
			if v, ver, ok := p.index.LookupAt(k, S); ok {
				n.stats.SnapInline++
				items[i] = wire.KV{Key: k, Version: ver, Value: v}
				finish()
				continue
			}
		}
		// NIC chain miss (or a host-resolved B+tree key): walk the host
		// row's version chain via DMA.
		c.DMARead(chainWalkBytes, func() {
			v, ver, exists, ok := p.data.ReadAt(k, S)
			switch {
			case !ok:
				if failed == wire.StatusOK {
					failed = wire.StatusAbortSnapshot
				}
			case exists:
				n.stats.SnapWalks++
				items[i] = wire.KV{Key: k, Version: ver, Value: v}
			default:
				n.stats.SnapWalks++
				items[i] = wire.KV{Key: k} // Version 0: absent at S
			}
			finish()
		})
	}
}

// handleSnapshotRead serves a remote snapshot read.
func (n *Node) handleSnapshotRead(c *nicrt.Core, src int, m *wire.SnapshotRead) {
	n.serveSnapshotRead(c, int(m.Shard), m.TS, m.Keys, func(st wire.Status, items []wire.KV) {
		c.Send(src, &wire.SnapshotResp{
			Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
			Shard:  m.Shard, Status: st, Items: items,
		})
	})
}
