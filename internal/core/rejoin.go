package core

import (
	"slices"

	"xenic/internal/chassis"
	"xenic/internal/membership"
	"xenic/internal/model"
	"xenic/internal/nicrt"
	"xenic/internal/wire"
)

// This file implements the healing half of reconfiguration (§4.2.1): a
// crashed node restarts with wiped NIC and host state, re-registers with the
// cluster manager (fault.Plan restart events), and re-replicates each of its
// shards from the current primary while that primary keeps serving. The
// transfer has no cutover gap: opening a shard's transfer session snapshots
// the primary's key set AND starts forwarding every commit the primary
// applies from then on, so the union of snapshot chunks and forwards covers
// everything; both apply paths are idempotent (version-guarded Apply). Once
// every shard is caught up the node asks the manager for admission and
// re-enters the replica chains as a live backup, restoring the replication
// factor. Epoch fencing (nicHandler) keeps the old incarnation's delayed
// frames from acting on the new one and vice versa.

// chunkKeys bounds the keys served per snapshot chunk.
const chunkKeys = 64

// rejoinState tracks a restarted node's catch-up.
type rejoinState struct {
	// viewSeen flips when the join view arrives; until then the node is
	// booting and drops all traffic (it knows no epoch to speak in).
	viewSeen bool
	// admitted flips once every shard transfer finished and the manager was
	// asked to admit this node into the replica chains.
	admitted bool
	shards   map[int]*pullState
}

// pullState is one shard's transfer progress at the rejoiner.
type pullState struct {
	primary int
	index   uint32
	done    bool
}

// xferSession is one shard's transfer state at the serving primary: the
// snapshot key set served in chunks, the rejoiner receiving them, and the
// forwarding fence (0 = forward every commit; otherwise forward only
// commits whose origin predates the fence epoch).
type xferSession struct {
	node  int
	fence int
	keys  []uint64
}

// replicaOfOrig reports whether this node holds shard s in the original
// (configured) replica chain — the shards a restarted node re-replicates.
func (n *Node) replicaOfOrig(s int) bool {
	if s == n.id {
		return true
	}
	for _, b := range n.cl.BackupsOf(s) {
		if b == n.id {
			return true
		}
	}
	return false
}

// rejoinOnView advances the rejoin state machine on each membership view.
func (n *Node) rejoinOnView(c *nicrt.Core, v membership.View) {
	rj := n.rejoin
	if !rj.viewSeen {
		// The join view: the node is a member again (messages flow, the
		// lease renews) but serves nothing. Create empty replicas for its
		// original chain positions and start pulling each from the current
		// primary. Load generation resumes now — the node coordinates
		// transactions against the survivors while it catches up.
		rj.viewSeen = true
		for s := 0; s < n.cl.cfg.Nodes; s++ {
			if !n.replicaOfOrig(s) {
				continue
			}
			n.backups[s] = newShardData(n.cl.spec, n.cl.Placement())
			ps := &pullState{primary: v.PrimaryOf[s]}
			rj.shards[s] = ps
			if !v.Alive[ps.primary] || ps.primary == n.id {
				ps.done = true // shard lost every replica; nothing to copy
				continue
			}
			n.sendPull(c, s, ps)
		}
		n.host.WakeAll()
		n.maybeAdmit()
		return
	}
	// A later view while still catching up: a second failure may have moved
	// a shard's primary mid-transfer; restart that shard's pull against the
	// new primary (a fresh session re-snapshots, so nothing is missed).
	for s := 0; s < n.cl.cfg.Nodes; s++ {
		ps := rj.shards[s]
		if ps == nil {
			continue
		}
		np := v.PrimaryOf[s]
		if np == ps.primary && v.Alive[np] {
			continue
		}
		ps.primary, ps.index = np, 0
		if !v.Alive[np] || np == n.id {
			ps.done = true
			continue
		}
		ps.done = false
		n.sendPull(c, s, ps)
	}
	n.maybeAdmit()
	if rj.admitted && !v.Joining[n.id] {
		// The admission view lists this node as a live backup everywhere it
		// belongs: the rejoin is complete.
		n.rejoin = nil
	}
}

// sendPull requests the next chunk of a shard transfer and arms the retry:
// if the transfer has not advanced past this index by model.PullRetry, the
// pull (or its chunk) was lost to a fence race and is re-sent.
func (n *Node) sendPull(c *nicrt.Core, shard int, ps *pullState) {
	idx := ps.index
	c.Send(ps.primary, &wire.StatePull{
		Header: wire.Header{TxnID: 0, Src: uint8(n.id)},
		Shard:  uint8(shard), Index: idx,
	})
	n.cl.Engine().After(model.PullRetry, func() {
		if !n.alive || n.rejoin == nil || n.rejoin.shards[shard] != ps ||
			ps.done || ps.index != idx {
			return
		}
		n.nic.Inject(n.nic.LiveCore(), func(c *nicrt.Core) {
			if n.alive && n.rejoin != nil && n.rejoin.shards[shard] == ps &&
				!ps.done && ps.index == idx {
				n.sendPull(c, shard, ps)
			}
		})
	})
}

// maybeAdmit asks the manager for admission once every shard transfer is
// done. The manager's next view re-enters this node into the replica
// chains atomically.
func (n *Node) maybeAdmit() {
	rj := n.rejoin
	if rj == nil || rj.admitted || !rj.viewSeen {
		return
	}
	for _, ps := range rj.shards {
		if !ps.done {
			return
		}
	}
	rj.admitted = true
	n.cl.Manager().Admit(n.id)
}

// snapshotKeys collects a shard replica's full key set in sorted order.
func snapshotKeys(d *ShardData) []uint64 {
	var keys []uint64
	chassis.Replica{Hash: d.Hash, Tree: d.BTree}.Each(func(k, _ uint64, _ []byte) error {
		keys = append(keys, k)
		return nil
	})
	slices.Sort(keys)
	return keys
}

// handleStatePull serves one snapshot chunk of a shard this node is primary
// for. Index 0 (re)opens the transfer session: the key set is snapshotted
// and commit forwarding starts, so everything the snapshot misses is
// forwarded and everything forwarded twice is deduplicated by version.
func (n *Node) handleStatePull(c *nicrt.Core, src int, m *wire.StatePull) {
	shard := int(m.Shard)
	p := n.prim(shard)
	if p == nil {
		return // the view moved on; the rejoiner re-pulls from the new primary
	}
	if !p.ready {
		// Promotion scan still deciding: serve the pull once the shard opens.
		n.cl.Engine().After(model.PullServeDelay, func() {
			n.nic.Inject(n.nic.LiveCore(), func(c *nicrt.Core) {
				if n.alive && n.cl.view.Alive[src] {
					n.handleStatePull(c, src, m)
				}
			})
		})
		return
	}
	sess := n.fwd[shard]
	if m.Index == 0 {
		sess = &xferSession{node: src, keys: snapshotKeys(p.data)}
		if n.fwd == nil {
			n.fwd = map[int]*xferSession{}
		}
		n.fwd[shard] = sess
	}
	if sess == nil || sess.node != src {
		return // stale pull from a superseded session
	}
	start := int(m.Index) * chunkKeys
	if start > len(sess.keys) {
		start = len(sess.keys)
	}
	end := start + chunkKeys
	if end > len(sess.keys) {
		end = len(sess.keys)
	}
	resp := &wire.StateChunk{
		Header: wire.Header{TxnID: 0, Src: uint8(n.id)},
		Shard:  m.Shard, Index: m.Index, Done: end == len(sess.keys),
	}
	bytes := 0
	for _, k := range sess.keys[start:end] {
		v, ver, ok := p.data.Read(k)
		if !ok {
			continue // deleted since the snapshot; a forward covered it
		}
		resp.KVs = append(resp.KVs, wire.KV{Key: k, Version: ver, Value: v})
		if n.cl.mv.enabled {
			// Ship the chain head timestamp so the rejoined replica's chains
			// restart from a coherent base (history below it is not
			// transferred; reads below the base fall back to abort+retry).
			resp.TSs = append(resp.TSs, p.data.HeadTS(k))
		}
		bytes += 16 + len(v)
	}
	if bytes == 0 {
		c.Send(src, resp)
		return
	}
	// One gathered DMA read pulls the chunk's rows from host memory before
	// the NIC ships them.
	c.DMARead(bytes, func() { c.Send(src, resp) })
}

// handleStateChunk applies one snapshot chunk at the rejoiner and pulls the
// next (or finishes the shard). Chunks ride the normal backup-log path so
// host workers apply them with the usual charges.
func (n *Node) handleStateChunk(c *nicrt.Core, src int, m *wire.StateChunk) {
	rj := n.rejoin
	if rj == nil {
		return
	}
	shard := int(m.Shard)
	ps := rj.shards[shard]
	if ps == nil || ps.done || src != ps.primary || m.Index != ps.index {
		return // stale chunk from a superseded pull
	}
	advance := func() {
		if m.Done {
			ps.done = true
			n.maybeAdmit()
			return
		}
		ps.index++
		n.sendPull(c, shard, ps)
	}
	if len(m.KVs) == 0 {
		advance()
		return
	}
	n.appendLogTS(c, recBackup, 0, shard, m.KVs, 0, m.TSs, func(uint64) {
		n.log.markCommitted(0, shard, 0)
		n.wakeWorkers()
		advance()
	})
}

// handleStateForward applies a commit the primary relayed during catch-up.
// Forwards may overlap direct Log replication after admission; the
// version-guarded apply makes the duplicate harmless.
func (n *Node) handleStateForward(c *nicrt.Core, m *wire.StateForward) {
	shard := int(m.Shard)
	if _, ok := n.backups[shard]; !ok {
		return // restarted again since the session opened; a fresh pull recopies
	}
	n.appendLogTS(c, recBackup, m.TxnID, shard, m.Writes, m.CTS, nil, func(uint64) {
		n.log.markCommitted(m.TxnID, shard, m.CTS)
		n.wakeWorkers()
	})
}

// updateForwards maintains this primary's transfer sessions on a view
// change: drop sessions whose rejoiner died, and once the rejoiner is
// listed as a live backup set the forwarding fence to that epoch —
// coordinators on the new view already replicate to it directly, so only
// pre-admission commits still need forwarding, and after model.FwdLinger
// none remain and the session retires.
func (n *Node) updateForwards(v membership.View) {
	if len(n.fwd) == 0 {
		return
	}
	shards := make([]int, 0, len(n.fwd))
	for s := range n.fwd {
		shards = append(shards, s)
	}
	slices.Sort(shards)
	for _, s := range shards {
		sess := n.fwd[s]
		if !v.Alive[sess.node] {
			delete(n.fwd, s)
			continue
		}
		if sess.fence != 0 {
			continue
		}
		listed := false
		for _, b := range v.BackupsOf[s] {
			if b == sess.node {
				listed = true
			}
		}
		if !listed {
			continue
		}
		sess.fence = v.Epoch
		s, sess := s, sess
		n.cl.Engine().After(model.FwdLinger, func() {
			if n.fwd[s] == sess {
				delete(n.fwd, s)
			}
		})
	}
}
