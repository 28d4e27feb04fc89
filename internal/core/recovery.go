package core

import (
	"fmt"
	"slices"

	"xenic/internal/chassis"
	"xenic/internal/membership"
	"xenic/internal/nicrt"
	"xenic/internal/wire"
)

// This file implements Xenic's reconfiguration and recovery (§4.2.1),
// following FaRM's design: lock state lives only in SmartNIC memory and is
// rebuilt on recovery; a failed primary's first surviving backup is
// promoted; the promoted node scans its log for transactions not yet known
// committed and, for each, asks the shard's other surviving replicas —
// a transaction whose record every surviving replica holds reached its
// commit point and is committed, any other is aborted. The shard serves new
// transactions only after every recovering transaction is decided.
//
// Surviving coordinators additionally sweep locks held by transactions
// whose coordinator died, deciding each by the same rule (an
// acked-committed transaction has records at every backup, so its writes
// are recovered even if the coordinator crashed before the COMMIT phase).

// recovering tracks one undecided transaction during a log scan or lock
// sweep.
type recovering struct {
	txn      uint64
	shard    int
	expected int // outstanding RecoveryResp count
	allHave  bool
	// round numbers the vote; a view change mid-recovery re-votes against
	// the new replica set with round+1 and stale responses are ignored.
	round  uint8
	writes []wire.KV // from a replica that holds the record
	// lockedKeys are this primary's locks held by the transaction (lock
	// sweep); nil during promotion scans.
	lockedKeys []uint64
	// promotion marks records recovered during shard adoption.
	promotion bool
}

// onViewChange is the cluster-manager callback: update routing, then let
// every surviving node react (abort in-flight work, adopt shards, sweep
// orphaned locks).
func (cl *Cluster) onViewChange(v membership.View) {
	cl.view = v
	for _, n := range cl.nodes {
		if !n.alive {
			continue
		}
		n := n
		// React on a NIC core so the work is charged and can send messages
		// (a live one: fault plans may have stopped individual cores).
		n.nic.Inject(n.nic.LiveCore(), func(c *nicrt.Core) { n.handleViewChange(c, v) })
	}
}

// handleViewChange runs on a NIC core of every surviving node.
func (n *Node) handleViewChange(c *nicrt.Core, v membership.View) {
	if !v.Alive[n.id] {
		// The view evicted this node (its lease lapsed during a partition)
		// even though it is locally up: self-fence. The survivors have
		// already promoted its shard and swept its locks; continuing to
		// serve would split the brain.
		n.halt()
		return
	}
	if n.faulty() {
		n.nic.SetEpoch(v.Epoch)
		n.viewAlive = append(n.viewAlive[:0], v.Alive...)
		n.joined = append(n.joined[:0], v.JoinedEpoch...)
	}
	if n.rejoin != nil {
		n.rejoinOnView(c, v)
	}
	n.abortInFlight(c, v)
	n.adoptShards(c, v)
	n.convertPendingDecides(c, v)
	n.sweepOrphanLocks(c, v)
	n.refreshRecoveries(c, v)
	n.updateForwards(v)
}

// convertPendingDecides re-decides promoted-shard records whose coordinator
// has died since the promotion left them pending: the decision will never
// arrive, so the recovery vote takes over (their keys stay locked until it
// resolves).
func (n *Node) convertPendingDecides(c *nicrt.Core, v membership.View) {
	if len(n.pendingDecide) == 0 {
		return
	}
	pending := make([]txnShard, 0, len(n.pendingDecide))
	for ts := range n.pendingDecide {
		pending = append(pending, ts)
	}
	slices.SortFunc(pending, func(a, b txnShard) int {
		if a.txn != b.txn {
			if a.txn < b.txn {
				return -1
			}
			return 1
		}
		return a.shard - b.shard
	})
	for _, ts := range pending {
		if v.Alive[chassis.TxnNode(ts.txn)] {
			continue
		}
		keys := n.pendingDecide[ts]
		delete(n.pendingDecide, ts)
		n.startRecovery(c, &recovering{
			txn: ts.txn, shard: ts.shard, lockedKeys: keys,
		}, v)
	}
}

// refreshRecoveries re-votes every in-flight recovery against the new
// view's replica set: a queried backup may have died (its answer will never
// come) or the survivor set may have shrunk, changing what "present at
// every surviving replica" means. Responses from the superseded round are
// ignored.
func (n *Node) refreshRecoveries(c *nicrt.Core, v membership.View) {
	if len(n.recov) == 0 {
		return
	}
	keys := make([]txnShard, 0, len(n.recov))
	for ts := range n.recov {
		keys = append(keys, ts)
	}
	slices.SortFunc(keys, func(a, b txnShard) int {
		if a.txn != b.txn {
			if a.txn < b.txn {
				return -1
			}
			return 1
		}
		return a.shard - b.shard
	})
	for _, ts := range keys {
		r := n.recov[ts]
		r.round++
		r.allHave = true
		r.expected = 0
		n.stats.RecoveryRefreshes++
		for _, b := range n.cl.viewBackups(r.shard) {
			if b == n.id {
				continue
			}
			r.expected++
			c.Send(b, &wire.RecoveryQuery{
				Header: wire.Header{TxnID: r.txn, Src: uint8(n.id)},
				Shard:  uint8(r.shard), Round: r.round,
			})
		}
		if r.expected == 0 {
			n.decideRecovery(c, r)
		}
	}
}

// abortInFlight aborts every in-flight coordinated transaction: the view
// changed under them (a replica or primary they depend on may be gone), so
// they release their locks and retry in the new configuration. Liveness
// decisions use the view, not the global alive flags: a partition-evicted
// node self-fences asynchronously, so its flag may still read alive here.
func (n *Node) abortInFlight(c *nicrt.Core, v membership.View) {
	var ids []uint64
	for id := range n.ctxns {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		t := n.ctxns[id]
		t.dead = true
		if t.phase == phCommit {
			// Already reported committed: in-flight COMMITs to surviving
			// primaries complete on their own (they need no coordinator
			// state); commits destined for the dead node are recovered
			// from the backups' logs. Just drop the state.
			n.dropCtxn(t, wire.StatusOK)
			continue
		}
		if t.Failed == wire.StatusOK {
			t.Failed = wire.StatusAbortView
		}
		if t.phase == phShipped && v.Alive[t.shipTo] {
			// Release any lock-all state at the remote primary.
			c.Send(t.shipTo, &wire.Abort{Header: wire.Header{TxnID: t.id, Src: uint8(n.id)}})
		}
		for i := range t.Locked {
			ls := &t.Locked[i]
			dst := n.primaryNode(ls.Shard)
			if dst == n.id {
				if p := n.prim(ls.Shard); p != nil {
					for _, k := range ls.Keys {
						p.index.UnlockIf(k, t.id)
					}
				}
				continue
			}
			if v.Alive[dst] {
				c.Send(dst, &wire.Abort{
					Header:     wire.Header{TxnID: t.id, Src: uint8(n.id)},
					LockedKeys: ls.Keys,
				})
				ls.Keys = nil // handed to the ABORT
			}
		}
		dropWrites := t.Writes
		if t.phase == phShipped && t.shipped != nil {
			// The remote execution already fanned out its records.
			dropWrites = t.shipped.Writes
		}
		if t.phase == phShipped && t.shipped == nil && !v.Alive[t.shipTo] {
			// The remote executor died mid-transaction: it may have fanned
			// out log records before crashing, and the ShipResult that would
			// normally name them (and trigger the straggler cleanup in
			// coordShipResult) will never arrive. The descriptor still knows
			// the write set — shipped transactions touch only this node and
			// shipTo — so drop from it. The transaction cannot have reached
			// its commit point: only this coordinator commits it, and it is
			// aborting instead.
			for i := 0; i < t.desc.NumWriteKeys(); i++ {
				dropWrites = append(dropWrites, wire.KV{Key: t.desc.WriteKey(i)})
			}
		}
		if phases[t.phase].logged {
			// Replicas may already hold this transaction's undecided
			// records; tell every surviving replica — including a freshly
			// promoted primary that held them as a backup — to drop (the
			// transaction never reached its commit point).
			n.announceAbort(c, t.id, dropWrites)
		}
		n.endTxn(c, t, t.Failed)
	}
	// Shipped transactions from dead coordinators may hold lock-all state
	// here; their owners are swept below via the orphan-lock path, so also
	// release remoteLocks owned by dead nodes.
	var orphaned []uint64
	for txn := range n.remoteLocks {
		if !v.Alive[chassis.TxnNode(txn)] {
			orphaned = append(orphaned, txn)
		}
	}
	slices.Sort(orphaned)
	for _, txn := range orphaned {
		delete(n.remoteLocks, txn)
		// The individual key locks are still in the index and will be
		// swept by sweepOrphanLocks.
	}
}

// adoptShards promotes this node to primary for shards the view assigns it
// (§4.2.1): the backup replica becomes the serving copy, a fresh SmartNIC
// index is built over it, and the shard is gated until the log scan
// decides every recovering transaction.
func (n *Node) adoptShards(c *nicrt.Core, v membership.View) {
	for s := 0; s < len(v.PrimaryOf); s++ {
		if v.PrimaryOf[s] != n.id || n.prims[s] != nil {
			continue
		}
		data, ok := n.backups[s]
		if !ok {
			panic(fmt.Sprintf("core: node %d promoted for shard %d without a replica", n.id, s))
		}
		// Drain this replica's decided-but-unapplied records synchronously:
		// promotion happens off the critical path (§4.2.1), and the serving
		// copy must reflect every decided write before lookups begin.
		for {
			r, ok := n.log.claim()
			if !ok {
				break
			}
			n.applyRecord(c, &r)
		}
		idx := n.cl.newIndex(data)
		idx.SyncHints()
		n.hookIndex(s, idx)
		n.prims[s] = &primaryShard{data: data, index: idx, ready: false}
		if n.cl.mv.enabled {
			// The drain above bypassed the worker ack path, so discharge the
			// shard from every pending watermark entry — this copy is now the
			// authority. Snapshot reads at timestamps picked before the
			// promotion are fenced off: their resolution raced the failover.
			n.cl.mv.shardRecovered(s)
			n.prims[s].mvFloor = n.cl.mv.next
		}

		// Decide every undecided record for the shard. Records from DEAD
		// coordinators are decided by querying the surviving replicas;
		// records from coordinators that are still alive are left to their
		// coordinator's in-flight LogCommit/drop — until it arrives, their
		// write-set keys are locked in the new index so no transaction can
		// observe their pre-commit values (§4.2.1: "the lock state is
		// reconstructed... Once all locks are set, the shard can serve new
		// transactions").
		started := false
		for _, ts := range n.log.undecided(s) {
			writes, _ := n.log.has(ts.txn, s)
			if !v.Alive[chassis.TxnNode(ts.txn)] {
				started = true
				n.startRecovery(c, &recovering{
					txn: ts.txn, shard: s, writes: writes, promotion: true,
				}, v)
				continue
			}
			var keys []uint64
			for _, kv := range writes {
				if idx.TryLock(kv.Key, ts.txn) {
					keys = append(keys, kv.Key)
				}
			}
			n.pendingDecide[ts] = keys
		}
		if !started {
			n.finishPromotion(c, s)
		}
	}
}

// applyRecord applies one decided log record (promotion drain) through the
// same per-kind path the worker uses: commit records maintain version
// chains, backup records apply chain-less (see applyKV — the promotion
// fence makes understated chain state on an adopted replica safe).
func (n *Node) applyRecord(c *nicrt.Core, r *logRecord) {
	for ki, kv := range r.writes {
		switch r.kind {
		case recBackup:
			if b, ok := n.backups[r.shard]; ok {
				n.applyKV(b, r, ki, kv)
			}
		case recCommit:
			if p := n.prim(r.shard); p != nil {
				n.applyKV(p.data, r, ki, kv)
			}
		}
	}
	if r.kind == recCommit {
		// Unpin directly: the host-worker ack path is being bypassed.
		if keys, ok := n.pins[r.seq]; ok {
			idx := n.pinIdx[r.seq]
			delete(n.pins, r.seq)
			delete(n.pinIdx, r.seq)
			for _, k := range keys {
				idx.Unpin(k)
			}
		}
	}
}

// finishPromotion opens a recovered shard for service once no recovering
// transactions remain.
func (n *Node) finishPromotion(c *nicrt.Core, shard int) {
	for _, r := range n.recov {
		if r.shard == shard && r.promotion {
			return // still deciding
		}
	}
	p := n.prim(shard)
	p.index.SyncHints()
	p.ready = true
	// Fence: surviving backups drop any undecided records this primary
	// does not hold (those transactions cannot have committed).
	n.broadcastDecide(c, 0, shard, false, 0)
}

// sweepOrphanLocks finds locks held by transactions whose coordinator died
// and decides each by the recovery rule.
func (n *Node) sweepOrphanLocks(c *nicrt.Core, v membership.View) {
	var shards []int
	for s := range n.prims {
		shards = append(shards, s)
	}
	slices.Sort(shards)
	for _, s := range shards {
		p := n.prims[s]
		orphans := map[uint64][]uint64{} // txn -> locked keys
		var order []uint64
		p.index.ForEachLocked(func(key, owner uint64) {
			if v.Alive[chassis.TxnNode(owner)] {
				return
			}
			if _, seen := orphans[owner]; !seen {
				order = append(order, owner)
			}
			orphans[owner] = append(orphans[owner], key)
		})
		slices.Sort(order)
		for _, txn := range order {
			n.startRecovery(c, &recovering{
				txn: txn, shard: s, lockedKeys: orphans[txn],
			}, v)
		}
	}
}

// startRecovery queries the shard's other surviving replicas about a
// dead coordinator's transaction. If this node is the only surviving
// replica, its own record is the complete surviving evidence: a record
// present at every surviving replica is committed (the FaRM rule —
// transactions past validation with fully replicated records commit
// during recovery); with no record anywhere, abort.
func (n *Node) startRecovery(c *nicrt.Core, r *recovering, v membership.View) {
	key := txnShard{txn: r.txn, shard: r.shard}
	if _, dup := n.recov[key]; dup {
		return
	}
	if r.writes == nil {
		if w, ok := n.log.has(r.txn, r.shard); ok {
			r.writes = w
		}
	}
	r.allHave = true
	for _, b := range n.cl.viewBackups(r.shard) {
		if b == n.id {
			continue
		}
		r.expected++
		c.Send(b, &wire.RecoveryQuery{
			Header: wire.Header{TxnID: r.txn, Src: uint8(n.id)},
			Shard:  uint8(r.shard), Round: r.round,
		})
	}
	n.recov[key] = r
	if r.expected == 0 {
		n.decideRecovery(c, r)
	}
}

// handleRecoveryQuery answers from this node's log.
func (n *Node) handleRecoveryQuery(c *nicrt.Core, src int, m *wire.RecoveryQuery) {
	writes, has := n.log.has(m.TxnID, int(m.Shard))
	c.Send(src, &wire.RecoveryResp{
		Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
		Shard:  m.Shard, Round: m.Round, Has: has, Writes: writes,
	})
}

// handleRecoveryResp accumulates replica answers.
func (n *Node) handleRecoveryResp(c *nicrt.Core, m *wire.RecoveryResp) {
	r, ok := n.recov[txnShard{txn: m.TxnID, shard: int(m.Shard)}]
	if !ok {
		return
	}
	if m.Round != r.round {
		return // answer to a vote a view change superseded
	}
	if m.Has {
		if r.writes == nil {
			r.writes = m.Writes
		}
	} else {
		r.allHave = false
	}
	r.expected--
	if r.expected == 0 {
		n.decideRecovery(c, r)
	}
}

// decideRecovery commits or aborts a recovering transaction (§4.2.1: "each
// recovering transaction is either aborted or fully applied to all
// replicas before its associated locks are finally released").
func (n *Node) decideRecovery(c *nicrt.Core, r *recovering) {
	delete(n.recov, txnShard{txn: r.txn, shard: r.shard})
	commit := r.allHave && r.writes != nil
	p := n.prim(r.shard)

	var cts uint64
	if commit {
		unlock := r.lockedKeys
		if unlock == nil {
			// Promotion scan: the fresh index holds no locks for it.
			unlock = []uint64{}
		}
		if n.cl.mv.enabled {
			// Reuse the original commit timestamp when the dead coordinator
			// assigned one (it rides in the surviving records), else mint a
			// fresh one; hold() re-arms this shard's pending apply so the
			// snapshot watermark waits for the recovered write to land. Safe:
			// the fence is up for the whole recovery episode.
			cts = n.cl.mv.ctsFor(r.txn, 0)
			n.cl.mv.hold(cts, r.shard)
		}
		n.recordRecovered(r.txn, r.writes, cts)
		n.log.markCommitted(r.txn, r.shard, cts)
		n.commitShard(c, r.shard, r.txn, r.writes, unlock, cts, func() {})
		n.wakeWorkers()
	} else {
		n.log.drop(r.txn, r.shard)
		for _, k := range r.lockedKeys {
			p.index.Unlock(k, r.txn)
		}
	}
	// Tell surviving backups the fate of their records.
	n.broadcastDecide(c, r.txn, r.shard, commit, cts)
	if r.promotion {
		n.finishPromotion(c, r.shard)
	}
}

// broadcastDecide announces a recovery outcome (or, with txn 0, the
// promotion fence) to the shard's surviving backups.
func (n *Node) broadcastDecide(c *nicrt.Core, txn uint64, shard int, commit bool, cts uint64) {
	for _, b := range n.cl.viewBackups(shard) {
		if b == n.id {
			continue
		}
		c.Send(b, &wire.RecoveryDecide{
			Header: wire.Header{TxnID: txn, Src: uint8(n.id)},
			Shard:  uint8(shard), Commit: commit, CTS: cts,
		})
	}
}

// resolveRecord applies a recovery decision to this node's log: commit
// (mark decided, wake workers to apply) or drop.
func (n *Node) resolveRecord(txn uint64, shard int, commit bool, cts uint64) {
	if commit {
		n.log.markCommitted(txn, shard, cts)
		n.wakeWorkers()
		return
	}
	n.log.drop(txn, shard)
}

// handleRecoveryDecide applies a primary's decision at a backup — or, when
// this node was itself promoted and is awaiting an alive coordinator's
// decision, resolves the pending record. TxnID 0 is the promotion fence:
// drop every remaining undecided record for the shard.
func (n *Node) handleRecoveryDecide(c *nicrt.Core, m *wire.RecoveryDecide) {
	shard := int(m.Shard)
	if m.TxnID == 0 {
		fence := c.RxEpoch()
		for _, ts := range n.log.undecided(shard) {
			if _, pending := n.pendingDecide[ts]; pending {
				continue // our own promoted shard's pending records
			}
			n.log.dropBefore(ts.txn, shard, fence)
		}
		return
	}
	ts := txnShard{txn: m.TxnID, shard: shard}
	if keys, ok := n.pendingDecide[ts]; ok {
		delete(n.pendingDecide, ts)
		if p := n.prim(shard); p != nil {
			for _, k := range keys {
				p.index.UnlockIf(k, m.TxnID)
			}
		}
		// fall through to record the decision below
	}
	n.resolveRecord(m.TxnID, shard, m.Commit, m.CTS)
}
