package core

import (
	"fmt"
	"slices"

	"xenic/internal/nicrt"
	"xenic/internal/sim"
	"xenic/internal/store/nicindex"
	"xenic/internal/trace"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// This file implements the coordinator-side NIC state machine (§4.2): the
// EXECUTE fan-out with combined read+lock operations, NIC-side execution
// (function shipping from host to NIC, §4.2.2), the multi-hop shipped path
// (§4.2.3), validation, logging, and commit. Shards are routed through the
// current membership view, so a promoted primary is addressed transparently
// after recovery.

// phase is a coordinated transaction's state, named for what it awaits.
// setPhase is the only transition; every phase's abort edge is abortTxn,
// and a transaction leaves the coordinator through endTxn, or through
// dropCtxn once its last COMMIT is acknowledged.
type phase uint8

const (
	phExecute  phase = iota // ExecuteResp, or a local EXECUTE unit
	phHostExec              // the host's WriteSet
	phValidate              // ValidateResp, or a local VALIDATE unit
	phLog                   // LogResp, or a local backup append
	phCommit                // CommitResp, or a local apply
	phShipped               // the ShipResult and its backups' LogResp

	numPhases = int(phShipped) + 1
)

// phases is the coordinator's phase table. The watchdog aborts only a
// transaction parked in a timeout phase: host execution always progresses
// locally, and past the commit point the outcome must stand. An abort in a
// logged phase tells the replicas to drop the records they may hold
// (announceAbort).
var phases = [numPhases]struct {
	name            string
	timeout, logged bool
}{
	phExecute:  {name: "execute", timeout: true},
	phHostExec: {name: "host-exec"},
	phValidate: {name: "validate", timeout: true},
	phLog:      {name: "log", logged: true},
	phCommit:   {name: "commit"},
	phShipped:  {name: "shipped", logged: true},
}

func (p phase) String() string { return phases[p].name }

// ctxn is one in-flight transaction's coordinator state, resident in
// SmartNIC memory. Records are recycled through the node's freelist (see
// dropCtxn), so nothing outside n.ctxns may hold one past its transaction's
// last continuation.
type ctxn struct {
	// OCC holds the read set, lock sets, write set and fan-in counter
	// (Pending counts key checks, EXECUTE/VALIDATE/LOG/COMMIT parts and
	// local lookups alike).
	txnmodel.OCC

	id       uint64
	desc     txnmodel.TxnDesc
	phase    phase
	phaseAt  sim.Time // when the current phase began (latency accounting)
	openedAt sim.Time // when the transaction opened (history recording)
	epoch    int      // bumped on every phase change; watchdog progress marker
	// checkFailed holds the first failed key check of a local commit until
	// its last check is in; a view change in between still reports as one.
	checkFailed wire.Status
	dead        bool // view change aborted this transaction; drop stragglers
	nicExec     bool
	// cts is the MVCC commit timestamp assigned at the commit point
	// (0 = MVCC off or not yet committed).
	cts uint64
	// snapTS marks a read-only transaction on the lock-free snapshot path
	// (MVCC): every read resolves at this timestamp, no locks or validation.
	snapTS     uint64
	snapshot   bool
	snapClosed bool // GC-protection refcount released

	// local is the request of a host-executed local commit (§4.2.4); nil
	// on every other path.
	local *wire.TxnRequest

	// Shipped-path state.
	shipTo     int
	gotResult  bool
	expectLogs int
	logAcks    int
	shipped    *wire.ShipResult
	localLocks []uint64
	shipReads  []wire.KV // values of localLocks, shipped as LocalReads
}

// lookupLanded takes the lookups a coordinator issues for itself: a shipped
// transaction's local reads (shipTxn) and the re-reads of checkKey. A
// transaction is in one of those states while any is in flight, and a dead
// one keeps the state it died in.
func (t *ctxn) lookupLanded(n *Node, c *nicrt.Core, d lookupDone) {
	if t.phase == phShipped {
		n.shipLocalRead(c, t, d.slot, d.res)
		return
	}
	if t.dead {
		return
	}
	if d.res.Version != d.want {
		t.staleKey()
	}
	n.keysChecked(c, t)
}

// grabCtxn returns coordinator state for transaction id: a recycled record
// when the node's freelist has one, else a new one. A recycled record keeps
// the backing arrays it owns outright (the OCC arrays Reset keeps, and
// localLocks); every slice that was handed to a message or a continuation is
// dropped.
func (n *Node) grabCtxn(id uint64) *ctxn {
	t := n.ctxnFree.get()
	t.OCC.Reset()
	*t = ctxn{OCC: t.OCC, id: id, localLocks: t.localLocks[:0]}
	return t
}

// dropCtxn is the single point a ctxn leaves the coordinator table: it
// closes t's last phase and its trace span with final status st, deletes t
// from the table, and recycles the record with its host-local request. A
// local attempt that never built t.Writes aborted in coordLocalCommit's lock
// or check step, so no log record, replica or message holds its request's
// rows: the ones its host execution built go back to the node's Rows. A
// transaction that ends normally has no continuation outstanding: every
// fan-out counts its units in t.Pending and moves on only at zero. One killed
// mid-flight (t.dead: view change or watchdog) may still have local DMA or
// lookup continuations holding t, so its record, request and rows are left
// to the garbage collector instead.
func (n *Node) dropCtxn(t *ctxn, st wire.Status) {
	if n.ctxns[t.id] != t {
		panic(fmt.Sprintf("core: node %d: txn %#x dropped twice", n.id, t.id))
	}
	now := n.closePhase(t)
	if tr := n.tr(); tr.Enabled() {
		tr.EndAsync("txn", "txn", t.id, n.id, now, trace.Args{"status": st.String()})
	}
	delete(n.ctxns, t.id)
	if !t.dead {
		if t.local != nil {
			if t.Writes == nil || mutRecycleLoggedRows {
				n.releaseRows(t.local.WriteSet[:t.local.ExecWrites])
			}
			n.putLocalReq(t.local)
			t.local = nil
		}
		n.ctxnFree.put(t)
	}
}

func (n *Node) newCtxn(m *wire.TxnRequest) *ctxn {
	t := n.grabCtxn(m.TxnID)
	t.desc = txnmodel.TxnDesc{
		ReadKeys:    m.ReadKeys,
		UpdateKeys:  m.WriteKeys,
		BlindWrites: m.WriteSet,
		FnID:        m.FnID,
		State:       m.ExecState,
		NICExec:     m.Flags&wire.FlagNICExec != 0,
	}
	t.Begin(&t.desc)
	return t
}

// primaryNode routes a shard through the current view.
func (n *Node) primaryNode(shard int) int { return n.cl.primaryNode(shard) }

// coordStart handles a TxnRequest arriving from the local host.
func (n *Node) coordStart(c *nicrt.Core, m *wire.TxnRequest) {
	if m.Flags&wire.FlagLocal != 0 {
		n.coordLocalCommit(c, m)
		return
	}
	t := n.newCtxn(m)
	n.openTxn(t)
	if t.desc.FnID == 0 && t.desc.ReadOnly() && n.cl.snapReady() {
		// MVCC read-only fast path: resolve every key at one snapshot
		// timestamp, lock-free and validation-free (DESIGN.md §12). During
		// fence episodes (recovery, promotion, rejoin) snapReady is false
		// and read-only transactions fall through to the OCC path.
		n.snapStart(c, t)
		return
	}
	t.nicExec = t.desc.NICExec && n.cl.cfg.Features.NICExecution && t.desc.FnID != 0

	// Coordinator-local B+tree blind writes (TPC-C order/order-line
	// inserts, district updates) are locked and version-checked here; their
	// values never need a NIC lookup.
	n.lockBlindBTree(c, t)
}

// btreeVerifyBytes is the DMA payload for re-reading a B+tree row header
// (key + version) from host memory when the NIC index no longer tracks the
// key.
const btreeVerifyBytes = 32

// lockBlindBTree locks t's coordinator-local B+tree blind-write keys in the
// NIC index and checks each against the version the host observed at
// generation time (checkKey). A lock failure overrides a check's; after
// either, later keys are locked but not checked. Continues in keysChecked.
func (n *Node) lockBlindBTree(c *nicrt.Core, t *ctxn) {
	t.Pending = 1
	for _, kv := range t.desc.BlindWrites {
		if !n.place().IsBTree(kv.Key) {
			continue
		}
		shard := n.place().ShardOf(kv.Key)
		if n.primaryNode(shard) != n.id {
			// The shard moved (stable primary after this node rejoined): the
			// key locks at the serving primary through the EXECUTE round
			// like any hash write (see execLockKeys).
			continue
		}
		p := n.prim(shard)
		n.chargeIndexOps(c, 1)
		if !p.index.TryLock(kv.Key, t.id) {
			t.Failed = wire.StatusAbortLocked
		} else {
			t.AddLocks(shard, kv.Key)
		}
		t.SetRead(wire.KV{Key: kv.Key, Version: kv.Version})
		if t.Failed == wire.StatusOK {
			n.checkKey(c, t, kv.Key, kv.Version)
		}
	}
	n.keysChecked(c, t)
}

// checkKey checks a key t versions itself, a coordinator-local blind write
// or any key of a local commit, against want, the version the host observed.
// A key another transaction has locked fails. The NIC index answers for a
// key it tracks (a lock or a commit pin keeps it resident); any other key is
// re-read from the host store by DMA: a B+tree row header, or the hash
// chain. A missing row reads as version 0. Trusting the host's observation
// there loses updates: a writer may have committed and been applied since
// the host read the row (DESIGN §9). t.Pending counts the re-reads.
func (n *Node) checkKey(c *nicrt.Core, t *ctxn, key, want uint64) {
	s := n.place().ShardOf(key)
	p := n.prim(s)
	if p.index.IsLocked(key, t.id) {
		t.staleKey()
		return
	}
	if v, known := p.index.VersionOf(key); known {
		if v != want {
			t.staleKey()
		}
		return
	}
	if mutTrustObserved {
		return
	}
	t.Pending++
	if n.place().IsBTree(key) {
		n.issueLookup(c, lookupVerify, p, t, lookupDone{key: key, want: want})
		return
	}
	res, hit := n.lookupStart(c, s, key)
	d := lookupDone{key: key, want: want, res: res}
	if hit {
		t.lookupLanded(n, c, d)
		return
	}
	n.lookupFinish(c, s, t, d)
}

// staleKey records a failed key check. A local commit keeps the first in
// checkFailed until its last check is in, so a view change in between
// reports as one; any other transaction fails at once.
func (t *ctxn) staleKey() {
	failed := &t.Failed
	if t.local != nil {
		failed = &t.checkFailed
	}
	if *failed == wire.StatusOK {
		*failed = wire.StatusAbortVersion
	}
}

// keysChecked retires one unit of t's key checks. After the last it aborts
// on a failure; otherwise a local commit versions its write set and logs it,
// and any other transaction ships (§4.2.3) or starts execution.
func (n *Node) keysChecked(c *nicrt.Core, t *ctxn) {
	if !t.Done(wire.StatusOK) || t.dead {
		return
	}
	if t.Failed == wire.StatusOK {
		t.Failed = t.checkFailed
	}
	if t.Failed != wire.StatusOK {
		n.abortTxn(c, t)
		return
	}
	if t.local != nil {
		t.Writes = make([]wire.KV, len(t.local.WriteSet))
		for i, kv := range t.local.WriteSet {
			t.Writes[i] = wire.KV{Key: kv.Key, Version: kv.Version + 1, Value: kv.Value}
		}
		n.logPhase(c, t)
		return
	}
	if n.cl.cfg.Features.MultiHopOCC && t.desc.NICExec && t.desc.FnID != 0 {
		if dst, ok := n.shipTarget(&t.desc); ok {
			n.shipTxn(c, t, dst)
			return
		}
	}
	n.execRound(c, t, t.desc.ReadKeys, n.execLockKeys(&t.desc))
}

// execLockKeys lists the write keys locked through EXECUTE rounds: all
// partitioned-hash keys, plus B+tree keys whose shard this node no longer
// serves as primary — after a rejoin the stable-primary rule leaves the
// old shard with the promoted node, so the rejoiner's B+tree writes lock
// remotely like any other key. (Coordinator-local B+tree blind writes are
// still locked directly in lockBlindBTree.)
func (n *Node) execLockKeys(d *txnmodel.TxnDesc) []uint64 {
	var out []uint64
	for i := 0; i < d.NumWriteKeys(); i++ {
		k := d.WriteKey(i)
		if !n.place().IsBTree(k) || n.primaryNode(n.place().ShardOf(k)) != n.id {
			if out == nil {
				out = make([]uint64, 0, d.NumWriteKeys()-i)
			}
			out = append(out, k)
		}
	}
	return out
}

// shipTarget reports the single remote primary node a transaction can be
// shipped to: all keys must live on this node and exactly one remote node
// (§4.2.3).
func (n *Node) shipTarget(d *txnmodel.TxnDesc) (int, bool) {
	remote := -1
	for i := 0; i < d.NumKeys(); i++ {
		dst := n.primaryNode(n.place().ShardOf(d.Key(i)))
		if dst == n.id {
			continue
		}
		if remote == -1 {
			remote = dst
		} else if remote != dst {
			return 0, false
		}
	}
	if remote == -1 {
		return 0, false // fully local: the host fast path covers it
	}
	return remote, true
}

// execRound fans out combined read+lock EXECUTE operations for the given
// keys, one per shard — or per key when SmartRemoteOps is disabled,
// mirroring one-sided RDMA's separate read/lock operations (§5.7).
func (n *Node) execRound(c *nicrt.Core, t *ctxn, readKeys, lockKeys []uint64) {
	n.setPhase(t, phExecute)
	var buf [8]txnmodel.ExecPart
	parts := buf[:0]
	for _, k := range readKeys {
		p := txnmodel.PartFor(&parts, n.place().ShardOf(k))
		p.Reads = append(p.Reads, k)
	}
	for _, k := range lockKeys {
		p := txnmodel.PartFor(&parts, n.place().ShardOf(k))
		p.Locks = append(p.Locks, k)
	}

	// Count every operation before issuing the first, so a local one that
	// completes inline cannot finish the round early.
	smart := n.cl.cfg.Features.SmartRemoteOps
	t.Pending = len(parts)
	if !smart {
		t.Pending = len(readKeys) + len(lockKeys)
	}
	if t.Pending == 0 {
		n.afterExec(c, t)
		return
	}
	for _, p := range parts {
		if smart {
			n.execOp(c, t, p.Shard, p.Reads, p.Locks)
			continue
		}
		for _, k := range p.Reads {
			n.execOp(c, t, p.Shard, []uint64{k}, nil)
		}
		for _, k := range p.Locks {
			n.execOp(c, t, p.Shard, nil, []uint64{k})
		}
	}
}

// execOp issues one EXECUTE operation of t's current round to shard's
// primary: directly when that is this node, else over the fabric.
func (n *Node) execOp(c *nicrt.Core, t *ctxn, shard int, reads, locks []uint64) {
	dst := n.primaryNode(shard)
	if dst == n.id {
		n.serverExecute(c, shard, t.id, reads, locks, func(st wire.Status, items []wire.KV) {
			held := locks
			if st != wire.StatusOK {
				held = nil
			}
			n.coordExecPart(c, t, shard, held, st, items)
		})
		return
	}
	c.Send(dst, &wire.Execute{
		Header:   wire.Header{TxnID: t.id, Src: uint8(n.id)},
		ReadKeys: reads, LockKeys: locks,
	})
}

// findTxn returns the transaction id if it awaits phase ph's messages, else
// nil: the message is a straggler or a duplicate.
func (n *Node) findTxn(id uint64, ph phase) *ctxn {
	if t, ok := n.ctxns[id]; ok && t.phase == ph {
		return t
	}
	return nil
}

// coordExecuteResp routes a remote EXECUTE response into the state machine.
// The response echoes the keys it locked (nothing stays locked on abort).
func (n *Node) coordExecuteResp(c *nicrt.Core, m *wire.ExecuteResp) {
	if t := n.findTxn(m.TxnID, phExecute); t != nil {
		shard := -1
		if len(m.Locked) > 0 {
			shard = n.place().ShardOf(m.Locked[0])
		}
		n.coordExecPart(c, t, shard, m.Locked, m.Status, m.Items)
		return
	}
	if _, ok := n.ctxns[m.TxnID]; !ok && m.Status == wire.StatusOK && len(m.Locked) > 0 {
		// Straggler from a view-change abort: release its locks.
		c.Send(int(m.Src), &wire.Abort{
			Header:     wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
			LockedKeys: m.Locked,
		})
	}
}

// coordExecPart accumulates one EXECUTE unit's outcome.
func (n *Node) coordExecPart(c *nicrt.Core, t *ctxn, shard int, locks []uint64,
	st wire.Status, items []wire.KV) {

	if t.dead {
		// A view-change abort swept t.Locked while this local EXECUTE unit
		// was still in flight, so the locks it just acquired have no owner
		// left to release them. Unlock here — the local analogue of the
		// straggler Abort coordExecuteResp sends for remote responses.
		if st == wire.StatusOK && len(locks) > 0 {
			n.chargeIndexOps(c, len(locks))
			for _, k := range locks {
				if p := n.prim(n.place().ShardOf(k)); p != nil {
					p.index.UnlockIf(k, t.id)
				}
			}
		}
		return
	}
	if !t.Landed(st, shard, locks, items) {
		return
	}
	if t.Failed != wire.StatusOK {
		n.abortTxn(c, t)
		return
	}
	n.afterExec(c, t)
}

// afterExec runs once all EXECUTE responses are in: execute on the NIC
// (§4.2.2) or round-trip to the host.
func (n *Node) afterExec(c *nicrt.Core, t *ctxn) {
	if writes, ok := t.Unstash(); ok {
		// This round existed only to lock execution-introduced write keys.
		n.prepareCommit(c, t, writes)
		return
	}
	if t.nicExec {
		fn, ok := n.cl.Registry().Get(t.desc.FnID)
		if !ok {
			panic(fmt.Sprintf("core: unknown fn %d", t.desc.FnID))
		}
		reads := t.ReadsInOrder()
		c.Charge(n.cl.cfg.Params.HostScaled(fn.HostCost))
		n.execResult(c, t, fn.Run(t.desc.State, reads, nil))
		return
	}
	n.setPhase(t, phHostExec)
	c.SendHost(&wire.ReadReturn{
		Header: wire.Header{TxnID: t.id, Src: uint8(n.id)},
		Items:  t.ReadsInOrder(),
	})
}

// execResult takes an execution's outcome, computed on the NIC or the host:
// an abort, one more read round, or the write set to commit.
func (n *Node) execResult(c *nicrt.Core, t *ctxn, res txnmodel.ExecResult) {
	if res.Abort {
		t.Failed = wire.StatusAbortMissing
		n.abortTxn(c, t)
		return
	}
	if len(res.MoreReads) > 0 {
		t.AddReadOrder(res.MoreReads)
		n.execRound(c, t, res.MoreReads, nil)
		return
	}
	n.prepareCommit(c, t, res.Writes)
}

// prepareCommit versions the write set and moves to validation — after one
// more EXECUTE round first when the execution introduced write keys that are
// not locked yet (afterExec re-enters here with the stashed output).
func (n *Node) prepareCommit(c *nicrt.Core, t *ctxn, fnWrites []wire.KV) {
	if missing := t.Prepare(n.place(), fnWrites, t.desc.BlindWrites); missing != nil {
		n.execRound(c, t, nil, missing)
		return
	}
	n.validate(c, t)
}

// validate issues VALIDATE operations for read-set keys not covered by
// write locks (§4.2 step 4).
func (n *Node) validate(c *nicrt.Core, t *ctxn) {
	n.setPhase(t, phValidate)
	if mutSkipValidation {
		n.afterValidate(c, t)
		return
	}
	var buf [8]txnmodel.ValPart
	parts, total := t.Validation(n.place(), t.desc.ReadOnly(), buf[:0])
	if total == 0 {
		n.afterValidate(c, t)
		return
	}
	smart := n.cl.cfg.Features.SmartRemoteOps
	t.Pending = len(parts)
	if !smart {
		t.Pending = total
	}
	for _, p := range parts {
		if smart {
			n.validateOp(c, t, p.Shard, p.Items)
			continue
		}
		for i := range p.Items {
			n.validateOp(c, t, p.Shard, p.Items[i:i+1:i+1])
		}
	}
}

// validateOp issues one VALIDATE operation to shard's primary.
func (n *Node) validateOp(c *nicrt.Core, t *ctxn, shard int, items []wire.KeyVer) {
	dst := n.primaryNode(shard)
	if dst == n.id {
		n.serverValidate(c, shard, t.id, items, func(st wire.Status) {
			if n.lastPart(c, t, st) {
				n.afterValidate(c, t)
			}
		})
		return
	}
	c.Send(dst, &wire.Validate{
		Header: wire.Header{TxnID: t.id, Src: uint8(n.id)},
		Items:  items,
	})
}

// lastPart retires one unit of t's current fan-out with status st and
// reports whether it was the last and t may go on. A dead transaction drops
// every straggler; a failed one aborts at its last unit.
func (n *Node) lastPart(c *nicrt.Core, t *ctxn, st wire.Status) bool {
	if t.dead || !t.Done(st) {
		return false
	}
	if t.Failed != wire.StatusOK {
		n.abortTxn(c, t)
		return false
	}
	return true
}

func (n *Node) afterValidate(c *nicrt.Core, t *ctxn) {
	if len(t.Writes) == 0 {
		// Read-only transaction completes after validation (§4.2 step 5).
		n.endTxn(c, t, wire.StatusOK)
		return
	}
	n.logPhase(c, t)
}

// logPhase replicates the write set to every surviving backup of every
// write shard (§4.2 step 5).
func (n *Node) logPhase(c *nicrt.Core, t *ctxn) {
	n.setPhase(t, phLog)
	if mutUnlockBeforeLog {
		// Cleared so that the commit fan-out does not unlock again.
		n.releaseLocks(c, t)
		t.Locked = nil
	}
	// Grouped once for both fan-outs: commitPoint sends the same per-shard
	// slices to the primaries that go to the backups here.
	t.ByShard = txnmodel.GroupByShard(n.place(), t.Writes)
	byShard := t.ByShard
	t.Pending = 0
	for _, sw := range byShard {
		t.Pending += len(n.cl.viewBackups(sw.Shard))
	}
	if t.Pending == 0 {
		// Replication factor 1 (or all backups lost): commit directly.
		n.commitPoint(c, t, t.Writes, byShard)
		return
	}
	for _, sw := range byShard {
		for _, b := range n.cl.viewBackups(sw.Shard) {
			if b == n.id {
				n.appendLogTS(c, recBackup, t.id, sw.Shard, sw.Writes, 0, nil, func(uint64) {
					if n.lastPart(c, t, wire.StatusOK) {
						n.commitPoint(c, t, t.Writes, t.ByShard)
					}
				})
				continue
			}
			c.Send(b, &wire.Log{
				Header:    wire.Header{TxnID: t.id, Src: uint8(n.id)},
				RespondTo: uint8(n.id),
				Writes:    sw.Writes,
			})
		}
	}
}

// notifyLogCommits tells every backup that logged this transaction's
// records that the commit point was reached, so they apply the records
// (and recovery can tell decided records from undecided ones).
func (n *Node) notifyLogCommits(c *nicrt.Core, txn uint64, writes []wire.KV, cts uint64) {
	var buf [8]int
	for _, shard := range txnmodel.WriteShards(n.place(), writes, buf[:0]) {
		for _, b := range n.cl.viewBackups(shard) {
			if b == n.id {
				n.log.markCommitted(txn, shard, cts)
				n.wakeWorkers()
				continue
			}
			c.Send(b, &wire.LogCommit{
				Header: wire.Header{TxnID: txn, Src: uint8(n.id)},
				Shard:  uint8(shard), CTS: cts,
			})
		}
	}
}

// announceAbort tells every replica that may hold undecided log records of
// txn's writes to drop them: the transaction never reached its commit point.
func (n *Node) announceAbort(c *nicrt.Core, txn uint64, writes []wire.KV) {
	var buf [8]int
	for _, shard := range txnmodel.WriteShards(n.place(), writes, buf[:0]) {
		for _, b := range n.cl.replicasOf(shard) {
			if b == n.id {
				n.log.drop(txn, shard)
				continue
			}
			c.Send(b, &wire.RecoveryDecide{
				Header: wire.Header{TxnID: txn, Src: uint8(n.id)},
				Shard:  uint8(shard), Commit: false,
			})
		}
	}
}

// assignCTS allocates the transaction's MVCC commit timestamp at its commit
// point (0 under MVCC-off), charging one pending host-apply per write shard
// toward the snapshot watermark.
func (n *Node) assignCTS(txn uint64, writes []wire.KV) uint64 {
	if !n.cl.mv.enabled || len(writes) == 0 {
		return 0
	}
	var mask uint64
	place := n.place()
	for _, kv := range writes {
		mask |= 1 << uint(place.ShardOf(kv.Key))
	}
	return n.cl.mv.assign(txn, mask)
}

// commitPoint is a coordinated transaction's commit point (§4.2 step 6): it
// assigns writes their MVCC commit timestamp, records the commit, reports it
// to the host and to the backups that logged it, and applies each shard's
// writes at its primary. t drops when the last primary is done; the commit
// phase is off the latency path.
func (n *Node) commitPoint(c *nicrt.Core, t *ctxn, writes []wire.KV, byShard []txnmodel.ShardWrites) {
	t.cts = n.assignCTS(t.id, writes)
	n.recordCommit(t, writes)
	n.finishTxn(c, t, wire.StatusOK)
	n.notifyLogCommits(c, t.id, writes, t.cts)
	n.setPhase(t, phCommit)
	// Counted before the first commit is issued, so a local one that
	// completes inline (blocking DMA) cannot close t while the loop runs.
	t.Pending = len(byShard)
	for _, sw := range byShard {
		dst := n.primaryNode(sw.Shard)
		if dst == n.id {
			n.commitShard(c, sw.Shard, t.id, sw.Writes, t.LockedOn(sw.Shard), t.cts, func() {
				if n.lastPart(c, t, wire.StatusOK) {
					n.dropCtxn(t, wire.StatusOK)
				}
			})
			continue
		}
		c.Send(dst, &wire.Commit{
			Header: wire.Header{TxnID: t.id, Src: uint8(n.id)},
			Writes: sw.Writes, CTS: t.cts,
		})
	}
}

// releaseLocks unlocks every key t holds: local ones in the index, remote
// ones by one ABORT per shard. The ABORT carries its shard's lock-key list,
// so t's slot lets go of it.
func (n *Node) releaseLocks(c *nicrt.Core, t *ctxn) {
	for i := range t.Locked {
		ls := &t.Locked[i]
		if dst := n.primaryNode(ls.Shard); dst != n.id {
			c.Send(dst, &wire.Abort{
				Header:     wire.Header{TxnID: t.id, Src: uint8(n.id)},
				LockedKeys: ls.Keys,
			})
			ls.Keys = nil
			continue
		}
		n.unlockAt(c, t, ls.Shard, ls.Keys)
	}
}

// unlockAt releases t's locks on keys of shard, which this node serves.
func (n *Node) unlockAt(c *nicrt.Core, t *ctxn, shard int, keys []uint64) {
	n.chargeIndexOps(c, len(keys))
	idx := n.prim(shard).index
	for _, k := range keys {
		idx.Unlock(k, t.id)
	}
}

// abortTxn is every phase's abort edge: it releases t's locks, tells the
// replicas to drop t's records if its phase is logged, and ends t with
// status t.Failed. Without the announcement a backup promoted to primary
// parks an undecided record in pendingDecide and keeps the write set
// locked, waiting for a decision that never comes.
func (n *Node) abortTxn(c *nicrt.Core, t *ctxn) {
	n.releaseLocks(c, t)
	if phases[t.phase].logged {
		n.announceAbort(c, t.id, t.Writes)
	}
	n.endTxn(c, t, t.Failed)
}

// endTxn is the exit of every transaction that does not reach commitPoint:
// it records outcome st in the history (and an abort in the trace), releases
// a snapshot's GC refcount, reports st to the host and drops t.
func (n *Node) endTxn(c *nicrt.Core, t *ctxn, st wire.Status) {
	if st == wire.StatusOK {
		n.recordCommit(t, nil)
		if t.snapshot {
			n.stats.SnapCommitted++
		}
	} else {
		n.recordAbort(t)
		if tr := n.tr(); tr.Enabled() {
			tr.Instant("txn", "abort", n.id, 0, n.cl.Engine().Now(),
				trace.Args{"reason": st.String(), "txn": t.id})
		}
	}
	n.snapClose(t)
	n.finishTxn(c, t, st)
	n.dropCtxn(t, st)
}

// --- coordinator watchdog (fault runs) ---
//
// Drops, partitions, and stalls can leave a coordinated transaction parked
// in a fan-out phase holding remote locks. The reliable transport eventually
// delivers every frame between live nodes, so the watchdog is a lock-hold
// bound, not a correctness mechanism: when a transaction sits in a timeout
// phase of the table past the plan's TxnTimeout without a phase change, it
// is aborted (StatusAbortTimeout) and retried by the application with
// backoff. Delivery to live nodes is guaranteed past the commit point; dead
// nodes are handled by view-change recovery.

// armWatchdog schedules the first expiry check for t (fault runs only).
func (n *Node) armWatchdog(t *ctxn) {
	if !n.faulty() {
		return
	}
	d := n.cl.cfg.Faults.TxnTimeoutOrDefault()
	id, epoch := t.id, t.epoch
	n.cl.Engine().After(d, func() { n.checkWatchdog(id, epoch, d) })
}

// checkWatchdog fires d after the epoch it observed was current: if the
// transaction progressed, re-arm from the new epoch; if it is still parked
// in a timeout-eligible phase, abort it on a NIC core.
func (n *Node) checkWatchdog(id uint64, epoch int, d sim.Time) {
	if !n.alive {
		return
	}
	t, ok := n.ctxns[id]
	if !ok || t.dead {
		return
	}
	if !t.parked(epoch) {
		epoch := t.epoch
		n.cl.Engine().After(d, func() { n.checkWatchdog(id, epoch, d) })
		return
	}
	n.nic.Inject(n.nic.CoreFor(id), func(c *nicrt.Core) {
		t, ok := n.ctxns[id]
		if !ok || t.dead {
			return
		}
		if !t.parked(epoch) {
			// The transaction progressed between the expiry check and this
			// core injection (e.g. a shipped result or validate ack landed
			// first). Progress must re-arm, not kill, the watchdog chain: a
			// later execution round can park in EXECUTE/VALIDATE again.
			epoch := t.epoch
			n.cl.Engine().After(d, func() { n.checkWatchdog(id, epoch, d) })
			return
		}
		n.stats.Timeouts[t.phase]++
		if tr := n.tr(); tr.Enabled() {
			tr.Instant("fault", "txn-timeout", n.id, 0, n.cl.Engine().Now(),
				trace.Args{"txn": t.id, "phase": t.phase.String()})
		}
		t.Failed = wire.StatusAbortTimeout
		// Anything still pending (local async lookups, remote responses)
		// must land as a straggler, exactly as after a view-change abort.
		t.dead = true
		n.abortTxn(c, t)
	})
}

// parked reports whether t is still in the phase it was in at epoch, and
// that phase is one the watchdog may abort.
func (t *ctxn) parked(epoch int) bool { return t.epoch == epoch && phases[t.phase].timeout }

// finishTxn reports a transaction outcome to the host application in a
// pooled TxnDone (hostHandler releases it). The read set a NIC-executed
// commit returns fills the record's own array.
func (n *Node) finishTxn(c *nicrt.Core, t *ctxn, st wire.Status) {
	done := n.doneMsgs.get()
	*done = wire.TxnDone{
		Header:  wire.Header{TxnID: t.id, Src: uint8(n.id)},
		Status:  st,
		ReadSet: done.ReadSet[:0],
	}
	if t.nicExec && st == wire.StatusOK {
		done.ReadSet = t.AppendReadsInOrder(done.ReadSet)
	}
	c.SendHost(done)
}

// --- shipped path (§4.2.3) ---

// shipTxn locks and reads the local part at this coordinator NIC, then
// ships execution to the remote primary node.
func (n *Node) shipTxn(c *nicrt.Core, t *ctxn, dst int) {
	n.setPhase(t, phShipped)
	t.shipTo = dst

	// Lock-all on local keys (reads too: the shipped path skips
	// validation). B+tree blind keys were already locked in coordStart.
	localKeys := t.localLocks[:0]
	for i := 0; i < t.desc.NumKeys(); i++ {
		k := t.desc.Key(i)
		if n.primaryNode(n.place().ShardOf(k)) == n.id && !slices.Contains(localKeys, k) {
			localKeys = append(localKeys, k)
		}
	}
	t.localLocks = localKeys
	n.chargeIndexOps(c, len(localKeys))
	for _, k := range localKeys {
		if t.KeyLocked(n.place(), k) {
			continue
		}
		s := n.place().ShardOf(k)
		if !n.serving(s) {
			t.Failed = wire.StatusAbortLocked
			n.abortTxn(c, t)
			return
		}
		if !n.prim(s).index.TryLock(k, t.id) {
			t.Failed = wire.StatusAbortLocked
			n.abortTxn(c, t)
			return
		}
		t.AddLocks(s, k)
	}

	// Read local values, then ship. B+tree keys' versions are already in
	// t.Reads (observed at the host); hash keys resolve via the index.
	t.shipReads = make([]wire.KV, len(localKeys))
	t.Pending = 0
	for i, k := range localKeys {
		if n.place().IsBTree(k) {
			t.shipReads[i], _ = t.Read(k)
		} else {
			t.Pending++
		}
	}
	if t.Pending == 0 {
		n.sendShip(c, t)
		return
	}
	for i, k := range localKeys {
		if n.place().IsBTree(k) {
			continue
		}
		s := n.place().ShardOf(k)
		res, hit := n.lookupStart(c, s, k)
		if hit {
			n.shipLocalRead(c, t, i, res)
			continue
		}
		n.lookupFinish(c, s, t, lookupDone{slot: i, key: k, res: res})
	}
}

// shipLocalRead lands the value of local hash key i for a shipped
// transaction and ships once the last is in.
func (n *Node) shipLocalRead(c *nicrt.Core, t *ctxn, i int, res nicindex.Result) {
	kv := wire.KV{Key: t.localLocks[i], Version: res.Version, Value: res.Value}
	t.shipReads[i] = kv
	t.SetRead(kv)
	if t.Done(wire.StatusOK) && !t.dead {
		n.sendShip(c, t)
	}
}

// sendShip ships t's execution to the remote primary it targets.
func (n *Node) sendShip(c *nicrt.Core, t *ctxn) {
	c.Send(t.shipTo, &wire.ShipExec{
		Header:     wire.Header{TxnID: t.id, Src: uint8(n.id)},
		FnID:       t.desc.FnID,
		Coord:      uint8(n.id),
		ReadKeys:   t.desc.ReadKeys,
		WriteKeys:  t.desc.AppendWriteKeys(make([]uint64, 0, t.desc.NumWriteKeys())),
		WriteSet:   t.desc.BlindWrites,
		ExecState:  t.desc.State,
		LocalReads: t.shipReads,
	})
}

func (n *Node) coordShipResult(c *nicrt.Core, m *wire.ShipResult) {
	t := n.findTxn(m.TxnID, phShipped)
	if t == nil {
		if _, ok := n.ctxns[m.TxnID]; ok || m.Status != wire.StatusOK {
			return
		}
		// Straggler: the transaction was aborted by a view change while
		// the shipped execution was in flight. Release the remote lock-all
		// state and drop the backup records it fanned out.
		c.Send(int(m.Src), &wire.Abort{Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)}})
		n.announceAbort(c, m.TxnID, m.Writes)
		return
	}
	if m.Status != wire.StatusOK {
		n.unlockLocalSet(c, t, nil)
		t.Failed = m.Status
		n.endTxn(c, t, t.Failed)
		return
	}
	t.gotResult = true
	t.shipped = m
	t.expectLogs = int(m.NumLogs)
	n.maybeFinishShipped(c, t)
}

// unlockLocalSet releases every locally-held lock of t, except on shards in
// skip (whose locks a pending commitShard releases after durability).
func (n *Node) unlockLocalSet(c *nicrt.Core, t *ctxn, skip []int) {
	for _, ls := range t.Locked {
		if !slices.Contains(skip, ls.Shard) && n.primaryNode(ls.Shard) == n.id {
			n.unlockAt(c, t, ls.Shard, ls.Keys)
		}
	}
}

// maybeFinishShipped completes a shipped transaction once the result and
// every backup ack have arrived: report to the host, commit the local
// part, and send the COMMIT to the remote primary.
func (n *Node) maybeFinishShipped(c *nicrt.Core, t *ctxn) {
	if t.dead || !t.gotResult || t.logAcks < t.expectLogs {
		return
	}
	for _, kv := range t.shipped.ReadSet {
		t.SetRead(kv)
	}
	t.nicExec = true // results return with TxnDone
	byShard := txnmodel.GroupByShard(n.place(), t.shipped.Writes)
	n.commitPoint(c, t, t.shipped.Writes, byShard)
	var buf [8]int
	localWriteShards := buf[:0]
	remoteCovered := false
	for _, sw := range byShard {
		switch n.primaryNode(sw.Shard) {
		case n.id:
			localWriteShards = append(localWriteShards, sw.Shard)
		case t.shipTo:
			remoteCovered = true
		}
	}
	// Release local read locks on shards with no local writes. The shipped
	// path locks read keys too, and after a promotion this coordinator may
	// serve several shards: writes can land on one local shard while another
	// holds only read locks, so a single "did any local commit run" bit
	// would leak the latter. Shards in localWriteShards release inside
	// commitShard once their record is durable.
	if len(t.localLocks) > 0 {
		n.unlockLocalSet(c, t, localWriteShards)
	}
	if !remoteCovered {
		// The remote primary holds read locks but has no writes to commit:
		// release them explicitly.
		c.Send(t.shipTo, &wire.Abort{Header: wire.Header{TxnID: t.id, Src: uint8(n.id)}})
	}
	if len(byShard) == 0 {
		n.dropCtxn(t, wire.StatusOK)
	}
}

// --- local-transaction fast path (§4.2.4) ---

// coordLocalCommit finishes a host-executed local transaction: lock the
// write set in the NIC index, check the host-observed versions, then
// replicate and commit without any further host round trips.
func (n *Node) coordLocalCommit(c *nicrt.Core, m *wire.TxnRequest) {
	t := n.grabCtxn(m.TxnID)
	t.local = m
	n.openTxn(t)
	if n.cl.History() != nil {
		// The request carries the versions the host fast path observed; stash
		// them as the transaction's read set so its history record is
		// complete. Recording only — the version basis is never consulted on
		// this path, so behavior is unchanged.
		for _, rv := range m.LocalReadVers {
			t.SetRead(wire.KV{Key: rv.Key, Version: rv.Version})
		}
		for _, kv := range m.WriteSet {
			t.SetRead(wire.KV{Key: kv.Key, Version: kv.Version})
		}
	}

	// Lock write keys.
	n.chargeIndexOps(c, len(m.WriteSet))
	for _, kv := range m.WriteSet {
		s := n.place().ShardOf(kv.Key)
		if !n.serving(s) || !n.prim(s).index.TryLock(kv.Key, t.id) {
			t.Failed = wire.StatusAbortLocked
			n.abortTxn(c, t)
			return
		}
		t.AddLocks(s, kv.Key)
	}

	// Check every key the host observed (checkKey); t.checkFailed keeps
	// the first failure.
	t.Pending = 1
	n.chargeIndexOps(c, len(m.LocalReadVers)+len(m.WriteSet))
	for _, rv := range m.LocalReadVers {
		n.checkKey(c, t, rv.Key, rv.Version)
	}
	for _, kv := range m.WriteSet {
		n.checkKey(c, t, kv.Key, kv.Version)
	}
	n.keysChecked(c, t)
}
