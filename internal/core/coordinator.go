package core

import (
	"fmt"

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

type phase uint8

const (
	phExecute phase = iota
	phHostExec
	phValidate
	phLog
	phCommit
	phShipped

	numPhases = int(phShipped) + 1
)

// ctxn is one in-flight transaction's coordinator state, resident in
// SmartNIC memory.
type ctxn struct {
	id       uint64
	desc     *txnmodel.TxnDesc
	phase    phase
	phaseAt  sim.Time // when the current phase began (latency accounting)
	openedAt sim.Time // when the transaction opened (history recording)
	epoch    int      // bumped on every phase change; watchdog progress marker
	failed   wire.Status
	dead     bool // view change aborted this transaction; drop stragglers

	reads     map[uint64]wire.KV // accumulated read values (all shards)
	readOrder []uint64           // fn-input key order across execution rounds
	writes    []wire.KV          // final write set with new versions
	locked    map[int][]uint64   // locked keys per shard
	pending   int
	rounds    int
	nicExec   bool
	// cts is the MVCC commit timestamp assigned at the commit point
	// (0 = MVCC off or not yet committed).
	cts uint64
	// snapTS marks a read-only transaction on the lock-free snapshot path
	// (MVCC): every read resolves at this timestamp, no locks or validation.
	snapTS     uint64
	snapshot   bool
	snapClosed bool // GC-protection refcount released
	// relockStash holds execution output while an extra EXECUTE round
	// locks write keys the execution introduced.
	relockStash []wire.KV
	hasStash    bool

	// Shipped-path state.
	shipTo     int
	gotResult  bool
	expectLogs int
	logAcks    int
	shipped    *wire.ShipResult
	localLocks []uint64
}

func (n *Node) newCtxn(m *wire.TxnRequest) *ctxn {
	d := &txnmodel.TxnDesc{
		ReadKeys:    m.ReadKeys,
		UpdateKeys:  m.WriteKeys,
		BlindWrites: m.WriteSet,
		FnID:        m.FnID,
		State:       m.ExecState,
		NICExec:     m.Flags&wire.FlagNICExec != 0,
	}
	t := &ctxn{
		id:     m.TxnID,
		desc:   d,
		reads:  map[uint64]wire.KV{},
		locked: map[int][]uint64{},
	}
	seen := map[uint64]bool{}
	for _, k := range append(append([]uint64{}, d.ReadKeys...), d.WriteKeys()...) {
		if !seen[k] {
			seen[k] = true
			t.readOrder = append(t.readOrder, k)
		}
	}
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
	if t.desc.FnID == 0 && t.desc.ReadOnly() && n.cl.snapReady() {
		// MVCC read-only fast path: resolve every key at one snapshot
		// timestamp, lock-free and validation-free (DESIGN.md §12). During
		// fence episodes (recovery, promotion, rejoin) snapReady is false
		// and read-only transactions fall through to the OCC path.
		n.ctxns[t.id] = t
		n.openTxn(t)
		n.snapStart(c, t)
		return
	}
	t.nicExec = t.desc.NICExec && n.cl.cfg.Features.NICExecution && t.desc.FnID != 0
	n.ctxns[t.id] = t
	n.openTxn(t)

	// Coordinator-local B+tree blind writes (TPC-C order/order-line
	// inserts, district updates) are locked and version-checked in the NIC
	// index here; their values never need a NIC lookup.
	n.lockBlindBTree(c, t, func() {
		if t.failed != wire.StatusOK {
			n.abortTxn(c, t)
			return
		}
		if n.cl.cfg.Features.MultiHopOCC && t.desc.NICExec && t.desc.FnID != 0 {
			if dst, ok := n.shipTarget(t.desc); ok {
				n.shipTxn(c, t, dst)
				return
			}
		}
		n.execRound(c, t, t.desc.ReadKeys, n.execLockKeys(t.desc))
	})
}

// btreeVerifyBytes is the DMA payload for re-reading a B+tree row header
// (key + version) from host memory when the NIC index no longer tracks the
// key.
const btreeVerifyBytes = 32

// lockBlindBTree locks t's coordinator-local B+tree blind-write keys in the
// NIC index and validates the versions the host observed at generation
// time. The index is authoritative only while a lock or a commit pin keeps
// the entry resident; once the host applies the logged write the entry is
// dropped, so for untracked keys the NIC must DMA-read the row header from
// the host B+tree. Trusting the generation-time observation there loses
// updates: a concurrent writer may have committed and been applied since
// the host read the row. Calls then once every key is locked and verified
// (t.failed holds the first failure).
func (n *Node) lockBlindBTree(c *nicrt.Core, t *ctxn, then func()) {
	pending := 1
	finish := func() {
		pending--
		if pending == 0 && !t.dead {
			then()
		}
	}
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
			t.failed = wire.StatusAbortLocked
		} else {
			t.locked[shard] = append(t.locked[shard], kv.Key)
		}
		t.reads[kv.Key] = wire.KV{Key: kv.Key, Version: kv.Version}
		if t.failed != wire.StatusOK {
			continue
		}
		if v, known := p.index.VersionOf(kv.Key); known {
			if v != kv.Version {
				t.failed = wire.StatusAbortVersion
			}
			continue
		}
		kv := kv
		pending++
		c.DMARead([]int{btreeVerifyBytes}, func() {
			if t.dead {
				return
			}
			_, ver, ok := p.data.Read(kv.Key)
			if stale := ok && ver != kv.Version || !ok && kv.Version != 0; stale &&
				t.failed == wire.StatusOK {
				t.failed = wire.StatusAbortVersion
			}
			finish()
		})
	}
	finish()
}

// execLockKeys lists the write keys locked through EXECUTE rounds: all
// partitioned-hash keys, plus B+tree keys whose shard this node no longer
// serves as primary — after a rejoin the stable-primary rule leaves the
// old shard with the promoted node, so the rejoiner's B+tree writes lock
// remotely like any other key. (Coordinator-local B+tree blind writes are
// still locked directly in lockBlindBTree.)
func (n *Node) execLockKeys(d *txnmodel.TxnDesc) []uint64 {
	var out []uint64
	for _, k := range d.WriteKeys() {
		if !n.place().IsBTree(k) || n.primaryNode(n.place().ShardOf(k)) != n.id {
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
	for _, k := range append(append([]uint64{}, d.ReadKeys...), d.WriteKeys()...) {
		dst := n.primaryNode(n.place().ShardOf(k))
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
	type part struct{ reads, locks []uint64 }
	parts := map[int]*part{}
	shardPart := func(s int) *part {
		p, ok := parts[s]
		if !ok {
			p = &part{}
			parts[s] = p
		}
		return p
	}
	for _, k := range readKeys {
		p := shardPart(n.place().ShardOf(k))
		p.reads = append(p.reads, k)
	}
	for _, k := range lockKeys {
		p := shardPart(n.place().ShardOf(k))
		p.locks = append(p.locks, k)
	}

	smart := n.cl.cfg.Features.SmartRemoteOps
	var shards []int
	for s := range parts {
		shards = append(shards, s)
	}
	sortInts(shards)
	type op struct {
		shard        int
		reads, locks []uint64
	}
	var ops []op
	for _, s := range shards {
		p := parts[s]
		if smart {
			ops = append(ops, op{s, p.reads, p.locks})
			continue
		}
		for _, k := range p.reads {
			ops = append(ops, op{s, []uint64{k}, nil})
		}
		for _, k := range p.locks {
			ops = append(ops, op{s, nil, []uint64{k}})
		}
	}
	t.pending = len(ops)
	if t.pending == 0 {
		n.afterExec(c, t)
		return
	}
	for _, o := range ops {
		o := o
		dst := n.primaryNode(o.shard)
		if dst == n.id {
			n.serverExecute(c, o.shard, t.id, o.reads, o.locks, func(st wire.Status, items []wire.KV) {
				var locks []uint64
				if st == wire.StatusOK {
					locks = o.locks
				}
				n.coordExecPart(c, t, o.shard, locks, st, items)
			})
			continue
		}
		c.Send(dst, &wire.Execute{
			Header:   wire.Header{TxnID: t.id, Src: uint8(n.id)},
			ReadKeys: o.reads, LockKeys: o.locks,
		})
	}
}

// coordExecuteResp routes a remote EXECUTE response into the state machine.
// The response echoes the keys it locked (nothing stays locked on abort).
func (n *Node) coordExecuteResp(c *nicrt.Core, m *wire.ExecuteResp) {
	t, ok := n.ctxns[m.TxnID]
	if !ok || t.phase != phExecute {
		if !ok && m.Status == wire.StatusOK && len(m.Locked) > 0 {
			// Straggler from a view-change abort: release its locks.
			c.Send(int(m.Src), &wire.Abort{
				Header:     wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
				LockedKeys: m.Locked,
			})
		}
		return
	}
	shard := -1
	if len(m.Locked) > 0 {
		shard = n.place().ShardOf(m.Locked[0])
	}
	n.coordExecPart(c, t, shard, m.Locked, m.Status, m.Items)
}

// coordExecPart accumulates one EXECUTE unit's outcome.
func (n *Node) coordExecPart(c *nicrt.Core, t *ctxn, shard int, locks []uint64,
	st wire.Status, items []wire.KV) {

	if t.dead {
		// A view-change abort swept t.locked while this local EXECUTE unit
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
	if st == wire.StatusOK {
		if len(locks) > 0 {
			t.locked[shard] = append(t.locked[shard], locks...)
		}
		for _, kv := range items {
			t.reads[kv.Key] = kv
		}
	} else if t.failed == wire.StatusOK {
		t.failed = st
	}
	t.pending--
	if t.pending > 0 {
		return
	}
	if t.failed != wire.StatusOK {
		n.abortTxn(c, t)
		return
	}
	n.afterExec(c, t)
}

// afterExec runs once all EXECUTE responses are in: execute on the NIC
// (§4.2.2) or round-trip to the host.
func (n *Node) afterExec(c *nicrt.Core, t *ctxn) {
	if t.hasStash {
		// This round existed only to lock execution-introduced write keys.
		writes := t.relockStash
		t.relockStash, t.hasStash = nil, false
		n.prepareCommit(c, t, writes)
		return
	}
	t.rounds++
	if t.nicExec {
		fn, ok := n.cl.Registry().Get(t.desc.FnID)
		if !ok {
			panic(fmt.Sprintf("core: unknown fn %d", t.desc.FnID))
		}
		reads := n.readsInOrder(t)
		c.Charge(n.cl.cfg.Params.HostScaled(fn.HostCost))
		res := fn.Run(t.desc.State, reads)
		if res.Abort {
			t.failed = wire.StatusAbortMissing
			n.abortTxn(c, t)
			return
		}
		if len(res.MoreReads) > 0 {
			t.addReadOrder(res.MoreReads)
			n.execRound(c, t, res.MoreReads, nil)
			return
		}
		n.prepareCommit(c, t, res.Writes)
		return
	}
	n.setPhase(t, phHostExec)
	c.SendHost(&wire.ReadReturn{
		Header: wire.Header{TxnID: t.id, Src: uint8(n.id)},
		Items:  n.readsInOrder(t),
	})
}

// readsInOrder assembles execution input in (ReadKeys ++ UpdateKeys ++
// later rounds) order.
func (n *Node) readsInOrder(t *ctxn) []wire.KV {
	out := make([]wire.KV, len(t.readOrder))
	for i, k := range t.readOrder {
		if kv, ok := t.reads[k]; ok {
			out[i] = kv
		} else {
			out[i] = wire.KV{Key: k}
		}
	}
	return out
}

// addReadOrder appends newly requested read keys for later rounds.
func (t *ctxn) addReadOrder(keys []uint64) {
	have := map[uint64]bool{}
	for _, k := range t.readOrder {
		have[k] = true
	}
	for _, k := range keys {
		if !have[k] {
			have[k] = true
			t.readOrder = append(t.readOrder, k)
		}
	}
}

// coordWriteSet resumes with host-computed writes (§4.2 step 3).
func (n *Node) coordWriteSet(c *nicrt.Core, m *wire.WriteSet) {
	t, ok := n.ctxns[m.TxnID]
	if !ok || t.phase != phHostExec {
		return
	}
	if m.Abort {
		t.failed = wire.StatusAbortMissing
		n.abortTxn(c, t)
		return
	}
	if len(m.MoreReads) > 0 {
		t.writes = append(t.writes, m.Writes...)
		t.addReadOrder(m.MoreReads)
		n.execRound(c, t, m.MoreReads, nil)
		return
	}
	n.prepareCommit(c, t, append(t.writes, m.Writes...))
}

// prepareCommit assigns versions, locks any write keys the execution
// introduced, and moves to validation.
func (n *Node) prepareCommit(c *nicrt.Core, t *ctxn, fnWrites []wire.KV) {
	writes := append(fnWrites, t.desc.BlindWrites...)
	// Lock any write keys not yet locked (execution-introduced writes).
	var missing []uint64
	seen := map[uint64]bool{}
	for _, kv := range writes {
		if seen[kv.Key] {
			continue
		}
		seen[kv.Key] = true
		if !n.keyLocked(t, kv.Key) {
			missing = append(missing, kv.Key)
		}
	}
	if len(missing) > 0 {
		// Lock execution-introduced write keys via one more EXECUTE round
		// before validating; afterExec re-enters prepareCommit with the
		// stashed output. Locking the keys also reads their current
		// versions, which versionWrites needs.
		t.relockStash = fnWrites
		t.hasStash = true
		n.execRound(c, t, nil, missing)
		return
	}
	versionWrites(writes, versionBasis(t))
	t.writes = writes
	n.validate(c, t)
}

// versionBasis lists every (key, observed version) the transaction read or
// locked, as the basis for successor version assignment.
func versionBasis(t *ctxn) []wire.KV {
	out := make([]wire.KV, 0, len(t.reads))
	for _, kv := range t.reads {
		out = append(out, kv)
	}
	return out
}

func (n *Node) keyLocked(t *ctxn, key uint64) bool {
	s := n.place().ShardOf(key)
	for _, k := range t.locked[s] {
		if k == key {
			return true
		}
	}
	return false
}

// validate issues VALIDATE operations for read-set keys not covered by
// write locks (§4.2 step 4). Read-only single-key transactions skip it:
// their single read is already atomic.
func (n *Node) validate(c *nicrt.Core, t *ctxn) {
	n.setPhase(t, phValidate)
	if mutSkipValidation {
		n.afterValidate(c, t)
		return
	}
	writeKeys := map[uint64]bool{}
	for _, kv := range t.writes {
		writeKeys[kv.Key] = true
	}
	byShard := map[int][]wire.KeyVer{}
	var shards []int
	total := 0
	for _, kv := range n.readsInOrder(t) { // deterministic order
		if writeKeys[kv.Key] {
			continue
		}
		s := n.place().ShardOf(kv.Key)
		if _, ok := byShard[s]; !ok {
			shards = append(shards, s)
		}
		byShard[s] = append(byShard[s], wire.KeyVer{Key: kv.Key, Version: kv.Version})
		total++
	}
	if total == 0 || (t.desc.ReadOnly() && total == 1 && len(t.writes) == 0) {
		n.afterValidate(c, t)
		return
	}
	sortInts(shards)
	smart := n.cl.cfg.Features.SmartRemoteOps
	type vop struct {
		shard int
		items []wire.KeyVer
	}
	var ops []vop
	for _, s := range shards {
		items := byShard[s]
		if smart {
			ops = append(ops, vop{s, items})
			continue
		}
		for _, it := range items {
			ops = append(ops, vop{s, []wire.KeyVer{it}})
		}
	}
	t.pending = len(ops)
	for _, o := range ops {
		dst := n.primaryNode(o.shard)
		if dst == n.id {
			n.serverValidate(c, o.shard, t.id, o.items, func(st wire.Status) {
				n.coordValidatePart(c, t, st)
			})
			continue
		}
		c.Send(dst, &wire.Validate{
			Header: wire.Header{TxnID: t.id, Src: uint8(n.id)},
			Items:  o.items,
		})
	}
}

func (n *Node) coordValidateResp(c *nicrt.Core, m *wire.ValidateResp) {
	t, ok := n.ctxns[m.TxnID]
	if !ok || t.phase != phValidate {
		return
	}
	n.coordValidatePart(c, t, m.Status)
}

func (n *Node) coordValidatePart(c *nicrt.Core, t *ctxn, st wire.Status) {
	if t.dead {
		return
	}
	if st != wire.StatusOK && t.failed == wire.StatusOK {
		t.failed = st
	}
	t.pending--
	if t.pending > 0 {
		return
	}
	if t.failed != wire.StatusOK {
		n.abortTxn(c, t)
		return
	}
	n.afterValidate(c, t)
}

func (n *Node) afterValidate(c *nicrt.Core, t *ctxn) {
	if len(t.writes) == 0 {
		// Read-only transaction completes after validation (§4.2 step 5).
		n.recordCommit(t, nil)
		n.finishTxn(c, t, wire.StatusOK)
		n.closeTxn(t, wire.StatusOK)
		delete(n.ctxns, t.id)
		return
	}
	n.logPhase(c, t)
}

// logPhase replicates the write set to every surviving backup of every
// write shard (§4.2 step 5).
func (n *Node) logPhase(c *nicrt.Core, t *ctxn) {
	// Validation succeeded: this transaction's outcome is decided, so its
	// hot-key claims can release now instead of at close. A waiter admitted
	// here overlaps its read round with this transaction's log/commit tail
	// (by the time it reaches validation the writes are applied), restoring
	// the phase overlap OCC gets for free while still keeping conflicters
	// out of the owner's execute/validate window. closeTxn's release is a
	// no-op after this one.
	n.nic.SchedDone(t.id)
	n.setPhase(t, phLog)
	if mutUnlockBeforeLog {
		n.mutReleaseLocks(c, t)
	}
	byShard := groupByShard(n.place(), t.writes)
	t.pending = 0
	for _, sw := range byShard {
		t.pending += len(n.cl.viewBackups(sw.shard))
	}
	if t.pending == 0 {
		// Replication factor 1 (or all backups lost): commit directly.
		n.committed(c, t)
		return
	}
	for _, sw := range byShard {
		for _, b := range n.cl.viewBackups(sw.shard) {
			if b == n.id {
				sw := sw
				n.appendLog(c, recBackup, t.id, sw.shard, sw.writes, func(uint64) {
					n.coordLogPart(c, t)
				})
				continue
			}
			c.Send(b, &wire.Log{
				Header:    wire.Header{TxnID: t.id, Src: uint8(n.id)},
				RespondTo: uint8(n.id),
				Writes:    sw.writes,
			})
		}
	}
}

func (n *Node) coordLogResp(c *nicrt.Core, m *wire.LogResp) {
	t, ok := n.ctxns[m.TxnID]
	if !ok {
		return
	}
	if t.phase == phShipped {
		t.logAcks++
		n.maybeFinishShipped(c, t)
		return
	}
	if t.phase != phLog {
		return
	}
	n.coordLogPart(c, t)
}

func (n *Node) coordLogPart(c *nicrt.Core, t *ctxn) {
	if t.dead {
		return
	}
	t.pending--
	if t.pending > 0 {
		return
	}
	n.committed(c, t)
}

// notifyLogCommits tells every backup that logged this transaction's
// records that the commit point was reached, so they apply the records
// (and recovery can tell decided records from undecided ones).
func (n *Node) notifyLogCommits(c *nicrt.Core, txn uint64, writes []wire.KV, cts uint64) {
	for _, sw := range groupByShard(n.place(), writes) {
		for _, b := range n.cl.viewBackups(sw.shard) {
			if b == n.id {
				n.log.markCommitted(txn, sw.shard, cts)
				n.wakeWorkers()
				continue
			}
			c.Send(b, &wire.LogCommit{
				Header: wire.Header{TxnID: txn, Src: uint8(n.id)},
				Shard:  uint8(sw.shard), CTS: cts,
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

// committed reports the outcome to the host, then applies the write set at
// each primary (§4.2 step 6). The commit phase is off the latency path.
func (n *Node) committed(c *nicrt.Core, t *ctxn) {
	t.cts = n.assignCTS(t.id, t.writes)
	n.recordCommit(t, t.writes)
	n.finishTxn(c, t, wire.StatusOK)
	n.notifyLogCommits(c, t.id, t.writes, t.cts)
	n.setPhase(t, phCommit)
	byShard := groupByShard(n.place(), t.writes)
	t.pending = len(byShard)
	for _, sw := range byShard {
		dst := n.primaryNode(sw.shard)
		if dst == n.id {
			unlock := t.locked[sw.shard]
			n.commitShard(c, sw.shard, t.id, sw.writes, unlock, t.cts, func() {
				n.coordCommitPart(c, t)
			})
			continue
		}
		c.Send(dst, &wire.Commit{
			Header: wire.Header{TxnID: t.id, Src: uint8(n.id)},
			Writes: sw.writes, CTS: t.cts,
		})
	}
}

func (n *Node) coordCommitResp(c *nicrt.Core, m *wire.CommitResp) {
	t, ok := n.ctxns[m.TxnID]
	if !ok || t.phase != phCommit {
		return
	}
	n.coordCommitPart(c, t)
}

func (n *Node) coordCommitPart(c *nicrt.Core, t *ctxn) {
	if t.dead {
		return
	}
	t.pending--
	if t.pending > 0 {
		return
	}
	n.closeTxn(t, wire.StatusOK)
	delete(n.ctxns, t.id)
}

// abortTxn releases all locks and reports the abort to the host.
func (n *Node) abortTxn(c *nicrt.Core, t *ctxn) {
	n.snapClose(t) // snapshot reads hold no locks, only the GC refcount
	var shards []int
	for s := range t.locked {
		shards = append(shards, s)
	}
	sortInts(shards)
	for _, s := range shards {
		keys := t.locked[s]
		if len(keys) == 0 {
			continue
		}
		dst := n.primaryNode(s)
		if dst == n.id {
			n.chargeIndexOps(c, len(keys))
			idx := n.prim(s).index
			for _, k := range keys {
				idx.Unlock(k, t.id)
			}
			continue
		}
		c.Send(dst, &wire.Abort{
			Header:     wire.Header{TxnID: t.id, Src: uint8(n.id)},
			LockedKeys: keys,
		})
	}
	if t.phase == phLog {
		// The abort interrupted log replication (only a view change can do
		// that), so backups may hold undecided records. Announce the abort
		// like notifyLogCommits announces commits: without it a backup
		// promoted to primary parks the record in pendingDecide and keeps
		// the write set locked waiting for a decision that never comes.
		for _, sw := range groupByShard(n.place(), t.writes) {
			for _, b := range n.cl.replicasOf(sw.shard) {
				if b == n.id {
					n.log.drop(t.id, sw.shard)
					continue
				}
				c.Send(b, &wire.RecoveryDecide{
					Header: wire.Header{TxnID: t.id, Src: uint8(n.id)},
					Shard:  uint8(sw.shard), Commit: false,
				})
			}
		}
	}
	n.recordAbort(t, t.failed)
	n.traceAbort(t)
	n.finishTxn(c, t, t.failed)
	n.closeTxn(t, t.failed)
	delete(n.ctxns, t.id)
}

// --- coordinator watchdog (fault runs) ---
//
// Drops, partitions, and stalls can leave a coordinated transaction parked
// in a fan-out phase holding remote locks. The reliable transport eventually
// delivers every frame between live nodes, so the watchdog is a lock-hold
// bound, not a correctness mechanism: when a transaction sits in EXECUTE or
// VALIDATE past the plan's TxnTimeout without a phase change, it is aborted
// (StatusAbortTimeout) and retried by the application with backoff. Later
// phases are excluded — host execution always progresses locally, and past
// the commit point the outcome must stand (delivery to live nodes is
// guaranteed; dead nodes are handled by view-change recovery).

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
	if t.epoch != epoch || (t.phase != phExecute && t.phase != phValidate) {
		epoch := t.epoch
		n.cl.Engine().After(d, func() { n.checkWatchdog(id, epoch, d) })
		return
	}
	n.nic.Inject(n.nic.CoreFor(id), func(c *nicrt.Core) {
		t, ok := n.ctxns[id]
		if !ok || t.dead {
			return
		}
		if t.epoch != epoch || (t.phase != phExecute && t.phase != phValidate) {
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
		t.failed = wire.StatusAbortTimeout
		// Anything still pending (local async lookups, remote responses)
		// must land as a straggler, exactly as after a view-change abort.
		t.dead = true
		n.abortTxn(c, t)
	})
}

// finishTxn reports a transaction outcome to the host application.
func (n *Node) finishTxn(c *nicrt.Core, t *ctxn, st wire.Status) {
	done := &wire.TxnDone{
		Header: wire.Header{TxnID: t.id, Src: uint8(n.id)},
		Status: st,
	}
	if t.nicExec && st == wire.StatusOK {
		done.ReadSet = n.readsInOrder(t)
	}
	c.SendHost(done)
}

// shedTxn reports a scheduler-shed transaction back to the host as an
// abort. The transaction never started — the scheduler parked it past its
// shed deadline, so there is no ctxn and no locks to release; the host
// retries it with backoff like any other abort.
func (n *Node) shedTxn(c *nicrt.Core, req *wire.TxnRequest) {
	n.dbgEvt(req.TxnID, "shedTxn (scheduler shed)")
	c.SendHost(&wire.TxnDone{
		Header: wire.Header{TxnID: req.TxnID, Src: uint8(n.id)},
		Status: wire.StatusAbortSched,
	})
}

// --- shipped path (§4.2.3) ---

// shipTxn locks and reads the local part at this coordinator NIC, then
// ships execution to the remote primary node.
func (n *Node) shipTxn(c *nicrt.Core, t *ctxn, dst int) {
	n.setPhase(t, phShipped)
	t.shipTo = dst

	// Lock-all on local keys (reads too: the shipped path skips
	// validation). B+tree blind keys were already locked in coordStart.
	already := map[uint64]bool{}
	for _, ks := range t.locked {
		for _, k := range ks {
			already[k] = true
		}
	}
	var localKeys []uint64
	seen := map[uint64]bool{}
	for _, k := range append(append([]uint64{}, t.desc.ReadKeys...), t.desc.WriteKeys()...) {
		s := n.place().ShardOf(k)
		if n.primaryNode(s) == n.id && !seen[k] {
			seen[k] = true
			localKeys = append(localKeys, k)
		}
	}
	n.chargeIndexOps(c, len(localKeys))
	for _, k := range localKeys {
		if already[k] {
			continue
		}
		s := n.place().ShardOf(k)
		if !n.serving(s) {
			t.failed = wire.StatusAbortLocked
			n.abortTxn(c, t)
			return
		}
		if !n.prim(s).index.TryLock(k, t.id) {
			t.failed = wire.StatusAbortLocked
			n.abortTxn(c, t)
			return
		}
		t.locked[s] = append(t.locked[s], k)
	}
	t.localLocks = localKeys

	// Read local values, then ship. B+tree keys' versions are already in
	// t.reads (observed at the host); hash keys resolve via the index.
	localReads := make([]wire.KV, len(localKeys))
	pending := 0
	send := func() {
		c.Send(dst, &wire.ShipExec{
			Header:     wire.Header{TxnID: t.id, Src: uint8(n.id)},
			FnID:       t.desc.FnID,
			Coord:      uint8(n.id),
			ReadKeys:   t.desc.ReadKeys,
			WriteKeys:  t.desc.WriteKeys(),
			WriteSet:   t.desc.BlindWrites,
			ExecState:  t.desc.State,
			LocalReads: localReads,
		})
	}
	var hashIdx []int
	for i, k := range localKeys {
		if n.place().IsBTree(k) {
			localReads[i] = t.reads[k]
		} else {
			hashIdx = append(hashIdx, i)
		}
	}
	pending = len(hashIdx)
	if pending == 0 {
		send()
		return
	}
	for _, i := range hashIdx {
		i, k := i, localKeys[i]
		s := n.place().ShardOf(k)
		n.lookupAsync(c, s, k, func(res nicindex.Result) {
			localReads[i] = wire.KV{Key: k, Version: res.Version, Value: res.Value}
			t.reads[k] = localReads[i]
			pending--
			if pending == 0 && !t.dead {
				send()
			}
		})
	}
}

func (n *Node) coordShipResult(c *nicrt.Core, m *wire.ShipResult) {
	t, ok := n.ctxns[m.TxnID]
	if !ok || t.phase != phShipped {
		if ok || m.Status != wire.StatusOK {
			return
		}
		// Straggler: the transaction was aborted by a view change while
		// the shipped execution was in flight. Release the remote lock-all
		// state and drop the backup records it fanned out.
		c.Send(int(m.Src), &wire.Abort{Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)}})
		for _, sw := range groupByShard(n.place(), m.Writes) {
			for _, b := range n.cl.replicasOf(sw.shard) {
				if b == n.id {
					n.log.drop(m.TxnID, sw.shard)
					continue
				}
				c.Send(b, &wire.RecoveryDecide{
					Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
					Shard:  uint8(sw.shard), Commit: false,
				})
			}
		}
		return
	}
	if m.Status != wire.StatusOK {
		n.unlockLocalSet(c, t, nil)
		t.failed = m.Status
		n.recordAbort(t, m.Status)
		n.traceAbort(t)
		n.finishTxn(c, t, m.Status)
		n.closeTxn(t, m.Status)
		delete(n.ctxns, t.id)
		return
	}
	t.gotResult = true
	t.shipped = m
	t.expectLogs = int(m.NumLogs)
	n.maybeFinishShipped(c, t)
}

// unlockLocalSet releases every locally-held lock of t, except on shards in
// skip (whose locks a pending commitShard releases after durability).
func (n *Node) unlockLocalSet(c *nicrt.Core, t *ctxn, skip map[int]bool) {
	var shards []int
	for s := range t.locked {
		shards = append(shards, s)
	}
	sortInts(shards)
	for _, s := range shards {
		if skip[s] || n.primaryNode(s) != n.id {
			continue
		}
		idx := n.prim(s).index
		n.chargeIndexOps(c, len(t.locked[s]))
		for _, k := range t.locked[s] {
			idx.Unlock(k, t.id)
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
		t.reads[kv.Key] = kv
	}
	t.nicExec = true // results return with TxnDone
	t.cts = n.assignCTS(t.id, t.shipped.Writes)
	n.recordCommit(t, t.shipped.Writes)
	n.finishTxn(c, t, wire.StatusOK)
	n.notifyLogCommits(c, t.id, t.shipped.Writes, t.cts)

	byShard := groupByShard(n.place(), t.shipped.Writes)
	n.setPhase(t, phCommit)
	t.pending = 0
	localWriteShards := map[int]bool{}
	remoteCovered := false
	for _, sw := range byShard {
		dst := n.primaryNode(sw.shard)
		t.pending++
		if dst == n.id {
			localWriteShards[sw.shard] = true
			n.commitShard(c, sw.shard, t.id, sw.writes, t.locked[sw.shard], t.cts, func() {
				n.coordCommitPart(c, t)
			})
			continue
		}
		if dst == t.shipTo {
			remoteCovered = true
		}
		c.Send(dst, &wire.Commit{
			Header: wire.Header{TxnID: t.id, Src: uint8(n.id)},
			Writes: sw.writes, CTS: t.cts,
		})
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
	if t.pending == 0 {
		n.closeTxn(t, wire.StatusOK)
		delete(n.ctxns, t.id)
	}
}

// --- local-transaction fast path (§4.2.4) ---

// coordLocalCommit finishes a host-executed local transaction: lock the
// write set in the NIC index, validate the host-observed versions, then
// replicate and commit without any further host round trips.
func (n *Node) coordLocalCommit(c *nicrt.Core, m *wire.TxnRequest) {
	t := &ctxn{
		id:     m.TxnID,
		desc:   &txnmodel.TxnDesc{},
		reads:  map[uint64]wire.KV{},
		locked: map[int][]uint64{},
	}
	n.ctxns[t.id] = t
	n.openTxn(t)
	if n.cl.History() != nil {
		// The request carries the versions the host fast path observed; stash
		// them as the transaction's read set so its history record is
		// complete. Recording only — versionBasis is never consulted on this
		// path, so behavior is unchanged.
		for _, rv := range m.LocalReadVers {
			t.reads[rv.Key] = wire.KV{Key: rv.Key, Version: rv.Version}
		}
		for _, kv := range m.WriteSet {
			t.reads[kv.Key] = wire.KV{Key: kv.Key, Version: kv.Version}
		}
	}

	abort := func(st wire.Status) {
		t.failed = st
		n.abortTxn(c, t)
	}

	// Lock write keys.
	n.chargeIndexOps(c, len(m.WriteSet))
	for _, kv := range m.WriteSet {
		s := n.place().ShardOf(kv.Key)
		if !n.serving(s) {
			abort(wire.StatusAbortLocked)
			return
		}
		if !n.prim(s).index.TryLock(kv.Key, t.id) {
			abort(wire.StatusAbortLocked)
			return
		}
		t.locked[s] = append(t.locked[s], kv.Key)
	}

	// Validate: the NIC index is authoritative for versions it knows
	// (committed-but-unapplied writes are pinned there); keys it no longer
	// tracks are re-read from the authoritative host store. The versions
	// the host observed are from submit time and may predate a commit that
	// has been applied since — trusting them unchecked loses updates.
	failed := wire.StatusOK
	fail := func(st wire.Status) {
		if failed == wire.StatusOK {
			failed = st
		}
	}
	pending := 1
	finish := func() {
		pending--
		if pending != 0 || t.dead {
			return
		}
		if failed != wire.StatusOK {
			abort(failed)
			return
		}
		writes := make([]wire.KV, len(m.WriteSet))
		for i, kv := range m.WriteSet {
			writes[i] = wire.KV{Key: kv.Key, Version: kv.Version + 1, Value: kv.Value}
		}
		t.writes = writes
		n.logPhase(c, t)
	}
	check := func(key uint64, ver uint64) {
		s := n.place().ShardOf(key)
		idx := n.prim(s).index
		if idx.IsLocked(key, t.id) {
			fail(wire.StatusAbortVersion)
			return
		}
		if v, known := idx.VersionOf(key); known {
			if v != ver {
				fail(wire.StatusAbortVersion)
			}
			return
		}
		pending++
		if n.place().IsBTree(key) {
			c.DMARead([]int{btreeVerifyBytes}, func() {
				if t.dead {
					return
				}
				_, v, ok := n.prim(s).data.Read(key)
				if ok && v != ver || !ok && ver != 0 {
					fail(wire.StatusAbortVersion)
				}
				finish()
			})
			return
		}
		n.lookupAsync(c, s, key, func(res nicindex.Result) {
			if t.dead {
				return
			}
			if res.Version != ver {
				fail(wire.StatusAbortVersion)
			}
			finish()
		})
	}
	n.chargeIndexOps(c, len(m.LocalReadVers)+len(m.WriteSet))
	for _, rv := range m.LocalReadVers {
		check(rv.Key, rv.Version)
	}
	for _, kv := range m.WriteSet {
		check(kv.Key, kv.Version)
	}
	finish()
}
