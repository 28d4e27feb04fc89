package baseline

import (
	"fmt"
	"slices"

	"xenic/internal/chassis"
	"xenic/internal/hostrt"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// btxn is one in-flight transaction on a baseline coordinator thread.
type btxn struct {
	chassis.Txn  // header the chassis drives: ID, Desc, Start
	txnmodel.OCC // read set, lock sets, write set and fan-in, as on Xenic

	phase bphase
	// lockWave holds DrTM+H's deferred lock RPCs, one part per remote shard
	// in ascending shard order, issued once the one-sided value reads
	// complete ("retrieve the value, then lock", §5.2).
	lockWave []txnmodel.ExecPart
}

type bphase uint8

const (
	bExecute bphase = iota
	bValidate
	bLog
	bCommit
)

// newTxn allocates header and per-attempt state as one object.
func newTxn() *chassis.Txn {
	tx := &btxn{}
	tx.Attempt = tx
	return &tx.Txn
}

// reset readies tx for its next attempt. The lock RPCs of a wave hold its
// key lists, so only the wave's outer array is kept.
func (tx *btxn) reset() {
	tx.OCC.Reset()
	tx.phase = bExecute
	clear(tx.lockWave)
	tx.lockWave = tx.lockWave[:0]
}

// launch starts (or restarts) a transaction attempt.
func (n *Node) launch(t *hostrt.Thread, tx *btxn) {
	d := tx.Desc
	tx.Begin(d)
	var wbuf [16]uint64
	n.execPhase(t, tx, d.ReadKeys, d.AppendWriteKeys(wbuf[:0]))
}

// execPhase performs the execution-phase remote operations for the given
// keys, per the selected system's operation repertoire.
func (n *Node) execPhase(t *hostrt.Thread, tx *btxn, readKeys, lockKeys []uint64) {
	tx.phase = bExecute
	sys := n.cl.cfg.System

	// Group the keys by shard, each key once: locks first, so a key both
	// read and written is locked, not just read.
	var buf [8]txnmodel.ExecPart
	parts := buf[:0]
	for _, k := range lockKeys {
		if p := txnmodel.PartFor(&parts, n.shardOf(k)); !slices.Contains(p.Locks, k) {
			p.Locks = append(p.Locks, k)
		}
	}
	for _, k := range readKeys {
		if p := txnmodel.PartFor(&parts, n.shardOf(k)); !slices.Contains(p.Locks, k) && !slices.Contains(p.Reads, k) {
			p.Reads = append(p.Reads, k)
		}
	}

	// Count pending completion units first so inline local completion
	// cannot finish the phase before all ops are issued.
	tx.Pending = 0
	for _, p := range parts {
		if p.Shard == n.id || sys == FaSST {
			tx.Pending++
			continue
		}
		// One-sided verbs per key. DrTM+H's lock RPCs form a second wave
		// once the values (and versions) are in; DrTM+R locks then reads.
		tx.Pending += len(p.Reads) + len(p.Locks)
	}
	if tx.Pending == 0 {
		n.afterExec(t, tx)
		return
	}

	for _, p := range parts {
		if p.Shard == n.id {
			n.localExec(t, tx, p.Reads, p.Locks)
			continue
		}
		switch sys {
		case FaSST:
			n.rnic.Send(t, p.Shard, &wire.Execute{
				Header:   wire.Header{TxnID: tx.ID, Src: uint8(n.id)},
				ReadKeys: p.Reads, LockKeys: p.Locks,
			})
		case DrTMH, DrTMHNC:
			if len(p.Locks) > 0 {
				tx.lockWave = append(tx.lockWave, p)
			}
			for _, keys := range [2][]uint64{p.Reads, p.Locks} {
				for _, k := range keys {
					n.oneSidedLookup(t, tx, p.Shard, k)
				}
			}
		case DrTMR:
			// Lock-all: ATOMIC every key, then READ it.
			for _, keys := range [2][]uint64{p.Reads, p.Locks} {
				for _, k := range keys {
					n.atomicLockRead(t, tx, p.Shard, k)
				}
			}
		}
	}
}

// localExec performs the coordinator's local-shard portion directly.
func (n *Node) localExec(t *hostrt.Thread, tx *btxn, readKeys, lockKeys []uint64) {
	lockAll := n.cl.cfg.System == DrTMR
	if !n.lockLocal(t, tx, lockKeys) || lockAll && !n.lockLocal(t, tx, readKeys) {
		n.execUnit(t, tx, wire.StatusAbortLocked, nil, nil)
		return
	}
	var ibuf [8]wire.KV
	items := ibuf[:0]
	for _, keys := range [2][]uint64{readKeys, lockKeys} {
		for _, k := range keys {
			n.chargeLocal(t, k)
			if !lockAll && n.isLocked(k, tx.ID) {
				n.execUnit(t, tx, wire.StatusAbortLocked, nil, nil)
				return
			}
			v, ver, _ := n.primary.read(k)
			items = append(items, wire.KV{Key: k, Version: ver, Value: v})
		}
	}
	n.execUnit(t, tx, wire.StatusOK, nil, items)
}

// lockLocal takes the local lock word of each key for tx, stopping at the
// first one another transaction holds.
func (n *Node) lockLocal(t *hostrt.Thread, tx *btxn, keys []uint64) bool {
	for _, k := range keys {
		n.chargeLocal(t, k)
		if !n.tryLock(k, tx.ID) {
			return false
		}
		tx.AddLocks(n.id, k)
	}
	return true
}

// oneSidedLookup reads key at shard s with one-sided READs: one exact read
// with the address cache (DrTM+H), or a chained-bucket walk without it
// (DrTM+H NC, §5.1).
func (n *Node) oneSidedLookup(t *hostrt.Thread, tx *btxn, s int, key uint64) {
	target := n.cl.nodes[s]
	var kv wire.KV
	var lockedByOther bool
	if n.cl.cfg.System == DrTMH {
		n.rnic.ReadDyn(t, s, func() int {
			v, ver, _ := target.primary.read(key)
			kv = wire.KV{Key: key, Version: ver, Value: v}
			lockedByOther = target.isLocked(key, tx.ID)
			return objHeader + len(v)
		}, func() {
			st := wire.StatusOK
			if lockedByOther {
				st = wire.StatusAbortLocked
			}
			n.execUnit(t, tx, st, nil, []wire.KV{kv})
		})
		return
	}
	// NC: walk the chain, one roundtrip per bucket.
	hops := 0
	var rts int
	var step func()
	step = func() {
		n.rnic.ReadDyn(t, s, func() int {
			var per int
			rts, per = target.primary.lookupCost(key)
			if hops == 0 {
				v, ver, _ := target.primary.read(key)
				kv = wire.KV{Key: key, Version: ver, Value: v}
				lockedByOther = target.isLocked(key, tx.ID)
			}
			return per
		}, func() {
			hops++
			if hops < rts {
				step()
				return
			}
			st := wire.StatusOK
			if lockedByOther {
				st = wire.StatusAbortLocked
			}
			n.execUnit(t, tx, st, nil, []wire.KV{kv})
		})
	}
	step()
}

// atomicLockRead is DrTM+R's per-key lock-then-read.
func (n *Node) atomicLockRead(t *hostrt.Thread, tx *btxn, s int, key uint64) {
	target := n.cl.nodes[s]
	n.rnic.Atomic(t, s, func() bool {
		return target.tryLock(key, tx.ID)
	}, func(ok bool) {
		if !ok {
			n.execUnit(t, tx, wire.StatusAbortLocked, nil, nil)
			return
		}
		var kv wire.KV
		n.rnic.ReadDyn(t, s, func() int {
			v, ver, _ := target.primary.read(key)
			kv = wire.KV{Key: key, Version: ver, Value: v}
			return objHeader + len(v)
		}, func() {
			n.execUnit(t, tx, wire.StatusOK, []uint64{key}, []wire.KV{kv})
		})
	})
}

// onExecuteResp feeds an RPC execute response into the state machine.
func (n *Node) onExecuteResp(t *hostrt.Thread, m *wire.ExecuteResp) {
	tx := n.findTxn(m.TxnID, bExecute)
	if tx == nil {
		return
	}
	n.execUnit(t, tx, m.Status, m.Locked, m.Items)
}

func (n *Node) findTxn(id uint64, ph bphase) *btxn {
	if h := n.app.Lookup(id); h != nil {
		if tx := h.Attempt.(*btxn); tx.phase == ph {
			return tx
		}
	}
	return nil
}

// execUnit accumulates one execution-phase completion.
func (n *Node) execUnit(t *hostrt.Thread, tx *btxn, st wire.Status, locked []uint64, items []wire.KV) {
	shard := -1
	if len(locked) > 0 {
		shard = n.shardOf(locked[0]) // remote locks acquired on one shard
	}
	if !tx.Landed(st, shard, locked, items) {
		return
	}
	if tx.Failed != wire.StatusOK {
		n.abortTxn(t, tx) // the retry's reset drops any pending wave
		return
	}
	if len(tx.lockWave) > 0 {
		// Second wave (DrTM+H): lock-and-verify the write set now that the
		// one-sided reads supplied values and versions.
		wave := tx.lockWave
		tx.lockWave = wave[:0]
		tx.Pending = len(wave)
		for _, p := range wave {
			vers := make([]wire.KeyVer, len(p.Locks))
			for i, k := range p.Locks {
				kv, _ := tx.Read(k)
				vers[i] = wire.KeyVer{Key: k, Version: kv.Version}
			}
			n.rnic.Send(t, p.Shard, &wire.Execute{
				Header:   wire.Header{TxnID: tx.ID, Src: uint8(n.id)},
				LockKeys: p.Locks, LockOnly: true, LockVers: vers,
			})
		}
		return
	}
	n.afterExec(t, tx)
}

// afterExec runs the application logic at the host coordinator.
func (n *Node) afterExec(t *hostrt.Thread, tx *btxn) {
	if writes, ok := tx.Unstash(); ok {
		n.prepareCommit(t, tx, writes)
		return
	}
	d := tx.Desc
	if d.FnID == 0 {
		n.prepareCommit(t, tx, nil)
		return
	}
	fn, ok := n.cl.Registry().Get(d.FnID)
	if !ok {
		panic(fmt.Sprintf("baseline: unknown fn %d", d.FnID))
	}
	t.Charge(fn.HostCost)
	res := fn.Run(d.State, tx.ReadsInOrder(), nil)
	if res.Abort {
		tx.Failed = wire.StatusAbortMissing
		n.abortTxn(t, tx)
		return
	}
	if len(res.MoreReads) > 0 {
		tx.AddReadOrder(res.MoreReads)
		n.execPhase(t, tx, res.MoreReads, nil)
		return
	}
	n.prepareCommit(t, tx, res.Writes)
}

// prepareCommit versions the write set and moves to validation, after one
// more execution round when the function introduced unlocked write keys.
func (n *Node) prepareCommit(t *hostrt.Thread, tx *btxn, fnWrites []wire.KV) {
	if missing := tx.Prepare(n.cl.Placement(), fnWrites, tx.Desc.BlindWrites); missing != nil {
		n.execPhase(t, tx, nil, missing)
		return
	}
	n.validatePhase(t, tx)
}

// validatePhase re-checks read-set versions (§2.2.1 step 2). DrTM+R locked
// everything and skips it.
func (n *Node) validatePhase(t *hostrt.Thread, tx *btxn) {
	tx.phase = bValidate
	if n.cl.cfg.System == DrTMR {
		n.afterValidate(t, tx)
		return
	}
	var buf [8]txnmodel.ValPart
	parts, total := tx.Validation(n.cl.Placement(), tx.Desc.ReadOnly(), buf[:0])
	if total == 0 {
		n.afterValidate(t, tx)
		return
	}

	tx.Pending = 0
	for _, p := range parts {
		if p.Shard == n.id || n.cl.cfg.System == FaSST {
			tx.Pending++
		} else {
			tx.Pending += len(p.Items) // one-sided READ per key
		}
	}
	for _, p := range parts {
		if p.Shard == n.id {
			st := wire.StatusOK
			for _, it := range p.Items {
				n.chargeLocal(t, it.Key)
				if n.isLocked(it.Key, tx.ID) {
					st = wire.StatusAbortLocked
					break
				}
				_, ver, _ := n.primary.read(it.Key)
				if ver != it.Version {
					st = wire.StatusAbortVersion
					break
				}
			}
			n.validateUnit(t, tx, st)
			continue
		}
		if n.cl.cfg.System == FaSST {
			n.rnic.Send(t, p.Shard, &wire.Validate{
				Header: wire.Header{TxnID: tx.ID, Src: uint8(n.id)},
				Items:  p.Items,
			})
			continue
		}
		// One-sided validation READ per key (version + lock word).
		target := n.cl.nodes[p.Shard]
		for _, it := range p.Items {
			var ok bool
			n.rnic.ReadDyn(t, p.Shard, func() int {
				_, ver, _ := target.primary.read(it.Key)
				ok = ver == it.Version && !target.isLocked(it.Key, tx.ID)
				return objHeader
			}, func() {
				st := wire.StatusOK
				if !ok {
					st = wire.StatusAbortVersion
				}
				n.validateUnit(t, tx, st)
			})
		}
	}
}

func (n *Node) onValidateResp(t *hostrt.Thread, m *wire.ValidateResp) {
	tx := n.findTxn(m.TxnID, bValidate)
	if tx == nil {
		return
	}
	n.validateUnit(t, tx, m.Status)
}

func (n *Node) validateUnit(t *hostrt.Thread, tx *btxn, st wire.Status) {
	if !tx.Done(st) {
		return
	}
	if tx.Failed != wire.StatusOK {
		n.abortTxn(t, tx)
		return
	}
	n.afterValidate(t, tx)
}

func (n *Node) afterValidate(t *hostrt.Thread, tx *btxn) {
	if len(tx.Writes) == 0 {
		// Read-only: DrTM+R locked every key (lock-all) and must release
		// them; the validating systems hold no locks here.
		if n.cl.cfg.System == DrTMR {
			n.releaseLocks(t, tx)
		}
		n.commitTxn(t, tx)
		return
	}
	n.logPhase(t, tx)
}

// logPhase replicates write sets to backups: one-sided WRITEs (DrTM+H,
// DrTM+R) or RPCs (FaSST). The grouping serves the commit fan-out too.
func (n *Node) logPhase(t *hostrt.Thread, tx *btxn) {
	tx.phase = bLog
	tx.ByShard = txnmodel.GroupByShard(n.cl.Placement(), tx.Writes)
	tx.Pending = 0
	for _, g := range tx.ByShard {
		tx.Pending += len(n.cl.BackupsOf(g.Shard))
	}
	if tx.Pending == 0 {
		n.committed(t, tx)
		return
	}
	for _, g := range tx.ByShard {
		for _, b := range n.cl.BackupsOf(g.Shard) {
			if b == n.id {
				// Coordinator is a backup: append directly.
				for _, kv := range g.Writes {
					n.chargeLocal(t, kv.Key)
				}
				n.appendBackupRecord(tx.ID, g.Writes)
				n.logUnit(t, tx)
				continue
			}
			if n.cl.cfg.System == FaSST {
				n.rnic.Send(t, b, &wire.Log{
					Header: wire.Header{TxnID: tx.ID, Src: uint8(n.id)},
					Writes: g.Writes, RespondTo: uint8(n.id),
				})
				continue
			}
			backup := n.cl.nodes[b]
			n.rnic.Write(t, b, recordBytes(g.Writes), func() {
				backup.appendBackupRecord(tx.ID, g.Writes)
			}, func() {
				n.logUnit(t, tx)
			})
		}
	}
}

func (n *Node) onLogResp(t *hostrt.Thread, m *wire.LogResp) {
	tx := n.findTxn(m.TxnID, bLog)
	if tx == nil {
		return
	}
	n.logUnit(t, tx)
}

func (n *Node) logUnit(t *hostrt.Thread, tx *btxn) {
	if tx.Done(wire.StatusOK) {
		n.committed(t, tx)
	}
}

// committed reports the outcome, then applies at primaries.
func (n *Node) committed(t *hostrt.Thread, tx *btxn) {
	n.commitTxn(t, tx)
	tx.phase = bCommit
	for _, g := range tx.ByShard {
		if g.Shard == n.id {
			n.applyCommit(t, tx.ID, g.Writes)
			// Release any extra local locks (DrTM+R locked reads too).
			n.releaseExtraLocks(t, tx, n.id, g.Writes)
			continue
		}
		if n.cl.cfg.System == DrTMR {
			// One-sided commit: one WRITE per object (value + version +
			// lock word share a cache line).
			target := n.cl.nodes[g.Shard]
			for _, kv := range g.Writes {
				n.rnic.Write(t, g.Shard, objHeader+len(kv.Value), func() {
					target.primary.apply(kv.Key, kv.Value, kv.Version)
					target.unlockIf(kv.Key, tx.ID)
				}, func() {})
			}
			// Unlock read-only keys locked by lock-all.
			n.unlockReadLocks(t, tx, g.Shard)
			continue
		}
		n.rnic.Send(t, g.Shard, &wire.Commit{
			Header: wire.Header{TxnID: tx.ID, Src: uint8(n.id)},
			Writes: g.Writes,
		})
	}
	// Shards with read locks but no writes (DrTM+R) must be released too.
	if n.cl.cfg.System == DrTMR {
		for _, ls := range tx.Locked {
			if slices.ContainsFunc(tx.ByShard, func(g txnmodel.ShardWrites) bool { return g.Shard == ls.Shard }) {
				continue
			}
			if ls.Shard == n.id {
				n.releaseExtraLocks(t, tx, ls.Shard, nil)
				continue
			}
			n.unlockReadLocks(t, tx, ls.Shard)
		}
	}
}

// releaseExtraLocks unlocks locally-held locks not covered by applyCommit.
func (n *Node) releaseExtraLocks(t *hostrt.Thread, tx *btxn, s int, writes []wire.KV) {
	for _, k := range tx.LockedOn(s) {
		if _, written := txnmodel.LastKV(writes, k); !written {
			n.chargeLocal(t, k)
			n.unlock(k, tx.ID)
		}
	}
}

// unlockReadLocks releases DrTM+R read locks at a remote shard that the
// commit WRITEs did not cover.
func (n *Node) unlockReadLocks(t *hostrt.Thread, tx *btxn, s int) {
	target := n.cl.nodes[s]
	owner := tx.ID // capture: tx.ID is reassigned if the txn is retried
	for _, k := range tx.LockedOn(s) {
		if _, written := txnmodel.LastKV(tx.Writes, k); written {
			continue
		}
		n.rnic.Write(t, s, 8, func() {
			target.unlockIf(k, owner)
		}, func() {})
	}
}

func (n *Node) onCommitResp(t *hostrt.Thread, m *wire.CommitResp) {
	// Commit acks carry no further protocol action (outcome was reported
	// at log completion); state was already freed.
}

// abortTxn releases locks everywhere and retries.
func (n *Node) abortTxn(t *hostrt.Thread, tx *btxn) {
	n.releaseLocks(t, tx)
	st := tx.Failed
	if st == wire.StatusOK {
		st = wire.StatusAbortLocked
	}
	n.retryTxn(t, tx, st)
}

// releaseLocks unlocks every key tx holds: local ones directly, remote ones
// by one-sided unlock WRITEs (DrTM+R) or an ABORT RPC per shard. The RPC
// carries its shard's lock-key list, so that slot lets go of it.
func (n *Node) releaseLocks(t *hostrt.Thread, tx *btxn) {
	for i := range tx.Locked {
		ls := &tx.Locked[i]
		if ls.Shard == n.id {
			for _, k := range ls.Keys {
				n.chargeLocal(t, k)
				n.unlock(k, tx.ID)
			}
			continue
		}
		if n.cl.cfg.System == DrTMR {
			target := n.cl.nodes[ls.Shard]
			owner := tx.ID // capture: retryTxn reassigns tx.ID immediately
			for _, k := range ls.Keys {
				n.rnic.Write(t, ls.Shard, 8, func() {
					target.unlockIf(k, owner)
				}, func() {})
			}
			continue
		}
		n.rnic.Send(t, ls.Shard, &wire.Abort{
			Header:     wire.Header{TxnID: tx.ID, Src: uint8(n.id)},
			LockedKeys: ls.Keys,
		})
		ls.Keys = nil
	}
}
