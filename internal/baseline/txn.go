package baseline

import (
	"fmt"

	"xenic/internal/chassis"
	"xenic/internal/hostrt"
	"xenic/internal/wire"
)

// btxn is one in-flight transaction on a baseline coordinator thread.
type btxn struct {
	chassis.Txn // header the chassis drives: ID, Desc, Start

	phase     bphase
	reads     map[uint64]wire.KV
	readOrder []uint64
	writes    []wire.KV
	locked    map[int][]uint64
	pending   int
	failed    wire.Status
	stash     []wire.KV // fn output awaiting a relock round
	hasStash  bool
	rounds    int
	// lockWave holds DrTM+H's deferred per-shard lock RPCs, issued once
	// the one-sided value reads complete ("retrieve the value, then
	// lock", §5.2).
	lockWave map[int][]uint64
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

func (tx *btxn) reset() {
	tx.phase = bExecute
	tx.reads = nil
	tx.readOrder = nil
	tx.writes = nil
	tx.locked = nil
	tx.pending = 0
	tx.failed = wire.StatusOK
	tx.stash = nil
	tx.hasStash = false
	tx.rounds = 0
	tx.lockWave = nil
}

// launch starts (or restarts) a transaction attempt.
func (n *Node) launch(t *hostrt.Thread, tx *btxn) {
	d := tx.Desc
	tx.reads = map[uint64]wire.KV{}
	tx.locked = map[int][]uint64{}
	seen := map[uint64]bool{}
	for i := 0; i < d.NumKeys(); i++ {
		if k := d.Key(i); !seen[k] {
			seen[k] = true
			tx.readOrder = append(tx.readOrder, k)
		}
	}
	n.execPhase(t, tx, d.ReadKeys, d.AppendWriteKeys(make([]uint64, 0, d.NumWriteKeys())))
}

// execPhase performs the execution-phase remote operations for the given
// keys, per the selected system's operation repertoire.
func (n *Node) execPhase(t *hostrt.Thread, tx *btxn, readKeys, lockKeys []uint64) {
	tx.phase = bExecute
	sys := n.cl.cfg.System

	type part struct{ reads, locks []uint64 }
	parts := map[int]*part{}
	var order []int
	seen := map[uint64]bool{}
	add := func(k uint64, lock bool) {
		if seen[k] {
			return // duplicate key in the descriptor (lock wins below)
		}
		seen[k] = true
		s := n.shardOf(k)
		p, ok := parts[s]
		if !ok {
			p = &part{}
			parts[s] = p
			order = append(order, s)
		}
		if lock {
			p.locks = append(p.locks, k)
		} else {
			p.reads = append(p.reads, k)
		}
	}
	// Locks first so a key both read and written is locked, not just read.
	for _, k := range lockKeys {
		add(k, true)
	}
	for _, k := range readKeys {
		add(k, false)
	}
	sortInts(order)

	// Count pending completion units first so inline local completion
	// cannot finish the phase before all ops are issued.
	units := 0
	for _, s := range order {
		p := parts[s]
		if s == n.id {
			units++
			continue
		}
		switch sys {
		case FaSST:
			units++
		case DrTMH, DrTMHNC:
			// One-sided READ per key; the lock RPCs form a second wave
			// once the values (and versions) are in.
			units += len(p.reads) + len(p.locks)
		case DrTMR:
			units += len(p.reads) + len(p.locks)
		}
	}
	tx.pending = units
	if units == 0 {
		n.afterExec(t, tx)
		return
	}

	for _, s := range order {
		p := parts[s]
		if s == n.id {
			n.localExec(t, tx, p.reads, p.locks)
			continue
		}
		switch sys {
		case FaSST:
			n.rnic.Send(t, s, &wire.Execute{
				Header:   wire.Header{TxnID: tx.ID, Src: uint8(n.id)},
				ReadKeys: p.reads, LockKeys: p.locks,
			})
		case DrTMH, DrTMHNC:
			if len(p.locks) > 0 {
				if tx.lockWave == nil {
					tx.lockWave = map[int][]uint64{}
				}
				tx.lockWave[s] = p.locks
			}
			for _, k := range append(append([]uint64{}, p.reads...), p.locks...) {
				n.oneSidedLookup(t, tx, s, k)
			}
		case DrTMR:
			// Lock-all: ATOMIC every key, then READ it.
			for _, k := range append(append([]uint64{}, p.reads...), p.locks...) {
				n.atomicLockRead(t, tx, s, k)
			}
		}
	}
}

// localExec performs the coordinator's local-shard portion directly.
func (n *Node) localExec(t *hostrt.Thread, tx *btxn, readKeys, lockKeys []uint64) {
	lockAll := n.cl.cfg.System == DrTMR
	var toLock []uint64
	toLock = append(toLock, lockKeys...)
	if lockAll {
		toLock = append(toLock, readKeys...)
	}
	for _, k := range toLock {
		n.chargeLocal(t, k)
		if !n.tryLock(k, tx.ID) {
			tx.failed = wire.StatusAbortLocked
			n.execUnit(t, tx, 0, nil, nil)
			return
		}
		tx.locked[n.id] = append(tx.locked[n.id], k)
	}
	var items []wire.KV
	for _, k := range append(append([]uint64{}, readKeys...), lockKeys...) {
		n.chargeLocal(t, k)
		if !lockAll && n.isLocked(k, tx.ID) {
			tx.failed = wire.StatusAbortLocked
			n.execUnit(t, tx, 0, nil, nil)
			return
		}
		v, ver, _ := n.primary.read(k)
		items = append(items, wire.KV{Key: k, Version: ver, Value: v})
	}
	n.execUnit(t, tx, 0, nil, items)
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
	if st != wire.StatusOK && tx.failed == wire.StatusOK {
		tx.failed = st
	}
	if len(locked) > 0 {
		// Remote locks acquired: attribute them to their shard.
		s := n.shardOf(locked[0])
		tx.locked[s] = append(tx.locked[s], locked...)
	}
	for _, kv := range items {
		tx.reads[kv.Key] = kv
	}
	tx.pending--
	if tx.pending > 0 {
		return
	}
	if tx.failed != wire.StatusOK {
		tx.lockWave = nil
		n.abortTxn(t, tx)
		return
	}
	if len(tx.lockWave) > 0 {
		// Second wave (DrTM+H): lock-and-verify the write set now that the
		// one-sided reads supplied values and versions.
		wave := tx.lockWave
		tx.lockWave = nil
		var shards []int
		for s := range wave {
			shards = append(shards, s)
		}
		sortInts(shards)
		tx.pending = len(shards)
		for _, s := range shards {
			keys := wave[s]
			vers := make([]wire.KeyVer, len(keys))
			for i, k := range keys {
				vers[i] = wire.KeyVer{Key: k, Version: tx.reads[k].Version}
			}
			n.rnic.Send(t, s, &wire.Execute{
				Header:   wire.Header{TxnID: tx.ID, Src: uint8(n.id)},
				LockKeys: keys, LockOnly: true, LockVers: vers,
			})
		}
		return
	}
	n.afterExec(t, tx)
}

// afterExec runs the application logic at the host coordinator.
func (n *Node) afterExec(t *hostrt.Thread, tx *btxn) {
	if tx.hasStash {
		writes := tx.stash
		tx.stash, tx.hasStash = nil, false
		n.prepareCommit(t, tx, writes)
		return
	}
	tx.rounds++
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
	res := fn.Run(d.State, tx.readsInOrder())
	if res.Abort {
		tx.failed = wire.StatusAbortMissing
		n.abortTxn(t, tx)
		return
	}
	if len(res.MoreReads) > 0 {
		tx.addReadOrder(res.MoreReads)
		tx.stashWrites(res.Writes)
		n.execPhase(t, tx, res.MoreReads, nil)
		return
	}
	n.prepareCommit(t, tx, append(tx.stash, res.Writes...))
}

func (tx *btxn) stashWrites(w []wire.KV) { tx.stash = append(tx.stash, w...) }

func (tx *btxn) readsInOrder() []wire.KV {
	out := make([]wire.KV, len(tx.readOrder))
	for i, k := range tx.readOrder {
		if kv, ok := tx.reads[k]; ok {
			out[i] = kv
		} else {
			out[i] = wire.KV{Key: k}
		}
	}
	return out
}

func (tx *btxn) addReadOrder(keys []uint64) {
	have := map[uint64]bool{}
	for _, k := range tx.readOrder {
		have[k] = true
	}
	for _, k := range keys {
		if !have[k] {
			have[k] = true
			tx.readOrder = append(tx.readOrder, k)
		}
	}
}

// prepareCommit assigns versions and locks execution-introduced writes.
func (n *Node) prepareCommit(t *hostrt.Thread, tx *btxn, fnWrites []wire.KV) {
	writes := append(fnWrites, tx.Desc.BlindWrites...)
	var missing []uint64
	seen := map[uint64]bool{}
	for _, kv := range writes {
		if seen[kv.Key] {
			continue
		}
		seen[kv.Key] = true
		if !tx.keyLocked(n, kv.Key) {
			missing = append(missing, kv.Key)
		}
	}
	if len(missing) > 0 {
		tx.stash = fnWrites
		tx.hasStash = true
		n.execPhase(t, tx, nil, missing)
		return
	}
	vers := map[uint64]uint64{}
	for _, kv := range tx.reads {
		vers[kv.Key] = kv.Version
	}
	out := make([]wire.KV, len(writes))
	for i, kv := range writes {
		out[i] = wire.KV{Key: kv.Key, Version: vers[kv.Key] + 1, Value: kv.Value}
	}
	tx.writes = out
	n.validatePhase(t, tx)
}

func (tx *btxn) keyLocked(n *Node, key uint64) bool {
	s := n.shardOf(key)
	for _, k := range tx.locked[s] {
		if k == key {
			return true
		}
	}
	return false
}

// validatePhase re-checks read-set versions (§2.2.1 step 2). DrTM+R locked
// everything and skips it.
func (n *Node) validatePhase(t *hostrt.Thread, tx *btxn) {
	tx.phase = bValidate
	if n.cl.cfg.System == DrTMR {
		n.afterValidate(t, tx)
		return
	}
	writeKeys := map[uint64]bool{}
	for _, kv := range tx.writes {
		writeKeys[kv.Key] = true
	}
	byShard := map[int][]wire.KeyVer{}
	var order []int
	total := 0
	for _, kv := range tx.readsInOrder() {
		if writeKeys[kv.Key] {
			continue
		}
		s := n.shardOf(kv.Key)
		if _, ok := byShard[s]; !ok {
			order = append(order, s)
		}
		byShard[s] = append(byShard[s], wire.KeyVer{Key: kv.Key, Version: kv.Version})
		total++
	}
	if total == 0 || (tx.Desc.ReadOnly() && total == 1 && len(tx.writes) == 0) {
		n.afterValidate(t, tx)
		return
	}
	sortInts(order)

	units := 0
	for _, s := range order {
		if s == n.id || n.cl.cfg.System == FaSST {
			units++
		} else {
			units += len(byShard[s]) // one-sided READ per key
		}
	}
	tx.pending = units
	for _, s := range order {
		items := byShard[s]
		if s == n.id {
			st := wire.StatusOK
			for _, it := range items {
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
			n.rnic.Send(t, s, &wire.Validate{
				Header: wire.Header{TxnID: tx.ID, Src: uint8(n.id)},
				Items:  items,
			})
			continue
		}
		// One-sided validation READ per key (version + lock word).
		target := n.cl.nodes[s]
		for _, it := range items {
			it := it
			var ok bool
			n.rnic.ReadDyn(t, s, func() int {
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
	if st != wire.StatusOK && tx.failed == wire.StatusOK {
		tx.failed = st
	}
	tx.pending--
	if tx.pending > 0 {
		return
	}
	if tx.failed != wire.StatusOK {
		n.abortTxn(t, tx)
		return
	}
	n.afterValidate(t, tx)
}

func (n *Node) afterValidate(t *hostrt.Thread, tx *btxn) {
	if len(tx.writes) == 0 {
		// Read-only: DrTM+R locked every key (lock-all) and must release
		// them; the validating systems hold no locks here.
		if n.cl.cfg.System == DrTMR {
			n.releaseAllLocks(t, tx)
		}
		n.commitTxn(t, tx)
		return
	}
	n.logPhase(t, tx)
}

// releaseAllLocks unlocks every key tx holds, locally and via one-sided
// unlock WRITEs.
func (n *Node) releaseAllLocks(t *hostrt.Thread, tx *btxn) {
	var shards []int
	for s := range tx.locked {
		shards = append(shards, s)
	}
	sortInts(shards)
	owner := tx.ID
	for _, s := range shards {
		keys := tx.locked[s]
		if s == n.id {
			for _, k := range keys {
				n.chargeLocal(t, k)
				n.unlock(k, owner)
			}
			continue
		}
		target := n.cl.nodes[s]
		for _, k := range keys {
			k := k
			n.rnic.Write(t, s, 8, func() {
				target.unlockIf(k, owner)
			}, func() {})
		}
	}
}

// logPhase replicates write sets to backups: one-sided WRITEs (DrTM+H,
// DrTM+R) or RPCs (FaSST).
func (n *Node) logPhase(t *hostrt.Thread, tx *btxn) {
	tx.phase = bLog
	groups := groupWrites(n, tx.writes)
	tx.pending = 0
	for _, g := range groups {
		tx.pending += len(n.cl.BackupsOf(g.shard))
	}
	if tx.pending == 0 {
		n.committed(t, tx)
		return
	}
	for _, g := range groups {
		for _, b := range n.cl.BackupsOf(g.shard) {
			if b == n.id {
				// Coordinator is a backup: append directly.
				for _, kv := range g.writes {
					n.chargeLocal(t, kv.Key)
				}
				n.appendBackupRecord(tx.ID, g.writes)
				n.logUnit(t, tx)
				continue
			}
			if n.cl.cfg.System == FaSST {
				n.rnic.Send(t, b, &wire.Log{
					Header: wire.Header{TxnID: tx.ID, Src: uint8(n.id)},
					Writes: g.writes, RespondTo: uint8(n.id),
				})
				continue
			}
			g := g
			backup := n.cl.nodes[b]
			n.rnic.Write(t, b, recordBytes(g.writes), func() {
				backup.appendBackupRecord(tx.ID, g.writes)
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
	tx.pending--
	if tx.pending > 0 {
		return
	}
	n.committed(t, tx)
}

// committed reports the outcome, then applies at primaries.
func (n *Node) committed(t *hostrt.Thread, tx *btxn) {
	n.commitTxn(t, tx)
	tx.phase = bCommit
	groups := groupWrites(n, tx.writes)
	for _, g := range groups {
		if g.shard == n.id {
			n.applyCommit(t, tx.ID, g.writes)
			// Release any extra local locks (DrTM+R locked reads too).
			n.releaseExtraLocks(t, tx, n.id, g.writes)
			continue
		}
		if n.cl.cfg.System == DrTMR {
			// One-sided commit: one WRITE per object (value + version +
			// lock word share a cache line).
			target := n.cl.nodes[g.shard]
			for _, kv := range g.writes {
				kv := kv
				n.rnic.Write(t, g.shard, objHeader+len(kv.Value), func() {
					target.primary.apply(kv.Key, kv.Value, kv.Version)
					target.unlockIf(kv.Key, tx.ID)
				}, func() {})
			}
			// Unlock read-only keys locked by lock-all.
			n.unlockReadLocks(t, tx, g.shard)
			continue
		}
		n.rnic.Send(t, g.shard, &wire.Commit{
			Header: wire.Header{TxnID: tx.ID, Src: uint8(n.id)},
			Writes: g.writes,
		})
	}
	// Shards with read locks but no writes (DrTM+R) must be released too.
	if n.cl.cfg.System == DrTMR {
		written := map[int]bool{}
		for _, g := range groups {
			written[g.shard] = true
		}
		var shards []int
		for s := range tx.locked {
			shards = append(shards, s)
		}
		sortInts(shards)
		for _, s := range shards {
			if written[s] {
				continue
			}
			if s == n.id {
				n.releaseExtraLocks(t, tx, s, nil)
				continue
			}
			n.unlockReadLocks(t, tx, s)
		}
	}
}

// releaseExtraLocks unlocks locally-held locks not covered by applyCommit.
func (n *Node) releaseExtraLocks(t *hostrt.Thread, tx *btxn, s int, writes []wire.KV) {
	written := map[uint64]bool{}
	for _, kv := range writes {
		written[kv.Key] = true
	}
	for _, k := range tx.locked[s] {
		if !written[k] {
			n.chargeLocal(t, k)
			n.unlock(k, tx.ID)
		}
	}
}

// unlockReadLocks releases DrTM+R read locks at a remote shard that the
// commit WRITEs did not cover.
func (n *Node) unlockReadLocks(t *hostrt.Thread, tx *btxn, s int) {
	written := map[uint64]bool{}
	for _, kv := range tx.writes {
		written[kv.Key] = true
	}
	target := n.cl.nodes[s]
	owner := tx.ID // capture: tx.ID is reassigned if the txn is retried
	for _, k := range tx.locked[s] {
		if written[k] {
			continue
		}
		k := k
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
	var shards []int
	for s := range tx.locked {
		shards = append(shards, s)
	}
	sortInts(shards)
	for _, s := range shards {
		keys := tx.locked[s]
		if len(keys) == 0 {
			continue
		}
		if s == n.id {
			for _, k := range keys {
				n.chargeLocal(t, k)
				n.unlock(k, tx.ID)
			}
			continue
		}
		if n.cl.cfg.System == DrTMR {
			target := n.cl.nodes[s]
			owner := tx.ID // capture: retryTxn reassigns tx.ID immediately
			for _, k := range keys {
				k := k
				n.rnic.Write(t, s, 8, func() {
					target.unlockIf(k, owner)
				}, func() {})
			}
			continue
		}
		n.rnic.Send(t, s, &wire.Abort{
			Header:     wire.Header{TxnID: tx.ID, Src: uint8(n.id)},
			LockedKeys: keys,
		})
	}
	st := tx.failed
	if st == wire.StatusOK {
		st = wire.StatusAbortLocked
	}
	n.retryTxn(t, tx, st)
}

type writeGroup struct {
	shard  int
	writes []wire.KV
}

func groupWrites(n *Node, writes []wire.KV) []writeGroup {
	m := map[int][]wire.KV{}
	var order []int
	for _, kv := range writes {
		s := n.shardOf(kv.Key)
		if _, ok := m[s]; !ok {
			order = append(order, s)
		}
		m[s] = append(m[s], kv)
	}
	sortInts(order)
	out := make([]writeGroup, 0, len(order))
	for _, s := range order {
		out = append(out, writeGroup{shard: s, writes: m[s]})
	}
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
