package core

import (
	"fmt"

	"xenic/internal/nicrt"
	"xenic/internal/store/nicindex"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// This file implements the server-side NIC operations of §4.2: EXECUTE
// (combined read + lock), VALIDATE, LOG, COMMIT, ABORT, and shipped
// execution. Each operation is asynchronous: index lookups that miss the
// NIC cache issue DMA reads through the continuation framework, and
// responses go out only when all reads have landed. Operations name the
// shard they target; a node may serve several shards after recovery
// promotions, and a freshly adopted shard rejects work until its log scan
// completes (§4.2.1).

// lookupAsync resolves key through shard's NIC index; cache hits complete
// inline, misses chain the lookup's (dependent) DMA reads and call done
// from a later polling-loop iteration.
func (n *Node) lookupAsync(c *nicrt.Core, shard int, key uint64, done func(res nicindex.Result)) {
	p := n.prim(shard)
	n.chargeIndexOps(c, 1)
	if n.place().IsBTree(key) {
		// B+tree keys are normally resolved at their coordinator's host, but
		// after a rejoin the stable-primary rule leaves the restarted node
		// coordinating against a B+tree shard served here; its operations
		// resolve like any other key. The NIC does not cache B+tree values,
		// so DMA-read the row from the host tree — and if the index carries
		// a newer committed version than the host has applied (the commit
		// record is still pinned), no consistent pair exists: report a
		// conflict so the caller aborts and the coordinator retries.
		c.DMARead([]int{btreeVerifyBytes}, func() {
			v, ver, ok := p.data.Read(key)
			if iv, known := p.index.VersionOf(key); known && iv != ver {
				done(nicindex.Result{Conflict: true})
				return
			}
			done(nicindex.Result{Found: ok, Version: ver, Value: v})
		})
		return
	}
	res := p.index.Lookup(key)
	if len(res.Reads) == 0 {
		done(res)
		return
	}
	i := 0
	var step func()
	step = func() {
		if i == len(res.Reads) {
			done(res)
			return
		}
		op := res.Reads[i]
		i++
		c.DMARead([]int{op.Bytes}, step)
	}
	step()
}

// serving reports whether this node can serve shard right now.
func (n *Node) serving(shard int) bool {
	p := n.prim(shard)
	return p != nil && p.ready
}

// serverExecute performs the combined read+lock operation (§4.2 step 2) on
// one of this node's primary shards, invoking done with the outcome. The
// coordinator calls it directly for local shards; remote requests arrive
// via handleExecute.
func (n *Node) serverExecute(c *nicrt.Core, shard int, txn uint64, readKeys, lockKeys []uint64,
	done func(st wire.Status, items []wire.KV)) {

	if !n.serving(shard) {
		done(wire.StatusAbortLocked, nil) // recovering shard: caller retries
		return
	}
	idx := n.prim(shard).index
	// Reading a locked key or failing to lock aborts immediately (§4.2):
	// release this request's own locks on failure.
	locked := make([]uint64, 0, len(lockKeys))
	fail := func(st wire.Status) {
		for _, k := range locked {
			idx.Unlock(k, txn)
		}
		done(st, nil)
	}
	n.chargeIndexOps(c, len(lockKeys))
	for _, k := range lockKeys {
		if !idx.TryLock(k, txn) {
			fail(wire.StatusAbortLocked)
			return
		}
		locked = append(locked, k)
	}
	n.chargeIndexOps(c, len(readKeys))
	for _, k := range readKeys {
		if idx.IsLocked(k, txn) {
			fail(wire.StatusAbortLocked)
			return
		}
	}

	// Resolve values and versions for every key (locked keys too: their
	// current values feed read-modify-write execution).
	all := make([]uint64, 0, len(readKeys)+len(lockKeys))
	all = append(all, readKeys...)
	all = append(all, lockKeys...)
	items := make([]wire.KV, len(all))
	pending := len(all)
	if pending == 0 {
		done(wire.StatusOK, nil)
		return
	}
	conflict := false
	for i, k := range all {
		i, k := i, k
		n.lookupAsync(c, shard, k, func(res nicindex.Result) {
			if res.Conflict {
				conflict = true
			}
			items[i] = wire.KV{Key: k, Version: res.Version, Value: res.Value}
			pending--
			if pending == 0 {
				if conflict {
					fail(wire.StatusAbortLocked)
					return
				}
				done(wire.StatusOK, items)
			}
		})
	}
}

// handleExecute serves a remote EXECUTE. All keys of one request belong to
// one shard.
func (n *Node) handleExecute(c *nicrt.Core, src int, m *wire.Execute) {
	shard := n.shardOfOp(m.ReadKeys, m.LockKeys)
	n.serverExecute(c, shard, m.TxnID, m.ReadKeys, m.LockKeys, func(st wire.Status, items []wire.KV) {
		resp := &wire.ExecuteResp{
			Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
			Status: st, Items: items,
		}
		if st == wire.StatusOK {
			resp.Locked = m.LockKeys
		}
		c.Send(src, resp)
	})
}

func (n *Node) shardOfOp(keyLists ...[]uint64) int {
	for _, ks := range keyLists {
		if len(ks) > 0 {
			return n.place().ShardOf(ks[0])
		}
	}
	panic("core: operation with no keys")
}

// serverValidate checks that each key is unlocked (by others) and at its
// expected version (§4.2 step 4).
func (n *Node) serverValidate(c *nicrt.Core, shard int, txn uint64, items []wire.KeyVer,
	done func(st wire.Status)) {

	if !n.serving(shard) {
		done(wire.StatusAbortLocked)
		return
	}
	idx := n.prim(shard).index
	n.chargeIndexOps(c, len(items))
	pending := len(items)
	if pending == 0 {
		done(wire.StatusOK)
		return
	}
	failed := wire.StatusOK
	finish := func() {
		pending--
		if pending == 0 {
			done(failed)
		}
	}
	for _, it := range items {
		it := it
		if idx.IsLocked(it.Key, txn) {
			failed = wire.StatusAbortLocked
			finish()
			continue
		}
		if v, known := idx.VersionOf(it.Key); known {
			if v != it.Version {
				failed = wire.StatusAbortVersion
			}
			finish()
			continue
		}
		n.lookupAsync(c, shard, it.Key, func(res nicindex.Result) {
			if res.Version != it.Version {
				failed = wire.StatusAbortVersion
			}
			finish()
		})
	}
}

// handleValidate serves a remote VALIDATE.
func (n *Node) handleValidate(c *nicrt.Core, src int, m *wire.Validate) {
	shard := n.place().ShardOf(m.Items[0].Key)
	n.serverValidate(c, shard, m.TxnID, m.Items, func(st wire.Status) {
		c.Send(src, &wire.ValidateResp{
			Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
			Status: st,
		})
	})
}

// appendLog DMA-writes a log record into this node's host-memory log and
// calls done once the record is durable (§4.2 step 5).
func (n *Node) appendLog(c *nicrt.Core, kind recordKind, txn uint64, shard int,
	writes []wire.KV, done func(seq uint64)) {
	n.appendLogTS(c, kind, txn, shard, writes, 0, nil, done)
}

// appendLogTS is appendLog with MVCC metadata: cts stamps commit records
// with their commit timestamp; kvTS carries per-KV snapshot bases for
// state-transfer chunk records. Both zero-valued under MVCC-off.
func (n *Node) appendLogTS(c *nicrt.Core, kind recordKind, txn uint64, shard int,
	writes []wire.KV, cts uint64, kvTS []uint64, done func(seq uint64)) {

	// Stamp the record with its origin epoch — the frame's when handling a
	// remote Log, else this node's own — before the DMA completes (the
	// callback runs outside the frame context). The promotion fence uses it
	// to spare records logged under the new view.
	epoch := c.RxEpoch()
	if epoch == 0 {
		epoch = n.nic.Epoch()
	}
	c.DMAWrite([]int{recordBytes(writes)}, func() {
		seq := n.log.append(kind, txn, shard, writes, epoch, cts, kvTS)
		n.wakeWorkers()
		done(seq)
	})
}

// handleLog serves a backup LOG request, acknowledging to RespondTo (the
// coordinator — directly, even when the request came from a shipped
// execution at another node, §4.2.3).
func (n *Node) handleLog(c *nicrt.Core, src int, m *wire.Log) {
	shard := n.place().ShardOf(m.Writes[0].Key)
	if _, ok := n.backups[shard]; !ok {
		panic(fmt.Sprintf("core: node %d got LOG for shard %d it does not back up", n.id, shard))
	}
	n.appendLog(c, recBackup, m.TxnID, shard, m.Writes, func(uint64) {
		n.sendOrLoop(c, int(m.RespondTo), &wire.LogResp{
			Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
			Status: wire.StatusOK,
		})
	})
}

// commitShard applies a committed write set at this (primary) node: the
// commit record is logged, cached entries are updated and pinned, and the
// locks release once the record is durable (§4.2 step 6). cts is the MVCC
// commit timestamp of the deciding commit (0 = MVCC off).
func (n *Node) commitShard(c *nicrt.Core, shard int, txn uint64, writes []wire.KV,
	unlockKeys []uint64, cts uint64, done func()) {

	p := n.prim(shard)
	if p == nil {
		panic(fmt.Sprintf("core: node %d committing shard %d it does not serve", n.id, shard))
	}
	if sess, ok := n.fwd[shard]; ok && (sess.fence == 0 || c.RxEpoch() < sess.fence) {
		// A rejoiner is re-replicating this shard: relay the commit so its
		// copy stays current. Once the rejoiner is a listed backup (fence
		// set), coordinators on the new view log to it directly and only
		// pre-fence commits still need relaying.
		n.cl.fwdInFlight[sess.node]++
		c.Send(sess.node, &wire.StateForward{
			Header: wire.Header{TxnID: txn, Src: uint8(n.id)},
			Shard:  uint8(shard), Writes: writes, CTS: cts,
		})
	}
	n.chargeIndexOps(c, len(writes))
	pinned := make([]uint64, 0, len(writes))
	if !mutStaleIndexRead {
		for _, kv := range writes {
			if n.place().IsBTree(kv.Key) {
				p.index.ApplyCommitMeta(kv.Key, kv.Version)
			} else {
				p.index.ApplyCommitTS(kv.Key, kv.Value, kv.Version, cts)
			}
			pinned = append(pinned, kv.Key)
		}
	}
	n.appendLogTS(c, recCommit, txn, shard, writes, cts, nil, func(seq uint64) {
		n.pins[seq] = pinned
		n.pinIdx[seq] = p.index
		n.chargeIndexOps(c, len(unlockKeys))
		for _, k := range unlockKeys {
			// Tolerant, per-key-shard release: a shipped lock set may span
			// several shards this node serves after a promotion, and its
			// keys arrive through multiple COMMITs.
			if kp := n.prim(n.place().ShardOf(k)); kp != nil {
				kp.index.UnlockIf(k, txn)
			}
		}
		done()
	})
}

// handleCommit serves a remote COMMIT at the primary.
func (n *Node) handleCommit(c *nicrt.Core, src int, m *wire.Commit) {
	shard := n.place().ShardOf(m.Writes[0].Key)
	unlock := n.takeLockSet(m.TxnID, m.Writes)
	n.commitShard(c, shard, m.TxnID, m.Writes, unlock, m.CTS, func() {
		c.Send(src, &wire.CommitResp{
			Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
			Status: wire.StatusOK,
		})
	})
}

// takeLockSet returns the keys to unlock for txn at this node: the shipped
// execution's full lock set if one exists (it locked read keys too), else
// the write keys.
func (n *Node) takeLockSet(txn uint64, writes []wire.KV) []uint64 {
	if ks, ok := n.remoteLocks[txn]; ok {
		delete(n.remoteLocks, txn)
		return ks
	}
	ks := make([]uint64, len(writes))
	for i, kv := range writes {
		ks[i] = kv.Key
	}
	return ks
}

// handleAbort releases a transaction's locks at this primary.
func (n *Node) handleAbort(c *nicrt.Core, m *wire.Abort) {
	keys := m.LockedKeys
	if ks, ok := n.remoteLocks[m.TxnID]; ok {
		delete(n.remoteLocks, m.TxnID)
		keys = ks
	}
	n.chargeIndexOps(c, len(keys))
	for _, k := range keys {
		shard := n.place().ShardOf(k)
		if p := n.prim(shard); p != nil {
			// Tolerant: an abort can land after a view change replaced the
			// index (promotion) or a sweep already released the lock.
			p.index.UnlockIf(k, m.TxnID)
		}
	}
}

// handleShipExec runs a whole transaction at this remote primary (§4.2.3):
// lock every key of this shard (reads included — shipped transactions use
// lock-all concurrency control, so no validation round is needed), resolve
// values, run the execution function, fan out LOG requests for all write
// shards with acks directed at the coordinator, and return the result.
func (n *Node) handleShipExec(c *nicrt.Core, src int, m *wire.ShipExec) {
	coord := int(m.Coord)
	fn, ok := n.cl.Registry().Get(m.FnID)
	if !ok {
		panic(fmt.Sprintf("core: node %d: shipped unknown fn %d", n.id, m.FnID))
	}

	// Partition keys: this node's shards are resolved here; the rest
	// arrived pre-read in LocalReads. After a promotion this node may
	// serve several shards, so each key locks in its own shard's index.
	local := map[uint64]wire.KV{}
	for _, kv := range m.LocalReads {
		local[kv.Key] = kv
	}
	var mine []uint64
	seen := map[uint64]bool{}
	for _, k := range append(append([]uint64{}, m.ReadKeys...), m.WriteKeys...) {
		if _, pre := local[k]; !pre && !seen[k] {
			seen[k] = true
			mine = append(mine, k)
		}
	}

	failResp := func(st wire.Status, locked []uint64) {
		n.chargeIndexOps(c, len(locked))
		for _, k := range locked {
			if p := n.prim(n.place().ShardOf(k)); p != nil {
				p.index.UnlockIf(k, m.TxnID)
			}
		}
		c.Send(coord, &wire.ShipResult{
			Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
			Status: st,
		})
	}

	for _, k := range mine {
		if !n.serving(n.place().ShardOf(k)) {
			failResp(wire.StatusAbortLocked, nil)
			return
		}
	}

	// Lock-all on this node's keys.
	n.chargeIndexOps(c, len(mine))
	var locked []uint64
	for _, k := range mine {
		if !n.prim(n.place().ShardOf(k)).index.TryLock(k, m.TxnID) {
			failResp(wire.StatusAbortLocked, locked)
			return
		}
		locked = append(locked, k)
	}

	// Resolve this shard's values, then execute.
	vals := map[uint64]wire.KV{}
	pending := len(mine)
	conflict := false
	finish := func() {
		if conflict {
			failResp(wire.StatusAbortLocked, locked)
			return
		}
		reads := assembleReads(m.ReadKeys, m.WriteKeys, func(k uint64) (wire.KV, bool) {
			if kv, ok := local[k]; ok {
				return kv, true
			}
			kv, ok := vals[k]
			return kv, ok
		})
		c.Charge(n.cl.cfg.Params.HostScaled(fn.HostCost))
		res := fn.Run(m.ExecState, reads)
		if res.Abort {
			failResp(wire.StatusAbortMissing, locked)
			return
		}
		if len(res.MoreReads) > 0 {
			panic("core: shipped execution requested another round (§4.2.3 requires single-round)")
		}
		writes := append(res.Writes, m.WriteSet...)
		versionWrites(writes, reads)
		n.recordShip(m.TxnID, coord, writes)
		n.remoteLocks[m.TxnID] = locked

		// Fan out LOG requests for every write shard's backups; acks flow
		// to the coordinator (Figure 7b).
		numLogs := 0
		for _, sw := range groupByShard(n.place(), writes) {
			shard, ws := sw.shard, sw.writes
			for _, b := range n.cl.viewBackups(shard) {
				numLogs++
				if b == n.id {
					ws := ws
					n.appendLog(c, recBackup, m.TxnID, shard, ws, func(uint64) {
						n.sendOrLoop(c, coord, &wire.LogResp{
							Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
							Status: wire.StatusOK,
						})
					})
					continue
				}
				n.sendOrLoop(c, b, &wire.Log{
					Header:    wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
					RespondTo: uint8(coord),
					Writes:    ws,
				})
			}
		}
		c.Send(coord, &wire.ShipResult{
			Header:  wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
			Status:  wire.StatusOK,
			NumLogs: uint8(numLogs),
			ReadSet: reads,
			Writes:  writes,
		})
	}
	if pending == 0 {
		finish()
		return
	}
	for _, k := range mine {
		k := k
		n.lookupAsync(c, n.place().ShardOf(k), k, func(res nicindex.Result) {
			if res.Conflict {
				conflict = true
			}
			vals[k] = wire.KV{Key: k, Version: res.Version, Value: res.Value}
			pending--
			if pending == 0 {
				finish()
			}
		})
	}
}

// assembleReads builds the execution-function input: one KV per key in
// (readKeys ++ writeKeys) order, deduplicated, missing keys zero-valued.
func assembleReads(readKeys, writeKeys []uint64, get func(uint64) (wire.KV, bool)) []wire.KV {
	seen := map[uint64]bool{}
	var out []wire.KV
	for _, k := range append(append([]uint64{}, readKeys...), writeKeys...) {
		if seen[k] {
			continue
		}
		seen[k] = true
		if kv, ok := get(k); ok {
			out = append(out, kv)
		} else {
			out = append(out, wire.KV{Key: k})
		}
	}
	return out
}

// versionWrites assigns each write its successor version based on the
// version observed at execution (missing keys start at version 1).
func versionWrites(writes []wire.KV, reads []wire.KV) {
	vers := map[uint64]uint64{}
	for _, kv := range reads {
		vers[kv.Key] = kv.Version
	}
	for i := range writes {
		writes[i].Version = vers[writes[i].Key] + 1
	}
}

// shardWrites is one shard's slice of a write set.
type shardWrites struct {
	shard  int
	writes []wire.KV
}

// groupByShard splits a write set by primary shard, in ascending shard
// order (deterministic fan-out order keeps runs reproducible).
func groupByShard(place txnmodel.Placement, writes []wire.KV) []shardWrites {
	m := map[int][]wire.KV{}
	var order []int
	for _, kv := range writes {
		s := place.ShardOf(kv.Key)
		if _, ok := m[s]; !ok {
			order = append(order, s)
		}
		m[s] = append(m[s], kv)
	}
	sortInts(order)
	out := make([]shardWrites, 0, len(order))
	for _, s := range order {
		out = append(out, shardWrites{shard: s, writes: m[s]})
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
