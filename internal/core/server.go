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

// lookupStart resolves key through shard's NIC index: it charges the index
// operation and consults the NIC cache. hit reports that res is final;
// otherwise the caller hands res to lookupFinish with its sink, which chains
// the lookup's (dependent) DMA reads. Two halves so that a caller's
// cache-hit path needs no lookupOp at all.
func (n *Node) lookupStart(c *nicrt.Core, shard int, key uint64) (res nicindex.Result, hit bool) {
	n.chargeIndexOps(c, 1)
	if n.place().IsBTree(key) {
		return res, false
	}
	res = n.prim(shard).index.Lookup(key)
	return res, len(res.Reads()) == 0
}

// lookupFinish resolves a lookupStart miss by DMA and hands the result to
// sink from a later polling-loop iteration. d names the key, the sink's slot
// and expected version for it, and carries lookupStart's result.
func (n *Node) lookupFinish(c *nicrt.Core, shard int, sink lookupSink, d lookupDone) {
	if n.place().IsBTree(d.key) {
		// B+tree keys are normally resolved at their coordinator's host, but
		// after a rejoin the stable-primary rule leaves the restarted node
		// coordinating against a B+tree shard served here; its operations
		// resolve like any other key. The NIC does not cache B+tree values,
		// so DMA-read the row from the host tree — and if the index carries
		// a newer committed version than the host has applied (the commit
		// record is still pinned), no consistent pair exists: report a
		// conflict so the caller aborts and the coordinator retries.
		n.issueLookup(c, lookupRow, n.prim(shard), sink, d)
		return
	}
	n.issueLookup(c, lookupChain, nil, sink, d)
}

// lookupDone is a finished lookup as its sink receives it, by value: the
// sink's own slot for the key, the key, the version the sink expects of it
// (VALIDATE and checkKey), and the result.
type lookupDone struct {
	slot      int
	key, want uint64
	res       nicindex.Result
}

// lookupSink takes finished lookups: the fan records of EXECUTE, VALIDATE
// and shipped execution, and a coordinator's ctxn for its own reads and
// checks.
type lookupSink interface {
	lookupLanded(n *Node, c *nicrt.Core, d lookupDone)
}

// lookupMode is what a lookupOp reads over DMA.
type lookupMode uint8

const (
	lookupChain  lookupMode = iota // an index miss: the reads lookupStart planned, in order
	lookupRow                      // a B+tree row served here, checked against the index
	lookupVerify                   // a B+tree row header: version only
)

// lookupOp is one lookup in flight over DMA. Records are pooled per node;
// step, the DMA continuation, is bound once, and the record returns to the
// freelist when its last read lands, before the sink runs — never with the
// sink, which may be dead by then.
type lookupOp struct {
	n    *Node
	c    *nicrt.Core
	sink lookupSink
	mode lookupMode
	// p is the shard state a row read uses, captured at issue.
	p    *primaryShard
	next int // reads issued (lookupChain)
	d    lookupDone
	fire func() // step, bound when the record is first created
}

// issueLookup takes a lookupOp for d and issues its first DMA read.
func (n *Node) issueLookup(c *nicrt.Core, mode lookupMode, p *primaryShard, sink lookupSink, d lookupDone) {
	op := n.lookupOps.get()
	if op.fire == nil {
		op.fire = op.step
	}
	op.n, op.c, op.sink, op.mode, op.p, op.d = n, c, sink, mode, p, d
	if mode == lookupChain {
		op.step()
		return
	}
	c.DMARead(btreeVerifyBytes, op.fire)
}

// step issues the next read of the chain or, once every read has landed,
// completes the lookup.
func (op *lookupOp) step() {
	switch op.mode {
	case lookupChain:
		if reads := op.d.res.Reads(); op.next < len(reads) {
			bytes := reads[op.next].Bytes
			op.next++
			op.c.DMARead(bytes, op.fire)
			return
		}
	case lookupRow:
		v, ver, ok := op.p.data.Read(op.d.key)
		if iv, known := op.p.index.VersionOf(op.d.key); known && iv != ver {
			op.d.res = nicindex.Result{Conflict: true}
		} else {
			op.d.res = nicindex.Result{Found: ok, Version: ver, Value: v}
		}
	case lookupVerify:
		_, ver, ok := op.p.data.Read(op.d.key)
		op.d.res = nicindex.Result{Found: ok, Version: ver}
	}
	n, c, sink, d := op.n, op.c, op.sink, op.d
	*op = lookupOp{fire: op.fire}
	n.lookupOps.put(op)
	sink.lookupLanded(n, c, d)
}

// serving reports whether this node can serve shard right now.
func (n *Node) serving(shard int) bool {
	p := n.prim(shard)
	return p != nil && p.ready
}

// execFan gathers the lookups of one EXECUTE operation. Records are pooled
// per node: serverExecute takes one, and land returns it when the last
// lookup is in — by then every continuation that held it has run.
type execFan struct {
	n        *Node
	idx      *nicindex.Index
	txn      uint64
	locked   []uint64 // keys this request locked, released on failure
	items    []wire.KV
	pending  int
	conflict bool
	done     func(st wire.Status, items []wire.KV)
}

func (f *execFan) lookupLanded(_ *Node, _ *nicrt.Core, d lookupDone) { f.land(d.slot, d.key, d.res) }

// land records the lookup result of key into slot i and, after the last,
// reports the operation's outcome.
func (f *execFan) land(i int, key uint64, res nicindex.Result) {
	if res.Conflict {
		f.conflict = true
	}
	f.items[i] = wire.KV{Key: key, Version: res.Version, Value: res.Value}
	f.pending--
	if f.pending > 0 {
		return
	}
	idx, txn, locked, items, conflict, done := f.idx, f.txn, f.locked, f.items, f.conflict, f.done
	n := f.n
	*f = execFan{}
	n.execFans.put(f)
	if conflict {
		execFail(idx, txn, locked, wire.StatusAbortLocked, done)
		return
	}
	done(wire.StatusOK, items)
}

// execFail releases the locks a failing EXECUTE request took itself and
// reports st (§4.2: reading a locked key or failing to lock aborts
// immediately).
func execFail(idx *nicindex.Index, txn uint64, locked []uint64, st wire.Status,
	done func(st wire.Status, items []wire.KV)) {

	for _, k := range locked {
		idx.Unlock(k, txn)
	}
	done(st, nil)
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
	n.chargeIndexOps(c, len(lockKeys))
	for i, k := range lockKeys {
		if !idx.TryLock(k, txn) {
			execFail(idx, txn, lockKeys[:i], wire.StatusAbortLocked, done)
			return
		}
	}
	n.chargeIndexOps(c, len(readKeys))
	for _, k := range readKeys {
		if idx.IsLocked(k, txn) {
			execFail(idx, txn, lockKeys, wire.StatusAbortLocked, done)
			return
		}
	}

	// Resolve values and versions for every key, reads then locks (locked
	// keys too: their current values feed read-modify-write execution).
	nkeys := len(readKeys) + len(lockKeys)
	if nkeys == 0 {
		done(wire.StatusOK, nil)
		return
	}
	f := n.execFans.get()
	f.n, f.idx, f.txn, f.locked, f.done = n, idx, txn, lockKeys, done
	f.items = make([]wire.KV, nkeys)
	f.pending = nkeys
	for i := range f.items {
		k := keyAt(readKeys, lockKeys, i)
		res, hit := n.lookupStart(c, shard, k)
		if hit {
			f.land(i, k, res)
			continue
		}
		n.lookupFinish(c, shard, f, lookupDone{slot: i, key: k, res: res})
	}
}

// keyAt indexes the concatenation a ++ b.
func keyAt(a, b []uint64, i int) uint64 {
	if i < len(a) {
		return a[i]
	}
	return b[i-len(a)]
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

// valFan gathers the checks of one VALIDATE operation; pooled like execFan.
type valFan struct {
	n       *Node
	pending int
	failed  wire.Status
	done    func(st wire.Status)
}

func (f *valFan) lookupLanded(_ *Node, _ *nicrt.Core, d lookupDone) {
	f.land(versionStatus(d.res.Version, d.want))
}

// land retires one key's check with status st and, after the last, reports
// the operation's outcome.
func (f *valFan) land(st wire.Status) {
	if st != wire.StatusOK {
		f.failed = st
	}
	f.pending--
	if f.pending > 0 {
		return
	}
	n, failed, done := f.n, f.failed, f.done
	*f = valFan{}
	n.valFans.put(f)
	done(failed)
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
	if len(items) == 0 {
		done(wire.StatusOK)
		return
	}
	f := n.valFans.get()
	f.n, f.pending, f.done = n, len(items), done
	for _, it := range items {
		if idx.IsLocked(it.Key, txn) {
			f.land(wire.StatusAbortLocked)
			continue
		}
		if v, known := idx.VersionOf(it.Key); known {
			f.land(versionStatus(v, it.Version))
			continue
		}
		res, hit := n.lookupStart(c, shard, it.Key)
		if hit {
			f.land(versionStatus(res.Version, it.Version))
			continue
		}
		n.lookupFinish(c, shard, f, lookupDone{key: it.Key, want: it.Version, res: res})
	}
}

// versionStatus is a VALIDATE check's verdict on one key.
func versionStatus(have, want uint64) wire.Status {
	if have != want {
		return wire.StatusAbortVersion
	}
	return wire.StatusOK
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

// logAppend is one log record on its way into host memory by DMA. Records
// are pooled per node; run, the DMA continuation, is the single point one
// returns to the freelist.
type logAppend struct {
	n      *Node
	c      *nicrt.Core
	kind   recordKind
	txn    uint64
	shard  int
	writes []wire.KV
	epoch  int
	cts    uint64
	kvTS   []uint64
	// done, when non-nil, runs once the record is durable; otherwise the
	// append acknowledges with a LogResp to node ackTo.
	done  func(seq uint64)
	ackTo int
	fire  func() // run, bound when the record is first created
}

func (a *logAppend) run() {
	n, c, txn, done, ackTo := a.n, a.c, a.txn, a.done, a.ackTo
	seq := n.log.append(a.kind, txn, a.shard, a.writes, a.epoch, a.cts, a.kvTS)
	*a = logAppend{fire: a.fire}
	n.logAppends.put(a)
	n.wakeWorkers()
	if done != nil {
		done(seq)
		return
	}
	n.sendOrLoop(c, ackTo, &wire.LogResp{
		Header: wire.Header{TxnID: txn, Src: uint8(n.id)},
		Status: wire.StatusOK,
	})
}

// appendLogAck appends a backup record and, once it is durable, acknowledges
// to node ackTo with a LogResp (the coordinator — directly, even when the
// request came from a shipped execution at another node, §4.2.3).
func (n *Node) appendLogAck(c *nicrt.Core, txn uint64, shard int, writes []wire.KV, ackTo int) {
	n.logRecord(c, recBackup, txn, shard, writes, 0, nil, nil, ackTo)
}

// appendLogTS DMA-writes a log record into this node's host-memory log and
// calls done once the record is durable (§4.2 step 5). cts stamps commit
// records with their MVCC commit timestamp; kvTS carries per-KV snapshot
// bases for state-transfer chunk records. Both zero-valued under MVCC-off.
func (n *Node) appendLogTS(c *nicrt.Core, kind recordKind, txn uint64, shard int,
	writes []wire.KV, cts uint64, kvTS []uint64, done func(seq uint64)) {
	n.logRecord(c, kind, txn, shard, writes, cts, kvTS, done, 0)
}

// logRecord DMA-writes one log record; its completion is done or, with a
// nil done, a LogResp to node ackTo.
func (n *Node) logRecord(c *nicrt.Core, kind recordKind, txn uint64, shard int,
	writes []wire.KV, cts uint64, kvTS []uint64, done func(seq uint64), ackTo int) {

	// Stamp the record with its origin epoch — the frame's when handling a
	// remote Log, else this node's own — before the DMA completes (the
	// callback runs outside the frame context). The promotion fence uses it
	// to spare records logged under the new view.
	epoch := c.RxEpoch()
	if epoch == 0 {
		epoch = n.nic.Epoch()
	}
	a := n.logAppends.get()
	if a.fire == nil {
		a.fire = a.run
	}
	a.n, a.c, a.kind, a.txn, a.shard, a.writes = n, c, kind, txn, shard, writes
	a.epoch, a.cts, a.kvTS, a.done, a.ackTo = epoch, cts, kvTS, done, ackTo
	c.DMAWrite(recordBytes(writes), a.fire)
}

// handleLog serves a backup LOG request.
func (n *Node) handleLog(c *nicrt.Core, src int, m *wire.Log) {
	shard := n.place().ShardOf(m.Writes[0].Key)
	if _, ok := n.backups[shard]; !ok {
		panic(fmt.Sprintf("core: node %d got LOG for shard %d it does not back up", n.id, shard))
	}
	n.appendLogAck(c, m.TxnID, shard, m.Writes, int(m.RespondTo))
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
	if _, ok := n.cl.Registry().Get(m.FnID); !ok {
		panic(fmt.Sprintf("core: node %d: shipped unknown fn %d", n.id, m.FnID))
	}

	// Lay out the execution input: one slot per distinct key in (ReadKeys ++
	// WriteKeys) order. Keys of other nodes arrived pre-read in LocalReads;
	// the rest are this node's to lock and resolve. After a promotion this
	// node may serve several shards, so each key locks in its own shard's
	// index.
	nkeys := len(m.ReadKeys) + len(m.WriteKeys)
	reads := make([]wire.KV, 0, nkeys)
	mine := make([]uint64, 0, nkeys)
	for i := 0; i < nkeys; i++ {
		k := keyAt(m.ReadKeys, m.WriteKeys, i)
		if _, dup := txnmodel.LastKV(reads, k); dup {
			continue
		}
		if kv, pre := txnmodel.LastKV(m.LocalReads, k); pre {
			reads = append(reads, kv)
			continue
		}
		reads = append(reads, wire.KV{Key: k})
		mine = append(mine, k)
	}

	for _, k := range mine {
		if !n.serving(n.place().ShardOf(k)) {
			n.shipFail(c, m, wire.StatusAbortLocked, nil)
			return
		}
	}

	// Lock-all on this node's keys.
	n.chargeIndexOps(c, len(mine))
	for i, k := range mine {
		if !n.prim(n.place().ShardOf(k)).index.TryLock(k, m.TxnID) {
			n.shipFail(c, m, wire.StatusAbortLocked, mine[:i])
			return
		}
	}

	// Resolve this node's values, then execute.
	if len(mine) == 0 {
		n.shipRun(c, m, mine, reads)
		return
	}
	f := n.shipFans.get()
	*f = shipFan{n: n, c: c, m: m, mine: mine, reads: reads, pending: len(mine)}
	for _, k := range mine {
		s := n.place().ShardOf(k)
		res, hit := n.lookupStart(c, s, k)
		if hit {
			f.land(k, res)
			continue
		}
		n.lookupFinish(c, s, f, lookupDone{key: k, res: res})
	}
}

// shipFan gathers the lookups of one shipped execution; pooled like
// execFan.
type shipFan struct {
	n        *Node
	c        *nicrt.Core
	m        *wire.ShipExec
	mine     []uint64  // keys locked here
	reads    []wire.KV // execution input, filled as lookups land
	pending  int
	conflict bool
}

func (f *shipFan) lookupLanded(_ *Node, _ *nicrt.Core, d lookupDone) { f.land(d.key, d.res) }

// land records key's lookup result in its input slot and, after the last,
// runs the execution.
func (f *shipFan) land(key uint64, res nicindex.Result) {
	if res.Conflict {
		f.conflict = true
	}
	for i := range f.reads {
		if f.reads[i].Key == key {
			f.reads[i].Version, f.reads[i].Value = res.Version, res.Value
			break
		}
	}
	f.pending--
	if f.pending > 0 {
		return
	}
	n, c, m, mine, reads, conflict := f.n, f.c, f.m, f.mine, f.reads, f.conflict
	*f = shipFan{}
	n.shipFans.put(f)
	if conflict {
		n.shipFail(c, m, wire.StatusAbortLocked, mine)
		return
	}
	n.shipRun(c, m, mine, reads)
}

// shipFail releases the locks a failing shipped execution took here and
// reports st to the coordinator.
func (n *Node) shipFail(c *nicrt.Core, m *wire.ShipExec, st wire.Status, locked []uint64) {
	n.chargeIndexOps(c, len(locked))
	for _, k := range locked {
		if p := n.prim(n.place().ShardOf(k)); p != nil {
			p.index.UnlockIf(k, m.TxnID)
		}
	}
	c.Send(int(m.Coord), &wire.ShipResult{
		Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
		Status: st,
	})
}

// shipRun executes a shipped transaction over its resolved input, fans out
// the LOG requests and returns the result. locked is this node's lock set,
// held until the coordinator's COMMIT or ABORT.
func (n *Node) shipRun(c *nicrt.Core, m *wire.ShipExec, locked []uint64, reads []wire.KV) {
	coord := int(m.Coord)
	fn, _ := n.cl.Registry().Get(m.FnID)
	c.Charge(n.cl.cfg.Params.HostScaled(fn.HostCost))
	res := fn.Run(m.ExecState, reads, nil)
	if res.Abort {
		n.shipFail(c, m, wire.StatusAbortMissing, locked)
		return
	}
	if len(res.MoreReads) > 0 {
		panic("core: shipped execution requested another round (§4.2.3 requires single-round)")
	}
	writes := append(res.Writes, m.WriteSet...)
	txnmodel.VersionWrites(writes, reads)
	n.cl.History().RecordShip(m.TxnID, coord, n.id, writes)
	n.remoteLocks[m.TxnID] = locked

	// Fan out LOG requests for every write shard's backups; acks flow
	// to the coordinator (Figure 7b).
	numLogs := 0
	for _, sw := range txnmodel.GroupByShard(n.place(), writes) {
		for _, b := range n.cl.viewBackups(sw.Shard) {
			numLogs++
			if b == n.id {
				n.appendLogAck(c, m.TxnID, sw.Shard, sw.Writes, coord)
				continue
			}
			n.sendOrLoop(c, b, &wire.Log{
				Header:    wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
				RespondTo: uint8(coord),
				Writes:    sw.Writes,
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
