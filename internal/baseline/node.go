package baseline

import (
	"fmt"

	"xenic/internal/chassis"
	"xenic/internal/check"
	"xenic/internal/hostrt"
	"xenic/internal/rdma"
	"xenic/internal/wire"
)

// Node is one baseline server: symmetric host threads over an RDMA NIC.
type Node struct {
	cl   *Cluster
	id   int
	host *hostrt.Host
	rnic *rdma.NIC

	primary *shardData
	backups map[int]*shardData
	locks   map[uint64]uint64 // primary-shard lock words in host memory

	applyq []logRecord // backup records awaiting host application
	apHead int

	app *chassis.Node // coordinator threads: load, retries, outcome counters
}

// tryLock acquires key's host-memory lock word for owner.
func (n *Node) tryLock(key, owner uint64) bool {
	if cur, ok := n.locks[key]; ok && cur != owner {
		return false
	}
	n.locks[key] = owner
	return true
}

func (n *Node) unlock(key, owner uint64) {
	if cur, ok := n.locks[key]; !ok || cur != owner {
		panic(fmt.Sprintf("baseline: node %d unlock of key %d not held by %x", n.id, key, owner))
	}
	delete(n.locks, key)
}

// unlockIf releases key only if owner still holds it — the semantics of a
// compare-and-swap unlock, needed for one-sided unlock WRITEs that may land
// after the lock has already been recycled by a retry.
func (n *Node) unlockIf(key, owner uint64) {
	if cur, ok := n.locks[key]; ok && cur == owner {
		delete(n.locks, key)
	}
}

func (n *Node) isLocked(key, owner uint64) bool {
	cur, ok := n.locks[key]
	return ok && cur != owner
}

// hostHandler processes RPCs and verb completions on host threads.
func (n *Node) hostHandler(t *hostrt.Thread, src int, m wire.Msg) {
	switch m := m.(type) {
	case *rdma.Completion:
		m.Fn()
	case *wire.Execute:
		n.rpcExecute(t, src, m)
	case *wire.Validate:
		n.rpcValidate(t, src, m)
	case *wire.Log:
		n.rpcLog(t, src, m)
	case *wire.Commit:
		n.rpcCommit(t, src, m)
	case *wire.Abort:
		n.rpcAbort(t, m)
	case *wire.ExecuteResp:
		n.onExecuteResp(t, m)
	case *wire.ValidateResp:
		n.onValidateResp(t, m)
	case *wire.LogResp:
		n.onLogResp(t, m)
	case *wire.CommitResp:
		n.onCommitResp(t, m)
	default:
		panic(fmt.Sprintf("baseline: node %d: unexpected message %T", n.id, m))
	}
}

// rpcCost charges the RPC-handling premium beyond the generic message cost.
func (n *Node) rpcCost(t *hostrt.Thread) {
	p := n.cl.cfg.Params
	if p.HostRPCHandle > p.HostMsgProc {
		t.Charge(p.HostRPCHandle - p.HostMsgProc)
	}
}

// rpcExecute is the FaSST-style consolidated read+lock handler (§2.2.2);
// DrTM+H uses it for its lock RPCs.
func (n *Node) rpcExecute(t *hostrt.Thread, src int, m *wire.Execute) {
	n.rpcCost(t)
	p := n.cl.cfg.Params
	resp := &wire.ExecuteResp{Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)}}
	var locked []uint64
	fail := func(st wire.Status) {
		for _, k := range locked {
			n.unlock(k, m.TxnID)
		}
		resp.Status = st
		resp.Items = nil
		resp.Locked = nil
		n.rnic.Send(t, src, resp)
	}
	for _, k := range m.LockKeys {
		t.Charge(p.HostStoreOp)
		if !n.tryLock(k, m.TxnID) {
			fail(wire.StatusAbortLocked)
			return
		}
		locked = append(locked, k)
	}
	for _, k := range m.ReadKeys {
		t.Charge(p.HostStoreOp)
		if n.isLocked(k, m.TxnID) {
			fail(wire.StatusAbortLocked)
			return
		}
	}
	if m.LockOnly {
		// Lock-and-verify: the values came from one-sided READs; abort if
		// any moved since.
		for _, lv := range m.LockVers {
			t.Charge(p.HostStoreOp)
			if _, ver, _ := n.primary.read(lv.Key); ver != lv.Version {
				fail(wire.StatusAbortVersion)
				return
			}
		}
	} else {
		for _, k := range append(append([]uint64{}, m.ReadKeys...), m.LockKeys...) {
			t.Charge(p.HostStoreOp)
			v, ver, _ := n.primary.read(k)
			resp.Items = append(resp.Items, wire.KV{Key: k, Version: ver, Value: v})
		}
	}
	resp.Status = wire.StatusOK
	resp.Locked = m.LockKeys
	n.rnic.Send(t, src, resp)
}

func (n *Node) rpcValidate(t *hostrt.Thread, src int, m *wire.Validate) {
	n.rpcCost(t)
	p := n.cl.cfg.Params
	st := wire.StatusOK
	for _, it := range m.Items {
		t.Charge(p.HostStoreOp)
		if n.isLocked(it.Key, m.TxnID) {
			st = wire.StatusAbortLocked
			break
		}
		_, ver, _ := n.primary.read(it.Key)
		if ver != it.Version {
			st = wire.StatusAbortVersion
			break
		}
	}
	n.rnic.Send(t, src, &wire.ValidateResp{
		Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)}, Status: st,
	})
}

func (n *Node) rpcLog(t *hostrt.Thread, src int, m *wire.Log) {
	n.rpcCost(t)
	n.appendBackupRecord(m.TxnID, m.Writes)
	n.rnic.Send(t, src, &wire.LogResp{
		Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)}, Status: wire.StatusOK,
	})
}

// appendBackupRecord queues a replicated write set for host application.
func (n *Node) appendBackupRecord(txn uint64, writes []wire.KV) {
	shard := n.cl.Placement().ShardOf(writes[0].Key)
	n.applyq = append(n.applyq, logRecord{txn: txn, shard: shard, writes: writes})
	n.host.WakeAll()
}

func (n *Node) rpcCommit(t *hostrt.Thread, src int, m *wire.Commit) {
	n.rpcCost(t)
	n.applyCommit(t, m.TxnID, m.Writes)
	n.rnic.Send(t, src, &wire.CommitResp{
		Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)}, Status: wire.StatusOK,
	})
}

// applyCommit installs committed writes at the primary and unlocks.
func (n *Node) applyCommit(t *hostrt.Thread, txn uint64, writes []wire.KV) {
	p := n.cl.cfg.Params
	for _, kv := range writes {
		if n.cl.Placement().IsBTree(kv.Key) {
			t.Charge(p.HostBTreeOp)
		} else {
			t.Charge(p.HostStoreOp)
		}
		n.primary.apply(kv.Key, kv.Value, kv.Version)
		n.unlock(kv.Key, txn)
	}
}

func (n *Node) rpcAbort(t *hostrt.Thread, m *wire.Abort) {
	n.rpcCost(t)
	for _, k := range m.LockedKeys {
		n.unlock(k, m.TxnID)
	}
}

// hostIdle applies pending backup records, then runs the thread's
// coordinator pass (retries, injected arrivals, closed-loop top-up).
func (n *Node) hostIdle(t *hostrt.Thread) bool {
	did := n.applyBackupRecords(t)
	return n.app.Idle(t) || did
}

// applyBackupRecords drains a bounded batch of replicated write sets.
func (n *Node) applyBackupRecords(t *hostrt.Thread) bool {
	p := n.cl.cfg.Params
	did := false
	for i := 0; i < 16 && n.apHead < len(n.applyq); i++ {
		r := n.applyq[n.apHead]
		n.apHead++
		did = true
		b, ok := n.backups[r.shard]
		if !ok {
			panic(fmt.Sprintf("baseline: node %d applying record for shard %d", n.id, r.shard))
		}
		for _, kv := range r.writes {
			if n.cl.Placement().IsBTree(kv.Key) {
				t.Charge(p.HostBTreeOp)
			} else {
				t.Charge(p.HostStoreOp)
			}
			b.apply(kv.Key, kv.Value, kv.Version)
		}
	}
	if did && n.apHead == len(n.applyq) {
		// Drained: release the applied write sets and reuse the array.
		clear(n.applyq)
		n.applyq, n.apHead = n.applyq[:0], 0
	}
	return did
}

// commitTxn records and finalizes tx's committed outcome.
func (n *Node) commitTxn(t *hostrt.Thread, tx *btxn) {
	n.record(t, tx, wire.StatusOK)
	n.app.Complete(t, &tx.Txn, wire.StatusOK)
}

// retryTxn records the aborted attempt and re-queues tx with backoff (or
// fails it once retries are exhausted).
func (n *Node) retryTxn(t *hostrt.Thread, tx *btxn, st wire.Status) {
	n.record(t, tx, st)
	tx.reset()
	n.app.Retry(t, &tx.Txn, st)
}

// record files tx's attempt with outcome st in the history (DESIGN.md §9):
// its reads, and when it committed, the versions it installed.
func (n *Node) record(t *hostrt.Thread, tx *btxn, st wire.Status) {
	var writes []wire.KV
	if st == wire.StatusOK {
		writes = tx.Writes
	}
	n.cl.History().Record(check.TxnRecord{ID: tx.ID, Node: n.id, Status: st, Start: tx.Start, End: t.Now()}, tx.Reads, writes)
}

// shardOf is shorthand for the cluster placement.
func (n *Node) shardOf(key uint64) int { return n.cl.Placement().ShardOf(key) }

// chargeLocal charges the host cost of touching a local key.
func (n *Node) chargeLocal(t *hostrt.Thread, key uint64) {
	if n.cl.Placement().IsBTree(key) {
		t.Charge(n.cl.cfg.Params.HostBTreeOp)
	} else {
		t.Charge(n.cl.cfg.Params.HostStoreOp)
	}
}
