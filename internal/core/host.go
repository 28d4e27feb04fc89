package core

import (
	"fmt"

	"xenic/internal/chassis"
	"xenic/internal/check"
	"xenic/internal/hostrt"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// This file implements the host side of a Xenic node: coordinator
// application threads that generate transactions, run host-side execution
// rounds, and handle completions (including the local-transaction fast path
// of §4.2.4), and Robinhood worker threads that apply logged write sets to
// the primary and backup stores (§4.2 step 7).

// workerBatch bounds log records applied per worker iteration.
const workerBatch = 16

// hostHandler dispatches messages delivered to host threads.
func (n *Node) hostHandler(t *hostrt.Thread, src int, m wire.Msg) {
	if !n.alive {
		return
	}
	switch m := m.(type) {
	case *wire.ReadReturn:
		n.hostExec(t, m)
	case *wire.TxnDone:
		n.hostDone(t, m)
		// The outcome's single release point: the host reads only its
		// status, and a packet to a dead host is left to the collector.
		clear(m.ReadSet)
		n.doneMsgs.put(m)
	default:
		panic(fmt.Sprintf("core: host %d: unexpected message %T", n.id, m))
	}
}

// hostRouter steers NIC->host messages to the owning application thread.
func (n *Node) hostRouter(m wire.Msg) int {
	return chassis.TxnThread(m.(interface{ GetTxnID() uint64 }).GetTxnID())
}

// hostIdle is the per-iteration hook: application threads submit load and
// retries; worker threads drain the log.
func (n *Node) hostIdle(t *hostrt.Thread) bool {
	if !n.alive {
		return false
	}
	if n.rejoin != nil && !n.rejoin.viewSeen {
		return false // restarting: park until the join view arrives
	}
	if t.ID() < n.cl.cfg.AppThreads {
		return n.app.Idle(t)
	}
	return n.workerIdle(t)
}

// allLocal reports whether every key of d is served by this node in the
// current view.
func (n *Node) allLocal(d *txnmodel.TxnDesc) bool {
	for _, k := range d.ReadKeys {
		if n.primaryNode(n.place().ShardOf(k)) != n.id {
			return false
		}
	}
	for i := 0; i < d.NumWriteKeys(); i++ {
		if n.primaryNode(n.place().ShardOf(d.WriteKey(i))) != n.id {
			return false
		}
	}
	return true
}

// hostPacket is one host->NIC PCIe packet in flight, pooled per node: the
// mirror of the NIC's host-bound packets. fire, bound once, hands the batch
// to the NIC; FromHost keeps only the batch (whose array comes back through
// Host.Recycle), so the record returns to the freelist as soon as it returns.
type hostPacket struct {
	n    *Node
	ms   []wire.Msg
	fire func() // deliver, bound when the record is first created
}

// toNIC is the host's transmit function: it posts one outbox batch to the
// node's SmartNIC after the PCIe crossing.
func (n *Node) toNIC(t *hostrt.Thread, ms []wire.Msg) {
	pkt := n.hostPkts.get()
	if pkt.fire == nil {
		pkt.fire = pkt.deliver
	}
	pkt.n, pkt.ms = n, ms
	t.At(n.cl.cfg.Params.HostToNIC, pkt.fire)
}

func (pkt *hostPacket) deliver() {
	n := pkt.n
	n.nic.FromHost(pkt.ms)
	*pkt = hostPacket{fire: pkt.fire}
	n.hostPkts.put(pkt)
}

// submit launches (or relaunches) a transaction.
func (n *Node) submit(t *hostrt.Thread, tx *chassis.Txn) {
	if n.allLocal(tx.Desc) {
		n.submitLocal(t, tx)
		return
	}
	n.submitRemote(t, tx)
}

// submitRemote hands the transaction to the coordinator NIC.
func (n *Node) submitRemote(t *hostrt.Thread, tx *chassis.Txn) {
	d := tx.Desc
	req := &wire.TxnRequest{
		Header:    wire.Header{TxnID: tx.ID, Src: uint8(n.id)},
		FnID:      d.FnID,
		ReadKeys:  d.ReadKeys,
		WriteKeys: d.UpdateKeys,
		WriteSet:  n.observeBlind(t, d),
		ExecState: d.State,
	}
	if d.NICExec {
		req.Flags |= wire.FlagNICExec
	}
	t.Send(req)
}

// observeBlind stamps blind writes with their currently observed versions.
// B+tree blind writes (coordinator-local) are read at the host here; hash
// blind writes keep version 0 — their primaries report versions at lock
// time.
func (n *Node) observeBlind(t *hostrt.Thread, d *txnmodel.TxnDesc) []wire.KV {
	if len(d.BlindWrites) == 0 {
		return nil
	}
	out := make([]wire.KV, len(d.BlindWrites))
	copy(out, d.BlindWrites)
	for i := range out {
		if !n.place().IsBTree(out[i].Key) {
			continue
		}
		p := n.prim(n.place().ShardOf(out[i].Key))
		if p == nil {
			// Not the primary (the shard moved after this node rejoined):
			// the serving primary reports the version at lock time instead,
			// like a hash blind write.
			continue
		}
		t.Charge(n.cl.cfg.Params.HostBTreeOp)
		_, ver, _ := p.data.Read(out[i].Key)
		out[i].Version = ver
	}
	return out
}

// submitLocal runs the local-transaction fast path (§4.2.4): optimistic
// host-side execution against the host store; read-only transactions
// complete entirely at the host, write transactions send their validated
// state to the NIC for replication.
func (n *Node) submitLocal(t *hostrt.Thread, tx *chassis.Txn) {
	d := tx.Desc
	if d.FnID == 0 && d.ReadOnly() && n.cl.snapReady() {
		// MVCC read-only fast path (DESIGN.md §12): read the host version
		// chains at one snapshot timestamp, no validation.
		n.snapLocal(t, tx)
		return
	}
	// The request is a pooled record (released by dropCtxn, or below on every
	// exit that never sends it), reads is the node's scratch and the
	// execution builds its writes in the node's rows, whose Writes slice is
	// scratch too. All of it is done with before complete or Retry, which may
	// launch the thread's next transaction and so re-enter here: the writes
	// are copied into the request or their rows given back.
	req := n.localReqs.get()
	*req = wire.TxnRequest{
		Header:        wire.Header{TxnID: tx.ID, Src: uint8(n.id)},
		Flags:         wire.FlagLocal,
		WriteSet:      req.WriteSet[:0],
		LocalReadVers: req.LocalReadVers[:0],
	}
	reads, readVers := n.localReads[:0], req.LocalReadVers
	release := func() {
		clear(reads)
		n.localReads = reads[:0]
		req.LocalReadVers = readVers
		n.putLocalReq(req)
	}
	for _, k := range d.ReadKeys {
		v, ver, _ := n.readLocal(t, k)
		reads = append(reads, wire.KV{Key: k, Version: ver, Value: v})
		readVers = append(readVers, wire.KeyVer{Key: k, Version: ver})
	}
	for _, k := range d.UpdateKeys {
		v, ver, _ := n.readLocal(t, k)
		reads = append(reads, wire.KV{Key: k, Version: ver, Value: v})
	}
	for _, kv := range d.BlindWrites {
		_, ver, _ := n.readLocal(t, kv.Key)
		reads = append(reads, wire.KV{Key: kv.Key, Version: ver})
	}
	// The versions the write set is checked against: the update and blind
	// write keys' reads, latest wins.
	writeReads := reads[len(d.ReadKeys):len(reads):len(reads)]

	var writes []wire.KV
	if d.FnID != 0 {
		fn, ok := n.cl.Registry().Get(d.FnID)
		if !ok {
			panic(fmt.Sprintf("core: unknown fn %d", d.FnID))
		}
		for round := 0; ; round++ {
			t.Charge(fn.HostCost)
			res := fn.Run(d.State, reads, &n.rows)
			if res.Abort {
				n.releaseRows(res.Writes)
				n.recordLocal(t, tx, check.TxnRecord{Status: wire.StatusAbortMissing}, nil)
				release()
				n.complete(t, tx, wire.StatusAbortMissing)
				return
			}
			if len(res.MoreReads) == 0 {
				writes = res.Writes
				break
			}
			n.releaseRows(res.Writes) // only the final round's writes count
			for _, k := range res.MoreReads {
				if n.primaryNode(n.place().ShardOf(k)) != n.id {
					// The execution chased a pointer off this node: the
					// transaction is not local after all. Restart it on
					// the distributed path (nothing is locked yet).
					release()
					n.submitRemote(t, tx)
					return
				}
			}
			for _, k := range res.MoreReads {
				v, ver, _ := n.readLocal(t, k)
				reads = append(reads, wire.KV{Key: k, Version: ver, Value: v})
				readVers = append(readVers, wire.KeyVer{Key: k, Version: ver})
			}
		}
	}

	if d.ReadOnly() && len(writes) == 0 {
		// Validate at the host table and finish with no PCIe traffic. A
		// read-only transaction reads no update or blind-write key, so
		// reads holds exactly readVers' keys and versions.
		st := wire.StatusOK
		for _, rv := range readVers {
			t.Charge(n.cl.cfg.Params.HostStoreOp)
			p := n.prim(n.place().ShardOf(rv.Key))
			// §4.2 step 4 applies to this path too: each key must be
			// unlocked AND at its expected version, exactly like
			// serverValidate and coordLocalCommit. A version-only check
			// reads a validated-but-unapplied writer's pre-commit value
			// during its lock window — normally a few microseconds, but
			// crash/restart state transfer congests log replication and
			// stretches it past 50us, where the high-skew sweep caught
			// read-only transactions committing non-serializable reads.
			if p.index.IsLocked(rv.Key, tx.ID) {
				st = wire.StatusAbortLocked
				break
			}
			if _, ver, _ := p.data.Read(rv.Key); ver != rv.Version {
				st = wire.StatusAbortVersion
				break
			}
		}
		n.recordLocal(t, tx, check.TxnRecord{Status: st}, reads)
		release()
		if st == wire.StatusOK {
			n.complete(t, tx, st)
		} else {
			n.app.Retry(t, tx, st)
		}
		return
	}

	// Assemble the full write set — the execution's writes, then the blind
	// writes — with observed versions; the NIC locks, validates, and
	// replicates.
	out := req.WriteSet
	for _, part := range [2][]wire.KV{writes, d.BlindWrites} {
		for _, kv := range part {
			prior, ok := txnmodel.LastKV(writeReads, kv.Key)
			ver := prior.Version
			if !ok {
				t.Charge(n.cl.cfg.Params.HostStoreOp)
				_, ver, _ = n.readLocal(t, kv.Key)
			}
			out = append(out, wire.KV{Key: kv.Key, Version: ver, Value: kv.Value})
		}
	}
	req.WriteSet, req.LocalReadVers = out, readVers
	req.ExecWrites = uint16(len(writes))
	clear(reads)
	n.localReads = reads[:0]
	t.Send(req)
}

// releaseRows gives the rows of an execution's writes back to the node's
// Rows, for an attempt whose writes no log record, replica or message holds.
func (n *Node) releaseRows(writes []wire.KV) {
	for _, kv := range writes {
		n.rows.Release(kv.Value)
	}
}

// putLocalReq returns a host-local request to the node's freelist. Its write
// set's values are cleared so a pooled request pins no row; the record is
// reset again when taken.
func (n *Node) putLocalReq(req *wire.TxnRequest) {
	clear(req.WriteSet)
	n.localReqs.put(req)
}

// snapLocal runs a read-only transaction on the MVCC snapshot path without
// leaving the host (the §4.2.4 local fast path crossed with DESIGN.md §12):
// every key resolves from the host version chains at one snapshot
// timestamp, with no validation pass. Host callbacks run atomically at one
// simulated instant, so no commit can interleave — the reads are still
// served at S rather than "latest" to keep the recorded history uniform
// with the distributed snapshot path.
func (n *Node) snapLocal(t *hostrt.Thread, tx *chassis.Txn) {
	S := n.cl.snapTS()
	d := tx.Desc
	reads := n.localReads[:0]
	r := check.TxnRecord{Status: wire.StatusOK, Snapshot: true, SnapshotTS: S}
	for _, k := range d.ReadKeys {
		p := n.prim(n.place().ShardOf(k))
		if n.place().IsBTree(k) {
			t.Charge(n.cl.cfg.Params.HostBTreeOp)
		} else {
			t.Charge(n.cl.cfg.Params.HostStoreOp)
		}
		if p.mvFloor > S {
			// Shard promoted after S was picked; retry at a fresher S.
			r = check.TxnRecord{Status: wire.StatusAbortSnapshot}
			break
		}
		v, ver, exists, ok := p.data.ReadAt(k, S)
		if !ok {
			// Chain GC'd past S (long-lagging watermark); never contention.
			r = check.TxnRecord{Status: wire.StatusAbortSnapshot}
			break
		}
		kv := wire.KV{Key: k}
		if exists {
			kv.Version, kv.Value = ver, v
		}
		reads = append(reads, kv)
	}
	n.recordLocal(t, tx, r, reads)
	clear(reads)
	n.localReads = reads[:0] // before Retry or complete can re-enter
	if r.Status != wire.StatusOK {
		n.app.Retry(t, tx, r.Status)
		return
	}
	n.stats.SnapCommitted++
	n.complete(t, tx, wire.StatusOK)
}

// readLocal reads a key from one of this node's primary replicas, charging
// the appropriate host cost.
func (n *Node) readLocal(t *hostrt.Thread, key uint64) ([]byte, uint64, bool) {
	shard := n.place().ShardOf(key)
	p := n.prim(shard)
	if p == nil {
		panic(fmt.Sprintf("core: node %d: local read of remote key %d", n.id, key))
	}
	if n.place().IsBTree(key) {
		t.Charge(n.cl.cfg.Params.HostBTreeOp)
	} else {
		t.Charge(n.cl.cfg.Params.HostStoreOp)
	}
	return p.data.Read(key)
}

// hostExec runs one host-side execution round (§4.2 step 3).
func (n *Node) hostExec(t *hostrt.Thread, m *wire.ReadReturn) {
	tx := n.app.Lookup(m.TxnID)
	if tx == nil {
		return
	}
	d := tx.Desc
	fn, ok := n.cl.Registry().Get(d.FnID)
	if d.FnID == 0 || !ok {
		// No function: blind writes only.
		t.Send(&wire.WriteSet{Header: wire.Header{TxnID: m.TxnID, Src: uint8(n.id)}})
		return
	}
	t.Charge(fn.HostCost)
	res := fn.Run(d.State, m.Items, nil)
	ws := &wire.WriteSet{
		Header:    wire.Header{TxnID: m.TxnID, Src: uint8(n.id)},
		MoreReads: res.MoreReads,
		Abort:     res.Abort,
	}
	if len(res.MoreReads) == 0 {
		ws.Writes = res.Writes // only the final round's writes count
	}
	t.Send(ws)
}

// complete reports tx's final outcome to the application side and recycles
// its header: past Complete nothing holds tx — the host paths keep no
// per-transaction closures and find transactions by id — so the next
// transaction any application thread begins may reuse it.
func (n *Node) complete(t *hostrt.Thread, tx *chassis.Txn, st wire.Status) {
	n.app.Complete(t, tx, st)
	*tx = chassis.Txn{}
	n.cl.txFree.put(tx)
}

// hostDone handles a transaction outcome.
func (n *Node) hostDone(t *hostrt.Thread, m *wire.TxnDone) {
	tx := n.app.Lookup(m.TxnID)
	if tx == nil {
		return
	}
	if m.Status == wire.StatusOK {
		n.complete(t, tx, wire.StatusOK)
		return
	}
	n.app.Retry(t, tx, m.Status)
}

// workerIdle applies visible log records: backup records to backup
// replicas, commit records to the primary (acking so the NIC can unpin).
// Under MVCC, applies maintain version chains, and a commit record applied
// at the shard's current primary discharges its pending entry so the
// snapshot watermark can advance.
func (n *Node) workerIdle(t *hostrt.Thread) bool {
	did := false
	for i := 0; i < workerBatch; i++ {
		r, ok := n.log.claim()
		if !ok {
			break
		}
		did = true
		for ki, kv := range r.writes {
			if n.place().IsBTree(kv.Key) {
				t.Charge(n.cl.cfg.Params.HostBTreeOp)
			} else {
				t.Charge(n.cl.cfg.Params.HostStoreOp)
			}
			var store *ShardData
			switch r.kind {
			case recBackup:
				b, ok := n.backups[r.shard]
				if !ok {
					panic(fmt.Sprintf("core: node %d applying backup record for shard %d", n.id, r.shard))
				}
				store = b
			case recCommit:
				p := n.prim(r.shard)
				if p == nil {
					panic(fmt.Sprintf("core: node %d applying commit record for shard %d", n.id, r.shard))
				}
				store = p.data
			}
			n.applyKV(store, &r, ki, kv)
		}
		if r.kind == recCommit {
			if r.cts != 0 {
				n.cl.mv.applied(r.cts, r.shard)
			}
			t.Send(&wire.LogApplyAck{
				Header: wire.Header{TxnID: r.txn, Src: uint8(n.id)},
				Seq:    r.seq,
			})
		}
	}
	return did
}

// applyKV installs one write of a log record, maintaining version chains
// when the record carries MVCC timestamps. State-transfer chunk records
// (per-KV kvTS) install as snapshot bases without history.
//
// Only commit records — primary applies — maintain chains. Backup replicas
// never serve snapshot reads, and a backup promoted to primary is safe with
// missing or understated chain head timestamps: the promotion fence parks
// the snapshot path until stable passes every timestamp assigned before the
// episode, so every post-resume snapshot reads at an S at or above the cts
// of any row the backup applied chain-less. An understated headTS can then
// only re-serve exactly the row such a snapshot would see anyway. Skipping
// backup chains removes two thirds of the MVCC bookkeeping on the update
// hot path at Replication=3.
func (n *Node) applyKV(store *ShardData, r *logRecord, ki int, kv wire.KV) {
	if len(r.kvTS) > 0 {
		var ts uint64
		if ki < len(r.kvTS) {
			ts = r.kvTS[ki]
		}
		store.ApplyBase(kv, ts)
		return
	}
	if r.cts != 0 && r.kind == recCommit {
		store.ApplyTS(kv, r.cts, n.cl.mv.keep, n.cl.mv.lwm())
		return
	}
	store.Apply(kv)
}

// wakeWorkers nudges the worker threads when the NIC appends log records.
func (n *Node) wakeWorkers() {
	for i := n.cl.cfg.AppThreads; i < n.host.Threads(); i++ {
		n.host.Thread(i).Wake()
	}
}
