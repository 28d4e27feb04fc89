package core

import (
	"fmt"

	"xenic/internal/chassis"
	"xenic/internal/hostrt"
	"xenic/internal/metrics"
	"xenic/internal/nicrt"
	"xenic/internal/sim"
	"xenic/internal/store/nicindex"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// Stats aggregates one node's transaction outcomes: the counters every
// system keeps, plus Xenic's own.
type Stats struct {
	*chassis.Stats
	// PhaseLat records simulated time spent in each coordinator phase.
	PhaseLat [numPhases]*metrics.Histogram
	// Timeouts counts coordinator watchdog expirations by phase (fault runs).
	Timeouts [numPhases]int64
	// StaleDrops counts NIC messages discarded because their source was
	// evicted from the membership view or because their frame carried a
	// pre-(re)join epoch stamp (fault runs).
	StaleDrops int64
	// RecoveryRefreshes counts in-flight recovery votes restarted because a
	// view change shrank or reshaped the surviving replica set.
	RecoveryRefreshes int64
}

// primaryShard is one shard this node currently serves as primary: its data
// replica and the SmartNIC index over it. Nodes start with one (their own
// shard) and may adopt more through recovery promotion (§4.2.1). An
// adopted shard is gated (!ready) until its log scan completes.
type primaryShard struct {
	data  *ShardData
	index *nicindex.Index
	ready bool
	// mvFloor fences MVCC snapshot reads after a promotion: the cluster
	// timestamp when this node adopted the shard. A snapshot read below it
	// was picked against the pre-failure primary and aborts (retrying at a
	// fresher timestamp once the fence episode ends).
	mvFloor uint64
}

// Node is one Xenic server: host threads, the on-path SmartNIC, the
// co-designed store, and the host-memory log.
type Node struct {
	cl   *Cluster
	id   int
	host *hostrt.Host
	nic  *nicrt.NIC

	prims   map[int]*primaryShard
	backups map[int]*ShardData
	log     *hostLog
	pins    map[uint64][]uint64 // commit-record seq -> (shard, pinned keys)
	pinIdx  map[uint64]*nicindex.Index

	ctxns map[uint64]*ctxn // coordinator-side NIC transaction state
	// Freelists of the per-transaction and per-operation records the NIC
	// handlers cycle through (DESIGN.md "Hot-path memory discipline"); each
	// has a single release point, named on its type.
	ctxnFree    freelist[ctxn]
	execFans    freelist[execFan]
	valFans     freelist[valFan]
	shipFans    freelist[shipFan]
	logAppends  freelist[logAppend]
	lookupOps   freelist[lookupOp]
	remoteLocks map[uint64][]uint64 // shipped txns' lock sets held here as remote primary
	app         *chassis.Node       // application threads: load, retries, outcome counters

	// Host-side freelists: the host->NIC packet (its type names the release
	// point), the host-local request (released by dropCtxn, or by
	// submitLocal when it never sends one) and the outcome message (released
	// by hostHandler); localReads is submitLocal's read scratch. rows lends
	// submitLocal's executions their write rows; a row comes back only from
	// an attempt no log record, replica or message saw (dropCtxn, and
	// submitLocal's exits that never send).
	hostPkts   freelist[hostPacket]
	localReqs  freelist[wire.TxnRequest]
	doneMsgs   freelist[wire.TxnDone]
	localReads []wire.KV
	rows       txnmodel.Rows

	recov map[txnShard]*recovering // in-flight recovery decisions
	// pendingDecide holds promoted-shard records whose (alive) coordinator
	// has yet to announce the outcome; their write keys stay locked.
	pendingDecide map[txnShard][]uint64

	alive bool // false after failure injection
	// viewAlive mirrors the latest membership view's liveness on fault runs
	// (nil otherwise); nicHandler drops messages from evicted nodes so
	// delayed frames cannot re-acquire state that recovery already swept.
	viewAlive []bool
	// joined mirrors the latest view's JoinedEpoch on fault runs: the epoch
	// of each node's most recent (re)join, 0 for nodes alive since boot.
	// nicHandler fences frames stamped before either endpoint's join, so a
	// restarted node's old incarnation cannot act on the new one.
	joined []int
	// rejoin is non-nil while this node is restarting: booting, pulling
	// state, or awaiting admission (see rejoin.go).
	rejoin *rejoinState
	// fwd holds per-shard state-transfer sessions this node serves as
	// primary: snapshot chunks plus live commit forwarding to the rejoiner.
	fwd   map[int]*xferSession
	stats Stats
}

// freelist is a LIFO of recycled records owned by one node or its cluster.
// A cluster runs on one goroutine and clusters share nothing, so it needs no
// lock; unlike the standard library's pool the collector never empties it,
// which keeps allocation counts — like everything else in a run — a function
// of the seed alone.
type freelist[T any] struct{ free []*T }

// get pops a recycled record, or allocates a zero one.
func (l *freelist[T]) get() *T {
	k := len(l.free)
	if k == 0 {
		return new(T)
	}
	x := l.free[k-1]
	l.free[k-1] = nil
	l.free = l.free[:k-1]
	return x
}

// put makes x available to the next get.
func (l *freelist[T]) put(x *T) { l.free = append(l.free, x) }

// faulty reports whether this cluster runs with fault injection; hardening
// paths (watchdogs, duplicate suppression, dead-peer gating) gate on it so
// fault-free runs are untouched.
func (n *Node) faulty() bool { return n.cl.cfg.Faults != nil }

// ID returns the node index.
func (n *Node) ID() int { return n.id }

// Alive reports whether the node is up — false between an injected crash
// and its restart.
func (n *Node) Alive() bool { return n.alive }

// Stats returns a pointer to the node's counters (live).
func (n *Node) Stats() *Stats { return &n.stats }

// NIC returns the node's SmartNIC.
func (n *Node) NIC() *nicrt.NIC { return n.nic }

// Host returns the node's host runtime.
func (n *Node) Host() *hostrt.Host { return n.host }

// Index returns the SmartNIC caching index over the node's own shard.
func (n *Node) Index() *nicindex.Index { return n.prims[n.id].index }

// Primary returns the node's replica of its own shard.
func (n *Node) Primary() *ShardData { return n.prims[n.id].data }

// PrimaryOf returns the node's replica of shard s if it currently serves
// it as primary (its own shard, or an adopted one).
func (n *Node) PrimaryOf(s int) (*ShardData, bool) {
	p, ok := n.prims[s]
	if !ok {
		return nil, false
	}
	return p.data, true
}

// prim returns the serving state for shard s, or nil.
func (n *Node) prim(s int) *primaryShard { return n.prims[s] }

// place is the cluster key placement.
func (n *Node) place() txnmodel.Placement { return n.cl.Placement() }

// nicHandler dispatches protocol messages arriving at NIC cores.
func (n *Node) nicHandler(c *nicrt.Core, src int, m wire.Msg) {
	if !n.alive {
		return // crashed node drops everything
	}
	if _, ok := m.(*wire.StateForward); ok && src != n.id {
		// Forward accounting happens before any fence: the sender counted the
		// forward in flight and the arrival must balance it even if dropped.
		if n.cl.fwdInFlight[n.id] > 0 {
			n.cl.fwdInFlight[n.id]--
		}
	}
	if n.rejoin != nil && !n.rejoin.viewSeen {
		// Booting after a restart: until the join view arrives this node has
		// no epoch to speak in and drops all traffic.
		n.stats.StaleDrops++
		return
	}
	if n.viewAlive != nil && src != n.id && !n.viewAlive[src] {
		// Delayed frame from a node the view evicted: recovery already swept
		// its state; processing it now would strand locks or resurrect
		// transactions the survivors decided.
		n.stats.StaleDrops++
		return
	}
	if n.joined != nil && src != n.id {
		// Epoch fence: frames stamped before either endpoint's latest
		// (re)join belong to a previous incarnation — a healed evictee must
		// not serve stale reads or acquire locks with them.
		if e := c.RxEpoch(); e < n.joined[src] || e < n.joined[n.id] {
			n.stats.StaleDrops++
			return
		}
	}
	switch m := m.(type) {
	// Coordinator side: each response is awaited in one phase (findTxn).
	case *wire.TxnRequest:
		n.coordStart(c, m)
	case *wire.WriteSet:
		if t := n.findTxn(m.TxnID, phHostExec); t != nil {
			n.execResult(c, t, txnmodel.ExecResult{Writes: m.Writes, MoreReads: m.MoreReads, Abort: m.Abort})
		}
	case *wire.ExecuteResp:
		n.coordExecuteResp(c, m)
	case *wire.ValidateResp:
		if t := n.findTxn(m.TxnID, phValidate); t != nil && n.lastPart(c, t, m.Status) {
			n.afterValidate(c, t)
		}
	case *wire.LogResp:
		if t := n.findTxn(m.TxnID, phLog); t != nil {
			if n.lastPart(c, t, wire.StatusOK) {
				n.commitPoint(c, t, t.Writes, t.ByShard)
			}
		} else if t := n.findTxn(m.TxnID, phShipped); t != nil {
			t.logAcks++
			n.maybeFinishShipped(c, t)
		}
	case *wire.CommitResp:
		if t := n.findTxn(m.TxnID, phCommit); t != nil && n.lastPart(c, t, wire.StatusOK) {
			n.dropCtxn(t, wire.StatusOK)
		}
	case *wire.ShipResult:
		n.coordShipResult(c, m)
	case *wire.LogApplyAck:
		n.handleLogAck(c, m)
	// Server side.
	case *wire.Execute:
		n.handleExecute(c, src, m)
	case *wire.Validate:
		n.handleValidate(c, src, m)
	case *wire.Log:
		n.handleLog(c, src, m)
	case *wire.Commit:
		n.handleCommit(c, src, m)
	case *wire.Abort:
		n.handleAbort(c, m)
	case *wire.ShipExec:
		n.handleShipExec(c, src, m)
	// Replication bookkeeping / recovery.
	case *wire.LogCommit:
		n.handleLogCommit(c, m)
	case *wire.RecoveryQuery:
		n.handleRecoveryQuery(c, src, m)
	case *wire.RecoveryResp:
		n.handleRecoveryResp(c, m)
	case *wire.RecoveryDecide:
		n.handleRecoveryDecide(c, m)
	// MVCC snapshot reads.
	case *wire.SnapshotRead:
		n.handleSnapshotRead(c, src, m)
	case *wire.SnapshotResp:
		n.coordSnapResp(c, m)
	// State transfer (rejoin after restart).
	case *wire.StatePull:
		n.handleStatePull(c, src, m)
	case *wire.StateChunk:
		n.handleStateChunk(c, src, m)
	case *wire.StateForward:
		n.handleStateForward(c, m)
	default:
		panic(fmt.Sprintf("core: node %d: unexpected message %T", n.id, m))
	}
}

// sendOrLoop sends m to node dst, or re-dispatches locally when dst is this
// node (e.g. a shipped transaction's Log whose RespondTo is a backup that
// is also the coordinator).
func (n *Node) sendOrLoop(c *nicrt.Core, dst int, m wire.Msg) {
	if dst == n.id {
		c.Charge(n.cl.cfg.Params.NICMsgHandle)
		n.nicHandler(c, n.id, m)
		return
	}
	c.Send(dst, m)
}

// handleLogAck unpins the cache entries of an applied commit record.
func (n *Node) handleLogAck(c *nicrt.Core, m *wire.LogApplyAck) {
	keys, ok := n.pins[m.Seq]
	if !ok {
		return // backup record or already processed
	}
	idx := n.pinIdx[m.Seq]
	delete(n.pins, m.Seq)
	delete(n.pinIdx, m.Seq)
	c.Charge(n.cl.cfg.Params.NICIndexOp)
	for _, k := range keys {
		idx.Unpin(k)
	}
}

// handleLogCommit marks a backup record decided so host workers apply it.
// If this node was promoted to primary for the shard while the decision was
// in flight, the record's recovery locks release through a full commit.
func (n *Node) handleLogCommit(c *nicrt.Core, m *wire.LogCommit) {
	c.Charge(n.cl.cfg.Params.NICIndexOp)
	shard := int(m.Shard)
	ts := txnShard{txn: m.TxnID, shard: shard}
	if keys, ok := n.pendingDecide[ts]; ok {
		delete(n.pendingDecide, ts)
		writes, has := n.log.has(m.TxnID, shard)
		n.log.markCommitted(m.TxnID, shard, m.CTS)
		if has {
			if m.CTS != 0 {
				// The promotion drain bulk-discharged this shard; the commit
				// now resolving is not host-applied here yet, so the snapshot
				// watermark must wait for it again (the snapshot fence is up
				// throughout, so no read observes the rollback).
				n.cl.mv.hold(m.CTS, shard)
			}
			n.commitShard(c, shard, m.TxnID, writes, keys, m.CTS, func() {})
		}
		n.wakeWorkers()
		return
	}
	n.log.markCommitted(m.TxnID, shard, m.CTS)
	n.wakeWorkers()
}

// chargeIndexOps charges k NIC index operations to the core.
func (n *Node) chargeIndexOps(c *nicrt.Core, k int) {
	c.Charge(sim.Time(k) * n.cl.cfg.Params.NICIndexOp)
}
