package chassis

import (
	"sort"

	"xenic/internal/hostrt"
	"xenic/internal/metrics"
	"xenic/internal/sim"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// This file is the application-thread driver: each node's coordinator threads
// launch injected arrivals, top up the closed-loop window, relaunch aborted
// transactions after a back-off, and account final outcomes.

// TxnID packs (node, thread, sequence) so ids are globally unique and the
// host router can find the owning application thread.
func TxnID(node, thread int, seq uint32) uint64 {
	return uint64(node)<<40 | uint64(thread)<<32 | uint64(seq)
}

// TxnThread returns the application thread that owns transaction id.
func TxnThread(id uint64) int { return int(id>>32) & (MaxAppThreads - 1) }

// TxnNode returns the node that coordinates transaction id.
func TxnNode(id uint64) int { return int(id >> 40) }

// Stats aggregates one node's transaction outcomes.
type Stats struct {
	Committed int64 // committed transactions
	Measured  int64 // committed transactions the workload counts (e.g. new orders)
	Failed    int64 // transactions abandoned after MaxRetries
	Aborts    int64 // abort events (each triggers a retry until the cap)
	// UpdateKeysCommitted counts update keys across committed transactions;
	// correctness tests compare it against observable state (e.g. counter
	// sums) to detect lost or duplicated updates.
	UpdateKeysCommitted int64
	Latency             *metrics.Histogram
	// AbortReasons breaks Aborts down by wire.Status.
	AbortReasons [wire.NumStatuses]int64
	// Read-only transaction breakdown (see Protocol.ReadOnlyBreakdown).
	ROCommitted int64 // committed read-only transactions
	ROAborts    int64 // abort events of read-only transactions
	ROLatency   *metrics.Histogram
	// Snapshot-path counters, maintained by protocols with lock-free
	// snapshot reads (Xenic under MVCC, DESIGN.md §12); zero elsewhere.
	SnapCommitted int64 // read-only commits served by the snapshot path
	SnapInline    int64 // snapshot keys resolved from the NIC version cache
	SnapWalks     int64 // snapshot keys resolved by a DMA chain walk
}

// Txn is one application transaction across its attempts. The chassis owns
// the header fields; a retry is a fresh attempt under a new ID.
type Txn struct {
	ID    uint64
	Desc  *txnmodel.TxnDesc
	Start sim.Time
	// Attempt is the protocol's per-attempt state. A protocol that keeps some
	// embeds Txn in that state and points Attempt back at it from NewTxn, so
	// header and state share one allocation.
	Attempt any

	at        *appThread
	retries   int
	notBefore sim.Time
	done      func(ok bool) // injected arrival's completion callback, else nil
}

// injected is one arrival handed to InjectTxn, queued until the owning
// application thread's next idle pass launches it.
type injected struct {
	desc *txnmodel.TxnDesc
	done func(ok bool)
}

// appThread is the per-application-thread coordinator state.
type appThread struct {
	node        *Node
	id          int
	seq         uint32
	inflight    map[uint64]*Txn
	outstanding int
	retryq      []*Txn
	injectq     []injected
	// retrySpare ping-pongs with retryq each idle pass, like the host
	// thread inboxes; ready is the pass's scratch list of expired retries.
	// Both are cleared before reuse, so they hold no finished transaction.
	retrySpare []*Txn
	ready      []*Txn
}

func (at *appThread) nextID() uint64 {
	at.seq++
	return TxnID(at.node.id, at.id, at.seq)
}

// Node is the application side of one server: its host runtime, coordinator
// threads and outcome counters.
type Node struct {
	ch      *Chassis
	id      int
	host    *hostrt.Host
	threads []*appThread
	stats   Stats
}

// Host returns the node's host runtime.
func (n *Node) Host() *hostrt.Host { return n.host }

// Stats returns a pointer to the node's counters (live).
func (n *Node) Stats() *Stats { return &n.stats }

// Lookup returns the in-flight transaction currently running as id, or nil.
func (n *Node) Lookup(id uint64) *Txn { return n.threads[TxnThread(id)].inflight[id] }

// Outstanding counts the node's launched, unfinished transactions.
func (n *Node) Outstanding() int {
	v := 0
	for _, at := range n.threads {
		v += at.outstanding
	}
	return v
}

// InjectTxn submits one transaction on the given node's application thread
// at the current instant (the load.Driver surface). done, if non-nil, fires
// exactly once at the transaction's final outcome. Injecting into a crashed
// node fails immediately; a crash after injection fails the in-flight
// transactions when the node restarts (Node.Reset).
func (ch *Chassis) InjectTxn(node, thread int, d *txnmodel.TxnDesc, done func(ok bool)) {
	n := ch.nodes[node]
	if !ch.proto.Alive(node) {
		if done != nil {
			done(false)
		}
		return
	}
	at := n.threads[thread]
	at.injectq = append(at.injectq, injected{desc: d, done: done})
	n.host.Thread(thread).Wake()
}

// Idle is application thread t's per-iteration hook: it relaunches
// transactions whose back-off expired, launches queued arrivals, and tops up
// the closed-loop window. It reports whether it did any work.
func (n *Node) Idle(t *hostrt.Thread) bool {
	at := n.threads[t.ID()]
	p := &n.ch.proto
	did := false
	// Snapshot the queue first: launching can synchronously abort and
	// re-append to at.retryq, which is the spare array until the walk ends.
	q := at.retryq
	at.retryq = at.retrySpare[:0]
	ready := at.ready[:0]
	for _, tx := range q {
		switch {
		case tx.notBefore > t.Now():
			at.retryq = append(at.retryq, tx)
		case p.DeferRetryLaunch:
			ready = append(ready, tx)
		default:
			did = true
			p.Launch(t, n.id, tx)
		}
	}
	clear(q)
	at.retrySpare = q[:0]
	for _, tx := range ready {
		did = true
		p.Launch(t, n.id, tx)
	}
	clear(ready)
	at.ready = ready[:0]
	if len(at.retryq) > 0 {
		// One wake-up at the earliest expiry suffices: that pass recomputes
		// the next. Taken over the post-launch queue so retries re-appended by
		// synchronous aborts keep their wake-up too.
		earliest := at.retryq[0].notBefore
		for _, tx := range at.retryq[1:] {
			earliest = min(earliest, tx.notBefore)
		}
		t.At(earliest-t.Now(), t.WakeFn())
	}
	// Snapshot again: launching can synchronously complete, and the
	// completion callback can inject again.
	inj := at.injectq
	at.injectq = nil
	for _, in := range inj {
		did = true
		n.begin(t, at, in.desc, in.done)
	}
	if !n.ch.loadOn {
		return did
	}
	for at.outstanding < n.ch.cfg.Outstanding {
		did = true
		n.begin(t, at, n.ch.gen.Next(n.id, at.id, t.Rand()), nil)
	}
	return did
}

// begin launches the first attempt of a new transaction.
func (n *Node) begin(t *hostrt.Thread, at *appThread, d *txnmodel.TxnDesc, done func(ok bool)) {
	tx := n.ch.proto.NewTxn()
	tx.ID, tx.Desc, tx.Start, tx.at, tx.done = at.nextID(), d, t.Now(), at, done
	at.inflight[tx.ID] = tx
	at.outstanding++
	if d.GenCost > 0 {
		t.Charge(d.GenCost)
	}
	n.ch.proto.Launch(t, n.id, tx)
}

// Complete records tx's final outcome, frees its window slot and fires the
// injected arrival's callback.
func (n *Node) Complete(t *hostrt.Thread, tx *Txn, st wire.Status) {
	delete(tx.at.inflight, tx.ID)
	tx.at.outstanding--
	s := &n.stats
	if st == wire.StatusOK {
		ro := tx.Desc.ReadOnly()
		s.Committed++
		s.UpdateKeysCommitted += int64(len(tx.Desc.UpdateKeys))
		if ro {
			s.ROCommitted++
		}
		if n.ch.gen.Measure(tx.Desc) {
			s.Measured++
			s.Latency.Record(t.Now() - tx.Start)
			if ro {
				s.ROLatency.Record(t.Now() - tx.Start)
			}
		}
	} else {
		s.Failed++
	}
	if tx.done != nil {
		tx.done(st == wire.StatusOK)
	}
}

// Retry counts an abort of tx with reason st and re-queues it under a fresh
// id after a capped-exponential randomized back-off — or, past the retry
// cap, completes it as failed.
func (n *Node) Retry(t *hostrt.Thread, tx *Txn, st wire.Status) {
	s := &n.stats
	s.Aborts++
	if tx.Desc.ReadOnly() {
		s.ROAborts++
	}
	if int(st) < len(s.AbortReasons) {
		s.AbortReasons[st]++
	}
	tx.retries++
	if tx.retries > n.ch.cfg.MaxRetries {
		n.Complete(t, tx, st)
		return
	}
	at := tx.at
	delete(at.inflight, tx.ID)
	tx.ID = at.nextID()
	at.inflight[tx.ID] = tx
	p := &n.ch.proto
	backoff := sim.Backoff(t.Rand(), p.BackoffBase, p.BackoffMax, tx.retries-1)
	tx.notBefore = t.Now() + backoff
	at.retryq = append(at.retryq, tx)
	t.At(backoff, t.WakeFn())
}

// Reset wipes the application threads for a node restart: a coordinator
// crash loses their state, and load sources must see the lost transactions'
// slots released, so every injected one still held fails — in-flight first
// (in id order, so the callback sequence is deterministic despite map
// iteration), then the un-launched queue. Sequence counters survive so
// retried ids stay globally unique, and so do the counters, so Measure
// windows keep working across the restart.
func (n *Node) Reset() {
	for _, at := range n.threads {
		ids := make([]uint64, 0, len(at.inflight))
		for id, tx := range at.inflight {
			if tx.done != nil {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			at.inflight[id].done(false)
		}
		for _, in := range at.injectq {
			if in.done != nil {
				in.done(false)
			}
		}
		at.inflight = map[uint64]*Txn{}
		at.outstanding = 0
		at.retryq = nil
		at.injectq = nil
	}
}

// Measure runs warmup, resets the windowed statistics, runs the measurement
// window, and aggregates cluster-wide results. If load is not yet running it
// starts whatever generator is attached — never the closed loop when a load
// source is driving (pinned by TestMeasureStartsAttachedSource).
func (ch *Chassis) Measure(warmup, window sim.Time) txnmodel.Result {
	if !ch.srcOn {
		ch.Start()
	}
	ch.Run(warmup)
	before := make([]Stats, len(ch.nodes))
	for i, n := range ch.nodes {
		before[i] = n.stats
		n.stats.Latency.Reset()
		n.stats.ROLatency.Reset()
	}
	if ch.proto.Window != nil {
		ch.proto.Window()
	}
	ch.Run(window)
	res := txnmodel.Result{Duration: window}
	lat, roLat := metrics.NewHistogram(), metrics.NewHistogram()
	for i, n := range ch.nodes {
		s, b := &n.stats, &before[i]
		reason := func(st wire.Status) int64 { return s.AbortReasons[st] - b.AbortReasons[st] }
		res.Committed += s.Committed - b.Committed
		res.Measured += s.Measured - b.Measured
		res.Aborts += s.Aborts - b.Aborts
		res.Failed += s.Failed - b.Failed
		// Every abort status lands in the breakdown, so the per-reason fields
		// always sum to Aborts.
		res.AbortLocked += reason(wire.StatusAbortLocked)
		res.AbortVersion += reason(wire.StatusAbortVersion)
		res.AbortMissing += reason(wire.StatusAbortMissing)
		res.AbortView += reason(wire.StatusAbortView)
		res.AbortTimeout += reason(wire.StatusAbortTimeout)
		res.AbortSnapshot += reason(wire.StatusAbortSnapshot)
		res.SnapCommitted += s.SnapCommitted - b.SnapCommitted
		lat.Merge(s.Latency)
		if ch.proto.ReadOnlyBreakdown {
			res.ROCommitted += s.ROCommitted - b.ROCommitted
			res.ROAborts += s.ROAborts - b.ROAborts
			roLat.Merge(s.ROLatency)
		}
	}
	res.PerServerTput = float64(res.Measured) / window.Seconds() / float64(len(ch.nodes))
	res.Median = lat.Median()
	res.P99 = lat.Quantile(0.99)
	res.Mean = lat.Mean()
	if ch.proto.ReadOnlyBreakdown {
		res.ROMedian = roLat.Median()
		res.ROP99 = roLat.Quantile(0.99)
	}
	return res
}
