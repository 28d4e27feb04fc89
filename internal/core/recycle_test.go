package core

import (
	"encoding/binary"
	"slices"
	"testing"

	"xenic/internal/chassis"
	"xenic/internal/check"
	"xenic/internal/nicrt"
	"xenic/internal/raceflag"
	"xenic/internal/sim"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// TestViewAbortedCtxnNeverReissued is the recycling safety test. Coordinator
// records return to the node's freelist when their transaction ends — except
// one killed mid-flight, whose local continuations may still hold it. The
// scenario: a transaction is aborted by a view change while its local
// EXECUTE's DMA lookup is outstanding (the DMA engine is stalled to hold it
// there), a new transaction starts at the same coordinator, and then the
// straggler lands. The dead record must never be handed out again, so the
// straggler finds it still dead, releases the lock it took, and touches
// nothing of the new transaction.
func TestViewAbortedCtxnNeverReissued(t *testing.T) {
	g := &kvGen{keys: 400, keysPer: 3}
	feat := AllFeatures()
	feat.MultiHopOCC = false // take the EXECUTE path, with a local unit
	cfg := testConfig(4, feat)
	cfg.Seed = 1
	h := check.NewHistory()
	cl, err := New(cfg, g, Observers{History: h})
	if err != nil {
		t.Fatal(err)
	}
	n := cl.nodes[0]
	eng := cl.Engine()

	stepUntil := func(what string, cond func() bool) {
		t.Helper()
		for i := 0; i < 2_000_000 && !cond(); i++ {
			if !eng.Step() {
				t.Fatalf("engine ran dry waiting for %s", what)
			}
		}
		if !cond() {
			t.Fatalf("never reached: %s", what)
		}
	}
	inject := func(keys ...uint64) *bool {
		st := make([]byte, 2)
		binary.LittleEndian.PutUint16(st, uint16(len(keys)))
		done := new(bool)
		cl.InjectTxn(0, 0, &txnmodel.TxnDesc{UpdateKeys: keys, FnID: fnIncr, State: st},
			func(ok bool) { *done = ok })
		return done
	}
	only := func() *ctxn {
		for _, ct := range n.ctxns {
			return ct
		}
		return nil
	}

	// A warm-up transaction runs to its end and leaves its record behind.
	doneW := inject(8, 9)
	stepUntil("warm-up transaction done", func() bool { return *doneW && len(n.ctxns) == 0 })
	if len(n.ctxnFree.free) != 1 {
		t.Fatalf("freelist holds %d records after one transaction, want 1", len(n.ctxnFree.free))
	}
	rec := n.ctxnFree.free[0]
	idW := rec.id

	// Transaction A: local key 4 (never cached: its lookup goes to host memory
	// by DMA, which the stall holds back) and remote key 5.
	n.nic.StallDMA(40 * sim.Microsecond)
	doneA := inject(4, 5)
	stepUntil("A in its EXECUTE round", func() bool { return len(n.ctxns) == 1 })
	tA := only()
	idA := tA.id
	if tA != rec || idA == idW {
		t.Fatalf("A did not reuse the warm-up transaction's record (%p vs %p)", tA, rec)
	}
	if tA.phase != phExecute || tA.Pending != 2 || len(tA.Reads) != 0 || len(tA.Locked) != 0 {
		t.Fatalf("A not waiting on both EXECUTE units with clean state: phase=%v pending=%d reads=%d locked=%d",
			tA.phase, tA.Pending, len(tA.Reads), len(tA.Locked))
	}
	if got := countLocked(n, 0); got != 1 {
		t.Fatalf("local EXECUTE holds %d locks on shard 0, want 1", got)
	}

	// The view changes under A.
	n.nic.Inject(n.nic.CoreFor(idA), func(c *nicrt.Core) { n.abortInFlight(c, cl.view) })
	stepUntil("A aborted by the view change", func() bool { return tA.dead })
	notReissued := func() {
		t.Helper()
		if tA.id != idA || !tA.dead {
			t.Fatalf("dead record was reset: id %#x (was %#x) dead=%v", tA.id, idA, tA.dead)
		}
		for _, ct := range n.ctxns {
			if ct == tA {
				t.Fatal("dead record is back in the coordinator table")
			}
		}
		if slices.Contains(n.ctxnFree.free, tA) {
			t.Fatal("dead record is on the freelist")
		}
	}
	notReissued()
	if got := countLocked(n, 0); got != 1 {
		t.Fatalf("straggler's lock: %d locks on shard 0, want 1 still held", got)
	}

	// Transaction B starts at the same coordinator, on other shards' keys.
	doneB := inject(1, 2)
	var tB *ctxn
	stepUntil("B started", func() bool {
		notReissued()
		for _, ct := range n.ctxns {
			if slices.Equal(ct.desc.UpdateKeys, []uint64{1, 2}) {
				tB = ct
			}
		}
		return tB != nil
	})
	idB := tB.id
	if got := countLocked(n, 0); got != 1 {
		t.Fatalf("straggler landed before B started (%d locks on shard 0); the scenario lost its race", got)
	}

	// The straggler lands: it must release its lock and nothing else.
	stepUntil("straggler delivered", func() bool {
		notReissued()
		return countLocked(n, 0) == 0
	})
	if n.ctxns[idB] == tB && (tB.id != idB || tB.dead || tB.Failed != wire.StatusOK) {
		t.Fatalf("straggler disturbed B: id=%#x dead=%v failed=%v", tB.id, tB.dead, tB.Failed)
	}

	stepUntil("A (retried) and B done", func() bool {
		notReissued()
		return *doneA && *doneB
	})
	if !cl.Drain(200 * sim.Millisecond) {
		t.Fatal("cluster did not drain")
	}
	notReissued()
	if rep := h.Check(); !rep.Ok() {
		t.Fatalf("history not serializable:\n%s", rep.String())
	}
	if err := cl.AuditHistory(); err != nil {
		t.Fatal(err)
	}
}

// countSink counts the lookups that land in it.
type countSink struct{ landed int }

func (s *countSink) lookupLanded(_ *Node, _ *nicrt.Core, _ lookupDone) { s.landed++ }

// TestLookupMissAllocFree is the allocation budget of an index miss: once
// the node's lookupOp freelist and the core's DMA vectors have reached
// working size, lookupStart → lookupFinish → the chained DMA reads → the
// sink allocate nothing — the reads ride in the Result, the record is pooled
// with its continuation bound once, and the sink gets the result by value.
func TestLookupMissAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cl, err := New(testConfig(4, AllFeatures()), &kvGen{keys: 400, keysPer: 3}, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	n := cl.nodes[0]
	// Keys of shard 0 the population lacks: after the first miss each has a
	// metadata-only entry, so every lookup goes to host memory by DMA.
	keys := make([]uint64, 24)
	for i := range keys {
		keys[i] = uint64(1000 + 4*i)
	}
	sink := &countSink{}
	reads := 0
	job := func(c *nicrt.Core) {
		for _, k := range keys {
			res, hit := n.lookupStart(c, 0, k)
			if hit {
				t.Fatalf("key %d hit the NIC cache", k)
			}
			reads += len(res.Reads())
			n.lookupFinish(c, 0, sink, lookupDone{key: k, res: res})
		}
	}
	eng := cl.Engine()
	cycle := func() {
		want := sink.landed + len(keys)
		n.nic.Inject(0, job)
		for sink.landed < want {
			if !eng.Step() {
				t.Fatal("engine ran dry before every lookup landed")
			}
		}
	}
	cycle()
	cycle()
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Fatalf("warmed lookup-miss chain allocates %v objects per run, want 0", got)
	}
	if reads < 53*len(keys) {
		t.Fatalf("%d DMA reads over %d lookups: the lookups did not all miss", reads, 53*len(keys))
	}
	if free := len(n.lookupOps.free); free == 0 || free > len(keys) {
		t.Fatalf("lookupOp freelist holds %d records, want 1..%d", free, len(keys))
	}
}

// TestAbortKeysSurviveRecycle is the lock-list handoff test. A coordinator
// record keeps its per-shard lock-key lists across recycling, except a list
// handed to an ABORT: that one belongs to the message until it lands. The
// scenario: a transaction holding two locks on a remote shard aborts, its
// ABORT is held in flight by a stall of the remote NIC, and the recycled
// record is reused at once by a transaction locking two other keys on the
// same shard. The ABORT must arrive carrying the keys it was sent with.
func TestAbortKeysSurviveRecycle(t *testing.T) {
	cl, err := New(testConfig(4, AllFeatures()), &kvGen{keys: 400, keysPer: 3}, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	n, remote := cl.nodes[0], cl.nodes[1]
	eng := cl.Engine()
	stepUntil := func(what string, cond func() bool) {
		t.Helper()
		for i := 0; i < 100_000 && !cond(); i++ {
			if !eng.Step() {
				t.Fatalf("engine ran dry waiting for %s", what)
			}
		}
		if !cond() {
			t.Fatalf("never reached: %s", what)
		}
	}
	// Keys of shard 1; ids of application thread 0, which has no such
	// transaction in flight, so the outcomes reach the host and are dropped.
	first, second := []uint64{1, 5}, []uint64{9, 13}
	idA, idB := chassis.TxnID(0, 0, 1<<20), chassis.TxnID(0, 0, 1<<20+1)
	idx := remote.prim(1).index
	var arrived [][]uint64
	remote.nic.OnMessage(func(c *nicrt.Core, src int, m wire.Msg) {
		if a, ok := m.(*wire.Abort); ok {
			arrived = append(arrived, slices.Clone(a.LockedKeys))
		}
		remote.nicHandler(c, src, m)
	})
	for i := 0; i < remote.nic.Cores(); i++ {
		remote.nic.StallCore(i, 50*sim.Microsecond)
	}
	begin := func(id uint64, keys []uint64) *ctxn {
		tx := n.grabCtxn(id)
		n.openTxn(tx)
		for _, k := range keys {
			if !idx.TryLock(k, id) {
				t.Fatalf("key %d already locked", k)
			}
		}
		tx.AddLocks(1, keys...)
		return tx
	}

	var rec *ctxn
	n.nic.Inject(0, func(c *nicrt.Core) {
		rec = begin(idA, first)
		rec.Failed = wire.StatusAbortLocked
		n.abortTxn(c, rec)
	})
	stepUntil("A aborted", func() bool { return rec != nil })
	if !slices.Contains(n.ctxnFree.free, rec) {
		t.Fatal("A's record was not recycled")
	}
	var reused bool
	n.nic.Inject(0, func(c *nicrt.Core) {
		if tx := begin(idB, second); tx != rec {
			t.Fatalf("B did not reuse A's record (%p vs %p)", tx, rec)
		}
		reused = true
	})
	stepUntil("B holds A's record", func() bool { return reused })
	if len(arrived) != 0 {
		t.Fatal("the ABORT landed before the record was reused; the scenario lost its race")
	}
	stepUntil("ABORT delivered", func() bool { return len(arrived) > 0 })
	if !slices.Equal(arrived[0], first) {
		t.Fatalf("ABORT carried keys %v, sent with %v", arrived[0], first)
	}
	for _, k := range first {
		if idx.IsLocked(k, 0) {
			t.Errorf("key %d still locked after A's ABORT", k)
		}
	}
	for _, k := range second {
		if !idx.IsLocked(k, idA) {
			t.Errorf("B's lock on key %d was released", k)
		}
	}
}

// rowGen is kvGen with an execution function that builds its one write in a
// row its Rows lends, the way TPC-C builds a stock row, and takes its write
// set from the Rows' scratch.
type rowGen struct{ kvGen }

func (g *rowGen) Register(r *txnmodel.Registry) {
	r.Register(&txnmodel.ExecFunc{
		ID:       fnIncr,
		HostCost: 200 * sim.Nanosecond,
		Run: func(state []byte, reads []wire.KV, rows *txnmodel.Rows) txnmodel.ExecResult {
			v := rows.Row(8)
			binary.LittleEndian.PutUint64(v, reads[0].Version+1)
			w := rows.Writes(1)
			w[0] = wire.KV{Key: reads[0].Key, Value: v}
			return txnmodel.ExecResult{Writes: w}
		},
	})
}

// TestLocalAbortCycleAllocFree is the allocation budget of an aborted
// attempt on the local fast path (§4.2.4): the host reads into node scratch
// and executes into a row of the node's Rows and a pooled request, the
// host->NIC packet is a pooled record, the NIC fails to lock a key another
// transaction holds, gives the row back and reports the abort in a pooled
// TxnDone, and the host backs off and relaunches. Once the freelists are
// warm, the whole cycle allocates nothing.
func TestLocalAbortCycleAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const key = 4 // shard 0: local at node 0
	g := &rowGen{kvGen: kvGen{keys: 400, keysPer: 3}}
	cfg := testConfig(4, AllFeatures())
	cfg.MaxRetries = 1 << 30
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	n := cl.nodes[0]
	eng := cl.Engine()
	holder := chassis.TxnID(3, 1, 1) // a transaction of another node
	if !n.prim(0).index.TryLock(key, holder) {
		t.Fatal("key already locked")
	}
	cl.InjectTxn(0, 0, &txnmodel.TxnDesc{UpdateKeys: []uint64{key}, FnID: fnIncr, State: []byte{1, 0}}, nil)
	st := n.app.Stats()
	cycle := func() {
		want := st.Aborts + 1
		for st.Aborts < want {
			if !eng.Step() {
				t.Fatal("engine ran dry before the next abort")
			}
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Fatalf("a warmed local abort cycle allocates %v objects, want 0", got)
	}
	if st.Committed != 0 || st.AbortReasons[wire.StatusAbortLocked] != st.Aborts {
		t.Fatalf("%d committed, %d of %d aborts on the held lock: the attempts did not all abort on it",
			st.Committed, st.AbortReasons[wire.StatusAbortLocked], st.Aborts)
	}
	free := 0
	n.rows.EachFree(func([]byte) { free++ })
	if len(n.localReqs.free) != 1 || len(n.doneMsgs.free) != 1 || free != 1 {
		t.Fatalf("freelists hold %d requests, %d outcomes and %d rows, want 1 each",
			len(n.localReqs.free), len(n.doneMsgs.free), free)
	}
}

// TestSnapLocalReadsReuseScratch holds the MVCC host-local snapshot read to
// one allocation per warmed cycle: its read set lives in the node's
// localReads scratch, like submitLocal's, not in a slice built per attempt.
func TestSnapLocalReadsReuseScratch(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cl, err := New(mvccConfig(4), &kvGen{keys: 400, keysPer: 3}, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	n := cl.nodes[0]
	eng := cl.Engine()
	var keys []uint64
	for k := uint64(0); len(keys) < 3; k++ {
		if n.primaryNode(n.place().ShardOf(k)) == n.id {
			keys = append(keys, k)
		}
	}
	d := &txnmodel.TxnDesc{ReadKeys: keys}
	cycle := func() {
		want := n.stats.SnapCommitted + 1
		cl.InjectTxn(0, 0, d, nil)
		for n.stats.SnapCommitted < want {
			if !eng.Step() {
				t.Fatal("engine ran dry before the snapshot read committed")
			}
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(50, cycle); got > 1 {
		t.Fatalf("a warmed host-local snapshot read allocates %v objects, want at most 1", got)
	}
}
