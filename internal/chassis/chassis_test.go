package chassis

import (
	"math/rand"
	"slices"
	"testing"

	"xenic/internal/hostrt"
	"xenic/internal/model"
	"xenic/internal/raceflag"
	"xenic/internal/sim"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// fakeGen tags every generated transaction with a fresh FnID so tests can
// follow it across retries (its id changes per attempt). Odd tags count
// towards measured throughput; every third transaction is read-only.
type fakeGen struct{ next uint16 }

func (*fakeGen) Name() string                                         { return "fake" }
func (*fakeGen) Spec() txnmodel.StoreSpec                             { return txnmodel.StoreSpec{} }
func (*fakeGen) Placement(nodes, repl int) txnmodel.Placement         { return nil }
func (*fakeGen) Register(r *txnmodel.Registry)                        {}
func (*fakeGen) Populate(shard, nodes int, emit func(uint64, []byte)) {}
func (*fakeGen) Measure(d *txnmodel.TxnDesc) bool                     { return d.FnID%2 == 1 }
func (g *fakeGen) Next(node, thread int, rng *rand.Rand) *txnmodel.TxnDesc {
	g.next++
	if g.next%3 == 0 {
		return &txnmodel.TxnDesc{FnID: g.next, ReadKeys: []uint64{1}}
	}
	return &txnmodel.TxnDesc{FnID: g.next, UpdateKeys: []uint64{1}}
}

// fake is a protocol whose launch hook decides each attempt's outcome
// synchronously, from a per-test script.
type fake struct {
	*Chassis
	alive  []bool
	script func(f *fake, t *hostrt.Thread, node int, tx *Txn)
}

func newFake(t *testing.T, p Protocol, maxRetries int, script func(*fake, *hostrt.Thread, int, *Txn)) *fake {
	t.Helper()
	f := &fake{alive: []bool{true, true}, script: script}
	p.Name = "fake"
	p.NewTxn = func() *Txn { return new(Txn) }
	p.Launch = func(th *hostrt.Thread, node int, tx *Txn) { f.script(f, th, node, tx) }
	p.Alive = func(node int) bool { return f.alive[node] }
	p.Drained = func() bool { return true }
	ch, err := New(Config{
		Nodes: 2, Replication: 1, HostThreads: 1, AppThreads: 1,
		Outstanding: 2, MaxRetries: maxRetries, Params: model.Default(), Seed: 1,
	}, &fakeGen{}, p)
	if err != nil {
		t.Fatal(err)
	}
	f.Chassis = ch
	for i := 0; i < ch.Nodes(); i++ {
		ch.App(i).Host().OnIdle(ch.App(i).Idle)
	}
	ch.Boot()
	if err := ch.Attach(Observers{}); err != nil {
		t.Fatal(err)
	}
	return f
}

func commit(f *fake, t *hostrt.Thread, node int, tx *Txn) {
	f.App(node).Complete(t, tx, wire.StatusOK)
}

func abort(f *fake, t *hostrt.Thread, node int, tx *Txn) {
	f.App(node).Retry(t, tx, wire.StatusAbortLocked)
}

// The two policies the real systems run with.
var (
	xenicPolicy    = Protocol{BackoffBase: model.RetryBackoffBase, BackoffMax: model.RetryBackoffMax, DeferRetryLaunch: true}
	baselinePolicy = Protocol{BackoffBase: model.BaselineBackoffBase, BackoffMax: model.BaselineBackoffMax}
)

// TestRetryDrainOrder pins both retry-queue drain orders. The queue holds
// [A expired, B waiting, C expired] and A's relaunch aborts synchronously:
// deferring launches re-queues A behind B, launching while scanning puts it
// in front. Expiry is inclusive (A expires exactly now), and the pass leaves
// one wake-up for the earliest remaining entry.
func TestRetryDrainOrder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Protocol
		want   []uint16
	}{
		{"deferred", xenicPolicy, []uint16{'B', 'A'}},
		{"while-scanning", baselinePolicy, []uint16{'A', 'B'}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var launched []uint16
			f := newFake(t, tc.policy, 8, func(f *fake, th *hostrt.Thread, node int, tx *Txn) {
				launched = append(launched, tx.Desc.FnID)
				if tx.Desc.FnID == 'A' && tx.retries == 0 {
					abort(f, th, node, tx)
					return
				}
				commit(f, th, node, tx)
			})
			n := f.App(0)
			at := n.threads[0]
			pass := n.host.Thread(0)
			pickup := model.Default().NICLoopIdle // a woken thread's first pass starts here
			for _, q := range []struct {
				tag       uint16
				notBefore sim.Time
			}{{'A', pickup}, {'B', sim.Second}, {'C', 0}} {
				tx := &Txn{ID: at.nextID(), Desc: &txnmodel.TxnDesc{FnID: q.tag}, at: at, notBefore: q.notBefore}
				at.inflight[tx.ID] = tx
				at.outstanding++
				at.retryq = append(at.retryq, tx)
			}
			pass.Wake()
			f.Run(400 * sim.Nanosecond) // shorter than any back-off: exactly the first passes
			if want := []uint16{'A', 'C'}; !slices.Equal(launched, want) {
				t.Fatalf("launched %c, want %c", launched, want)
			}
			var got []uint16
			for _, tx := range at.retryq {
				got = append(got, tx.Desc.FnID)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("retry queue after the pass: %c, want %c", got, tc.want)
			}
			// A's wake-up relaunches it once its back-off expires; B keeps waiting.
			f.Run(tc.policy.BackoffBase)
			if want := []uint16{'A', 'C', 'A'}; !slices.Equal(launched, want) {
				t.Fatalf("after back-off launched %c, want %c", launched, want)
			}
			if len(at.retryq) != 1 || at.retryq[0].Desc.FnID != 'B' || at.outstanding != 1 {
				t.Fatalf("B should be the only transaction left: queue %d, outstanding %d", len(at.retryq), at.outstanding)
			}
		})
	}
}

// TestBackoffBounds aborts one transaction until its retries run out and
// checks every back-off is drawn from the upper half of a window that
// doubles from Base and is capped at Max — for both policies.
func TestBackoffBounds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Protocol
	}{{"xenic", xenicPolicy}, {"baseline", baselinePolicy}} {
		t.Run(tc.name, func(t *testing.T) {
			const maxRetries = 12
			var backoffs []sim.Time
			f := newFake(t, tc.policy, maxRetries, func(f *fake, th *hostrt.Thread, node int, tx *Txn) {
				abort(f, th, node, tx)
				if tx.retries <= maxRetries {
					backoffs = append(backoffs, tx.notBefore-th.Now())
				}
			})
			done := 0
			f.InjectTxn(0, 0, &txnmodel.TxnDesc{FnID: 1}, func(ok bool) {
				done++
				if ok {
					t.Error("exhausted transaction reported committed")
				}
			})
			f.Run(2 * sim.Millisecond)
			if done != 1 {
				t.Fatalf("done fired %d times, want exactly once", done)
			}
			if len(backoffs) != maxRetries {
				t.Fatalf("%d back-offs, want %d", len(backoffs), maxRetries)
			}
			window := tc.policy.BackoffBase
			for i, b := range backoffs {
				if b < window/2 || b >= window {
					t.Errorf("retry %d: back-off %v outside [%v, %v)", i, b, window/2, window)
				}
				window = min(2*window, tc.policy.BackoffMax)
			}
			st := f.App(0).Stats()
			if st.Failed != 1 || st.Aborts != maxRetries+1 || st.AbortReasons[wire.StatusAbortLocked] != maxRetries+1 {
				t.Errorf("accounting: %+v", *st)
			}
			if !f.Quiesced() {
				t.Error("not quiesced after the failure")
			}
		})
	}
}

// TestRetryAllocFree is the retry path's allocation budget: once the retry
// queue, its spare and the event heap have reached working size, an abort →
// back-off → wake-up → relaunch cycle allocates nothing, under both drain
// orders. The wake-up is the thread's bound WakeFn, not a method value.
func TestRetryAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		name   string
		policy Protocol
	}{{"xenic", xenicPolicy}, {"baseline", baselinePolicy}} {
		t.Run(tc.name, func(t *testing.T) {
			launches := 0
			f := newFake(t, tc.policy, 1<<30, func(f *fake, th *hostrt.Thread, node int, tx *Txn) {
				launches++
				abort(f, th, node, tx)
			})
			// Two transactions, so the queue holds a waiting entry while the
			// other relaunches.
			f.InjectTxn(0, 0, &txnmodel.TxnDesc{FnID: 1}, nil)
			f.InjectTxn(0, 0, &txnmodel.TxnDesc{FnID: 2}, nil)
			cycle := func() { f.Run(tc.policy.BackoffMax) }
			for i := 0; i < 20; i++ {
				cycle()
			}
			before := launches
			if n := testing.AllocsPerRun(50, cycle); n != 0 {
				t.Fatalf("warmed abort/back-off/relaunch cycle allocates %v objects per run, want 0", n)
			}
			// Every back-off is below BackoffMax, so each run relaunches both.
			if got := launches - before; got < 2*51 {
				t.Fatalf("%d relaunches in 51 runs, want at least %d", got, 2*51)
			}
		})
	}
}

// TestDoneExactlyOnce covers the three ways an injected transaction ends —
// commit, retries exhausted (above), injection into a dead node — plus a
// crash that loses launched and queued arrivals (Reset).
func TestDoneExactlyOnce(t *testing.T) {
	hold := false // when set, launches neither commit nor abort
	f := newFake(t, baselinePolicy, 4, func(f *fake, th *hostrt.Thread, node int, tx *Txn) {
		if !hold {
			commit(f, th, node, tx)
		}
	})
	var outcomes []string
	done := func(tag string) func(bool) {
		return func(ok bool) { outcomes = append(outcomes, tag+map[bool]string{true: "+", false: "-"}[ok]) }
	}
	d := &txnmodel.TxnDesc{FnID: 1}

	f.InjectTxn(0, 0, d, done("commit"))
	f.Run(10 * sim.Microsecond)

	f.alive[1] = false
	f.InjectTxn(1, 0, d, done("dead"))

	hold = true
	f.InjectTxn(0, 0, d, done("inflight"))
	f.Run(10 * sim.Microsecond)
	f.InjectTxn(0, 0, d, done("queued")) // not yet launched when the node resets
	if f.Quiesced() {
		t.Fatal("quiesced with a launched and a queued arrival")
	}
	f.App(0).Reset()
	f.Run(10 * sim.Microsecond)

	if want := []string{"commit+", "dead-", "inflight-", "queued-"}; !slices.Equal(outcomes, want) {
		t.Fatalf("outcomes %v, want %v", outcomes, want)
	}
	if !f.Quiesced() {
		t.Fatal("not quiesced after reset")
	}
}

// TestMeasureDeltas checks the snapshot-and-diff arithmetic on a steady
// closed-loop stream (every transaction aborts once, then commits): a window
// reports only what happened inside it, the read-only breakdown follows the
// protocol's constant, and the Window hook runs where the window opens.
func TestMeasureDeltas(t *testing.T) {
	for _, ro := range []bool{false, true} {
		var f *fake
		var hook []sim.Time
		policy := xenicPolicy
		policy.ReadOnlyBreakdown = ro
		policy.Window = func() { hook = append(hook, f.Engine().Now()) }
		f = newFake(t, policy, 4, func(f *fake, th *hostrt.Thread, node int, tx *Txn) {
			th.Charge(1 * sim.Microsecond)
			if tx.retries == 0 {
				abort(f, th, node, tx)
				return
			}
			commit(f, th, node, tx)
		})
		lifetime := func() (s Stats) {
			for i := 0; i < f.Nodes(); i++ {
				n := f.App(i).Stats()
				s.Committed += n.Committed
				s.Measured += n.Measured
				s.Aborts += n.Aborts
				s.ROCommitted += n.ROCommitted
			}
			return s
		}
		warm, win := 50*sim.Microsecond, 200*sim.Microsecond
		res := f.Measure(warm, win)
		if !slices.Equal(hook, []sim.Time{warm}) {
			t.Fatalf("Window hook ran at %v, want once at %v", hook, warm)
		}
		first := lifetime()
		if res.Committed <= 0 || res.Committed >= first.Committed {
			t.Fatalf("window committed %d of lifetime %d: warmup not subtracted", res.Committed, first.Committed)
		}
		// A second window continues where the first ended: together they
		// account for everything since the warmup, once.
		second := f.Measure(0, win)
		total := lifetime()
		if got, want := second.Committed, total.Committed-first.Committed; got != want {
			t.Errorf("second window committed %d, lifetime moved by %d", got, want)
		}
		if got, want := second.Aborts, total.Aborts-first.Aborts; got != want || got != second.AbortLocked {
			t.Errorf("second window aborts %d (locked %d), lifetime moved by %d", got, second.AbortLocked, want)
		}
		if got, want := second.Measured, total.Measured-first.Measured; got != want || got == 0 || got >= second.Committed {
			t.Errorf("second window measured %d of %d committed, lifetime moved by %d", got, second.Committed, want)
		}
		if want := float64(res.Measured) / win.Seconds() / 2; res.PerServerTput != want {
			t.Errorf("per-server throughput %v, want %v", res.PerServerTput, want)
		}
		if res.Median <= 0 || res.P99 < res.Median || res.Duration != win {
			t.Errorf("result: %+v", res)
		}
		if total.ROCommitted == 0 {
			t.Fatal("stream committed no read-only transactions")
		}
		if got := res.ROCommitted > 0 && res.ROMedian > 0; got != ro {
			t.Errorf("ReadOnlyBreakdown=%v but read-only fields are %d/%v", ro, res.ROCommitted, res.ROMedian)
		}
		if !f.Drain(sim.Millisecond) {
			t.Error("did not drain")
		}
	}
}
