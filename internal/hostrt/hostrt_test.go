package hostrt

import (
	"testing"

	"xenic/internal/model"
	"xenic/internal/sim"
	"xenic/internal/wire"
)

func newHost(t *testing.T, threads int) (*sim.Engine, *Host) {
	t.Helper()
	eng := sim.NewEngine(1)
	h := New(eng, model.Default(), 0, threads, 1)
	return eng, h
}

func TestDeliverRoutesByTxnID(t *testing.T) {
	eng, h := newHost(t, 4)
	got := map[int][]uint64{}
	h.OnMessage(func(th *Thread, src int, m wire.Msg) {
		got[th.ID()] = append(got[th.ID()], m.(*wire.TxnDone).TxnID)
	})
	h.OnTransmit(func(th *Thread, ms []wire.Msg) {})
	for i := uint64(0); i < 8; i++ {
		h.Deliver(1, []wire.Msg{&wire.TxnDone{Header: wire.Header{TxnID: i}}})
	}
	eng.RunAll()
	total := 0
	for ti, ids := range got {
		total += len(ids)
		for _, id := range ids {
			if int(id%4) != ti {
				t.Fatalf("txn %d delivered to thread %d", id, ti)
			}
		}
	}
	if total != 8 {
		t.Fatalf("delivered %d messages", total)
	}
}

func TestCustomRouter(t *testing.T) {
	eng, h := newHost(t, 4)
	hits := 0
	h.SetRouter(func(m wire.Msg) int { return 2 })
	h.OnMessage(func(th *Thread, src int, m wire.Msg) {
		if th.ID() != 2 {
			t.Errorf("routed to %d", th.ID())
		}
		hits++
	})
	h.OnTransmit(func(th *Thread, ms []wire.Msg) {})
	h.Deliver(0, []wire.Msg{&wire.TxnDone{}, &wire.TxnDone{}})
	eng.RunAll()
	if hits != 2 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestOutboxBatchesPerIteration(t *testing.T) {
	eng, h := newHost(t, 1)
	var batches [][]wire.Msg
	h.OnMessage(func(th *Thread, src int, m wire.Msg) {
		// Two sends in one handler invocation -> one transmit batch.
		th.Send(&wire.ValidateResp{})
		th.Send(&wire.ValidateResp{})
	})
	h.OnTransmit(func(th *Thread, ms []wire.Msg) { batches = append(batches, ms) })
	h.Deliver(0, []wire.Msg{&wire.TxnDone{}})
	eng.RunAll()
	if len(batches) != 1 || len(batches[0]) != 2 {
		t.Fatalf("batches = %v", batches)
	}
}

func TestIdleHookAndCharging(t *testing.T) {
	eng, h := newHost(t, 1)
	h.OnMessage(func(th *Thread, src int, m wire.Msg) {})
	h.OnTransmit(func(th *Thread, ms []wire.Msg) {})
	iters := 0
	h.OnIdle(func(th *Thread) bool {
		iters++
		if iters <= 3 {
			th.Charge(1 * sim.Microsecond)
			return true
		}
		return false
	})
	h.WakeAll()
	eng.RunAll()
	if iters != 4 {
		t.Fatalf("iterations = %d, want 3 busy + 1 final", iters)
	}
	if busy := h.Busy(); busy != 3*sim.Microsecond {
		t.Fatalf("busy = %v", busy)
	}
}

func TestDirectThreadDeliver(t *testing.T) {
	eng, h := newHost(t, 4)
	hit := -1
	h.OnMessage(func(th *Thread, src int, m wire.Msg) { hit = th.ID() })
	h.OnTransmit(func(th *Thread, ms []wire.Msg) {})
	h.Thread(3).Deliver(0, &wire.TxnDone{Header: wire.Header{TxnID: 0}})
	eng.RunAll()
	if hit != 3 {
		t.Fatalf("delivered to %d, want 3 (router bypassed)", hit)
	}
}

func TestStopThread(t *testing.T) {
	eng, h := newHost(t, 2)
	ran := 0
	h.OnMessage(func(th *Thread, src int, m wire.Msg) { ran++ })
	h.OnTransmit(func(th *Thread, ms []wire.Msg) {})
	h.StopThread(0)
	h.Thread(0).Deliver(0, &wire.TxnDone{})
	eng.RunAll()
	if ran != 0 {
		t.Fatal("stopped thread processed a message")
	}
}

func TestScheduledAtCallback(t *testing.T) {
	eng, h := newHost(t, 1)
	h.OnMessage(func(th *Thread, src int, m wire.Msg) {})
	h.OnTransmit(func(th *Thread, ms []wire.Msg) {})
	var fired sim.Time
	done := false
	h.OnIdle(func(th *Thread) bool {
		if done {
			return false
		}
		done = true
		th.At(5*sim.Microsecond, func() { fired = eng.Now() })
		return true
	})
	h.WakeAll()
	eng.RunAll()
	if fired < 5*sim.Microsecond {
		t.Fatalf("fired at %v", fired)
	}
}

// TestOutboxArrayRecycled: a batch handed back through Recycle backs a later
// flush — cleared first, so it pins none of the old messages — while a batch
// the consumer still holds is never written again.
func TestOutboxArrayRecycled(t *testing.T) {
	eng, h := newHost(t, 1)
	var batches [][]wire.Msg
	h.OnTransmit(func(th *Thread, ms []wire.Msg) { batches = append(batches, ms) })
	n := 0
	h.OnIdle(func(th *Thread) bool {
		if n == 3 {
			return false
		}
		n++
		th.Send(&wire.TxnDone{Header: wire.Header{TxnID: uint64(n)}})
		th.Send(&wire.TxnDone{Header: wire.Header{TxnID: uint64(n) + 100}})
		if n == 2 {
			h.Recycle(batches[0]) // the first batch's consumer is done with it
		}
		return true
	})
	h.WakeAll()
	eng.RunAll()
	if len(batches) != 3 {
		t.Fatalf("%d batches transmitted, want 3", len(batches))
	}
	if &batches[2][0] != &batches[0][0] {
		t.Fatal("third batch did not reuse the recycled array")
	}
	if &batches[1][0] == &batches[0][0] {
		t.Fatal("second batch wrote into an array its consumer still held")
	}
	for i, want := range []uint64{3, 103} {
		if got := batches[2][i].(*wire.TxnDone).TxnID; got != want {
			t.Fatalf("third batch message %d is txn %d, want %d", i, got, want)
		}
	}
	if got := batches[1][0].(*wire.TxnDone).TxnID; got != 2 {
		t.Fatalf("held batch was overwritten: txn %d", got)
	}
}
