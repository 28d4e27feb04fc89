package rdma

import (
	"testing"

	"xenic/internal/hostrt"
	"xenic/internal/model"
	"xenic/internal/raceflag"
	"xenic/internal/sim"
	"xenic/internal/simnet"
	"xenic/internal/wire"
)

// pair builds two hosts with RDMA NICs. The returned handler slot receives
// two-sided messages at node 1.
func pair(t *testing.T) (*sim.Engine, *hostrt.Host, *hostrt.Host, *NIC, *NIC, model.Params) {
	t.Helper()
	eng := sim.NewEngine(1)
	p := model.Default()
	nw := simnet.New(eng, p, 2)
	h0 := hostrt.New(eng, p, 0, 2, 1)
	h1 := hostrt.New(eng, p, 1, 2, 1)
	n0 := New(eng, p, nw, 0, h0)
	n1 := New(eng, p, nw, 1, h1)
	for _, h := range []*hostrt.Host{h0, h1} {
		h.OnTransmit(func(tt *hostrt.Thread, ms []wire.Msg) {})
		h.OnMessage(func(tt *hostrt.Thread, src int, m wire.Msg) {
			if c, ok := m.(*Completion); ok {
				c.Fn()
			}
		})
	}
	return eng, h0, h1, n0, n1, p
}

func TestWriteRTTMatchesPaper(t *testing.T) {
	eng, h0, _, n0, _, _ := pair(t)
	var start, end sim.Time
	th := h0.Thread(0)
	h0.OnIdle(func(tt *hostrt.Thread) bool {
		if tt != th || start != 0 {
			return false
		}
		start = tt.Now()
		n0.Write(tt, 1, 256, nil, func() { end = eng.Now() })
		return true
	})
	h0.WakeAll()
	eng.Run(sim.Millisecond)
	if end == 0 {
		t.Fatal("write never completed")
	}
	rtt := end - start
	// §3.2: RDMA WRITE median ~3.5us for 256B. Accept 2.8-4.2us.
	if rtt < 2800*sim.Nanosecond || rtt > 4200*sim.Nanosecond {
		t.Fatalf("WRITE RTT = %v, want ~3.5us", rtt)
	}
}

func TestReadSamplesAtTarget(t *testing.T) {
	eng, h0, _, n0, _, _ := pair(t)
	remote := 100
	var sampled int
	done := false
	issued := false
	h0.OnIdle(func(tt *hostrt.Thread) bool {
		if tt.ID() != 0 || issued {
			return false
		}
		issued = true
		n0.Read(tt, 1, 64, func() { sampled = remote }, func() { done = true })
		return true
	})
	// Remote value changes after the verb will have touched memory.
	eng.At(10*sim.Microsecond, func() { remote = 999 })
	h0.WakeAll()
	eng.Run(sim.Millisecond)
	if !done {
		t.Fatal("read never completed")
	}
	if sampled != 100 {
		t.Fatalf("sampled %d, want the value at access time (100)", sampled)
	}
}

func TestAtomicResult(t *testing.T) {
	eng, h0, _, n0, _, _ := pair(t)
	locked := false
	results := []bool{}
	issued := 0
	h0.OnIdle(func(tt *hostrt.Thread) bool {
		if tt.ID() != 0 || issued >= 2 {
			return false
		}
		issued++
		n0.Atomic(tt, 1, func() bool {
			if locked {
				return false
			}
			locked = true
			return true
		}, func(ok bool) { results = append(results, ok) })
		return true
	})
	h0.WakeAll()
	eng.Run(sim.Millisecond)
	if len(results) != 2 || !results[0] || results[1] {
		t.Fatalf("CAS results = %v, want [true false]", results)
	}
}

func TestTwoSidedSendDeliversToHost(t *testing.T) {
	eng, h0, h1, n0, n1, _ := pair(t)
	var got wire.Msg
	var replied wire.Msg
	h1.OnMessage(func(tt *hostrt.Thread, src int, m wire.Msg) {
		if c, ok := m.(*Completion); ok {
			c.Fn()
			return
		}
		got = m
		tt.Charge(400 * sim.Nanosecond) // RPC handler work
		n1.Send(tt, src, &wire.ExecuteResp{Header: wire.Header{TxnID: 9, Src: 1}})
	})
	h0.OnMessage(func(tt *hostrt.Thread, src int, m wire.Msg) {
		if c, ok := m.(*Completion); ok {
			c.Fn()
			return
		}
		replied = m
	})
	sent := false
	var start, end sim.Time
	h0.OnIdle(func(tt *hostrt.Thread) bool {
		if tt.ID() != 0 || sent {
			return false
		}
		sent = true
		start = tt.Now()
		n0.Send(tt, 1, &wire.Execute{Header: wire.Header{TxnID: 9, Src: 0}, ReadKeys: []uint64{1}})
		return true
	})
	h0.WakeAll()
	var doneAt sim.Time
	eng.Ticker(sim.Microsecond, func() bool {
		if replied != nil && doneAt == 0 {
			doneAt = eng.Now()
		}
		return eng.Now() < 100*sim.Microsecond
	})
	eng.Run(sim.Millisecond)
	if got == nil || replied == nil {
		t.Fatal("RPC did not complete")
	}
	end = doneAt
	rtt := end - start
	// Two-sided RPC involves host CPU both ends: slower than one-sided
	// (§3.2) — expect >4us but well under 15us.
	if rtt < 4*sim.Microsecond || rtt > 15*sim.Microsecond {
		t.Fatalf("two-sided RPC RTT = %v", rtt)
	}
}

func TestRateCapBindsUnderLoad(t *testing.T) {
	// Enough issuing threads that the NIC cap, not host CPU, binds —
	// matching the §3.4 doorbell-batched measurement methodology.
	eng := sim.NewEngine(1)
	p := model.Default()
	nw := simnet.New(eng, p, 2)
	h0 := hostrt.New(eng, p, 0, 12, 1)
	h1 := hostrt.New(eng, p, 1, 2, 1)
	n0 := New(eng, p, nw, 0, h0)
	New(eng, p, nw, 1, h1)
	for _, h := range []*hostrt.Host{h0, h1} {
		h.OnTransmit(func(tt *hostrt.Thread, ms []wire.Msg) {})
		h.OnMessage(func(tt *hostrt.Thread, src int, m wire.Msg) {
			if c, ok := m.(*Completion); ok {
				c.Fn()
			}
		})
	}
	completed := 0
	outstanding := make([]int, 12)
	h0.OnIdle(func(tt *hostrt.Thread) bool {
		did := false
		for outstanding[tt.ID()] < 64 {
			outstanding[tt.ID()]++
			did = true
			id := tt.ID()
			n0.Write(tt, 1, 16, nil, func() { completed++; outstanding[id]-- })
		}
		return did
	})
	h0.WakeAll()
	dur := 5 * sim.Millisecond
	eng.Run(dur)
	rate := float64(completed) / dur.Seconds()
	if rate > p.RDMAMsgRate*1.05 {
		t.Fatalf("achieved %.1fM verbs/s, above the %.1fM cap", rate/1e6, p.RDMAMsgRate/1e6)
	}
	if rate < p.RDMAMsgRate*0.5 {
		t.Fatalf("achieved only %.1fM verbs/s", rate/1e6)
	}
}

func TestSelfVerbPanics(t *testing.T) {
	_, h0, _, n0, _, _ := pair(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	n0.Write(h0.Thread(0), 0, 16, nil, func() {})
}

func TestStats(t *testing.T) {
	eng, h0, _, n0, _, _ := pair(t)
	issued := false
	h0.OnIdle(func(tt *hostrt.Thread) bool {
		if tt.ID() != 0 || issued {
			return false
		}
		issued = true
		n0.Read(tt, 1, 64, nil, func() {})
		n0.Write(tt, 1, 64, nil, func() {})
		n0.Atomic(tt, 1, func() bool { return true }, func(bool) {})
		return true
	})
	h0.WakeAll()
	eng.Run(sim.Millisecond)
	s := n0.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.Atomics != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.BytesOut == 0 {
		t.Fatal("no bytes accounted")
	}
}

// verbCycle installs an idle hook on h0's thread 0 that issues one Read,
// ReadDyn, Write, Atomic and Send to node 1 each time the returned function
// runs, with callbacks built once, and runs the engine until all five are
// done. It reports the verbs completed so far.
func verbCycle(eng *sim.Engine, h0 *hostrt.Host, n0 *NIC) (cycle func(), completed func() int) {
	done := 0
	sample := func() {}
	sampleN := func() int { return 96 }
	apply := func() {}
	cas := func() bool { return true }
	fin := func() { done++ }
	finB := func(bool) { done++ }
	msg := &wire.Execute{Header: wire.Header{TxnID: 1, Src: 0}}
	issue := false
	h0.OnIdle(func(tt *hostrt.Thread) bool {
		if tt.ID() != 0 || !issue {
			return false
		}
		issue = false
		n0.Read(tt, 1, 64, sample, fin)
		n0.ReadDyn(tt, 1, sampleN, fin)
		n0.Write(tt, 1, 64, apply, fin)
		n0.Atomic(tt, 1, cas, finB)
		n0.Send(tt, 1, msg)
		return true
	})
	cycle = func() {
		issue = true
		h0.Thread(0).Wake()
		eng.Run(eng.Now() + 100*sim.Microsecond)
	}
	return cycle, func() int { return done }
}

// TestVerbAllocFree: once the free lists have grown, a cycle of every verb
// kind allocates nothing — each verb is one reused record, its completion
// and response embedded, its schedule sites bound once.
func TestVerbAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	eng, h0, _, n0, _, _ := pair(t)
	cycle, completed := verbCycle(eng, h0, n0)
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a cycle of five verbs allocates %v objects, want 0", n)
	}
	// One cycle above, and AllocsPerRun's warm-up run plus 100.
	if got := completed(); got != 4*102 {
		t.Fatalf("%d one-sided verbs completed, want %d", got, 4*102)
	}
	if s := n0.Stats(); s.Sends != 102 {
		t.Fatalf("%d sends issued, want 102", s.Sends)
	}
}

// TestVerbResultsNeverCross keeps up to 64 ATOMICs with alternating results
// and ReadDyns with distinct sizes in flight from one thread, issuing more
// as they complete so records are reused while others are outstanding, and
// requires every done to see its own verb's result exactly once.
func TestVerbResultsNeverCross(t *testing.T) {
	eng, h0, _, n0, _, _ := pair(t)
	const total = 2000
	issued, inflight := 0, 0
	sampled := make([]int, total)
	doneCount := make([]int, total)
	h0.OnIdle(func(tt *hostrt.Thread) bool {
		did := false
		for tt.ID() == 0 && inflight < 64 && issued < total {
			i := issued
			issued++
			inflight++
			did = true
			if i%2 == 0 {
				want := i%4 == 0
				n0.Atomic(tt, 1, func() bool { return want }, func(ok bool) {
					if ok != want {
						t.Errorf("atomic %d completed with %v, want %v", i, ok, want)
					}
					doneCount[i]++
					inflight--
				})
				continue
			}
			size := 8 + i
			n0.ReadDyn(tt, 1, func() int { sampled[i] = size; return size }, func() {
				if sampled[i] != size {
					t.Errorf("read %d completed before its own sample ran", i)
				}
				doneCount[i]++
				inflight--
			})
		}
		return did
	})
	h0.WakeAll()
	eng.Run(10 * sim.Millisecond)
	for i, n := range doneCount {
		if n != 1 {
			t.Fatalf("verb %d completed %d times, want once", i, n)
		}
	}
	if len(n0.reqFree) == 0 {
		t.Fatal("no verb record was ever released")
	}
}

// TestFaultModeReusesNoRecord: with SetFaultTimeout on, retransmission and
// duplicate suppression can still reach a finished verb's record, so none
// goes back to a free list.
func TestFaultModeReusesNoRecord(t *testing.T) {
	eng, h0, _, n0, n1, _ := pair(t)
	n0.SetFaultTimeout(20 * sim.Microsecond)
	n1.SetFaultTimeout(20 * sim.Microsecond)
	cycle, completed := verbCycle(eng, h0, n0)
	for i := 0; i < 3; i++ {
		cycle()
	}
	if got := completed(); got != 12 {
		t.Fatalf("%d one-sided verbs completed, want 12", got)
	}
	if len(n0.reqFree) != 0 || len(n1.reqFree) != 0 {
		t.Fatalf("free lists hold %d and %d records under fault mode, want none",
			len(n0.reqFree), len(n1.reqFree))
	}
}
