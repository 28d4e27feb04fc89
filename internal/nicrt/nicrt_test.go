package nicrt

import (
	"testing"

	"xenic/internal/model"
	"xenic/internal/sim"
	"xenic/internal/simnet"
	"xenic/internal/wire"
)

func TestPollerChargesAndSequencing(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPoller(eng, 100*sim.Nanosecond)
	var iterAt []sim.Time
	work := 3
	p.SetWork(func() bool {
		iterAt = append(iterAt, eng.Now())
		if work > 0 {
			work--
			p.Charge(500 * sim.Nanosecond)
			return true
		}
		return false
	})
	p.Wake()
	eng.RunAll()
	// Iterations: pickup at 100ns, then back to back every 500ns while busy,
	// plus one final empty pass.
	if len(iterAt) != 4 {
		t.Fatalf("iterations at %v", iterAt)
	}
	if iterAt[0] != 100*sim.Nanosecond || iterAt[1] != 600*sim.Nanosecond || iterAt[2] != 1100*sim.Nanosecond {
		t.Fatalf("iteration times %v", iterAt)
	}
	if busy := p.Core().Served(); busy != 1500*sim.Nanosecond {
		t.Fatalf("busy = %v", busy)
	}
}

func TestPollerWakeDuringIteration(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPoller(eng, 100*sim.Nanosecond)
	n := 0
	p.SetWork(func() bool {
		n++
		return false // no work found, but a wake arrives mid-iteration
	})
	p.Wake()
	// Arrival while the first iteration is conceptually in flight.
	eng.At(100*sim.Nanosecond, func() { p.Wake() })
	eng.RunAll()
	if n < 2 {
		t.Fatalf("wake during iteration lost: %d iterations", n)
	}
}

func TestPollerStop(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPoller(eng, 100*sim.Nanosecond)
	n := 0
	p.SetWork(func() bool { n++; return true })
	p.Wake()
	eng.At(1*sim.Microsecond, p.Stop)
	eng.Run(10 * sim.Microsecond)
	if !p.Stopped() {
		t.Fatal("not stopped")
	}
	ran := n
	p.Wake()
	eng.Run(20 * sim.Microsecond)
	if n != ran {
		t.Fatal("stopped poller ran")
	}
}

func TestPollerNegativeChargePanics(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPoller(eng, 100*sim.Nanosecond)
	p.SetWork(func() bool {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		p.Charge(-1)
		return false
	})
	p.Wake()
	eng.RunAll()
}

// twoNICs builds a 2-node fabric with echo firmware on node 1.
func twoNICs(t *testing.T, feat Features) (*sim.Engine, *simnet.Network, *NIC, *NIC, model.Params) {
	t.Helper()
	eng := sim.NewEngine(1)
	p := model.Default()
	nw := simnet.New(eng, p, 2)
	a := New(eng, p, nw, 0, 4, 1, feat)
	b := New(eng, p, nw, 1, 4, 1, feat)
	for _, n := range []*NIC{a, b} {
		n.OnHostDeliver(func(ms []wire.Msg) {})
	}
	return eng, nw, a, b, p
}

func TestNICEchoRoundTrip(t *testing.T) {
	eng, _, a, b, p := twoNICs(t, AllFeatures())
	// b echoes Execute as ExecuteResp; a records completion time.
	b.OnMessage(func(c *Core, src int, m wire.Msg) {
		req := m.(*wire.Execute)
		c.Charge(p.NICIndexOp)
		c.Send(src, &wire.ExecuteResp{Header: wire.Header{TxnID: req.TxnID, Src: uint8(c.Node())}})
	})
	var doneAt sim.Time
	var sentAt sim.Time
	a.OnMessage(func(c *Core, src int, m wire.Msg) {
		if _, ok := m.(*wire.ExecuteResp); ok {
			doneAt = eng.Now()
		}
	})
	a.Inject(0, func(c *Core) {
		sentAt = c.Now()
		c.Send(1, &wire.Execute{Header: wire.Header{TxnID: 42, Src: 0}, ReadKeys: []uint64{1}})
	})
	eng.RunAll()
	if doneAt == 0 {
		t.Fatal("no echo received")
	}
	rtt := doneAt - sentAt
	// NIC-to-NIC RPC RTT should be a couple of microseconds: two wire
	// crossings (~0.7us each) plus software handling — and importantly
	// below 5us (it beats two-sided RDMA RPC per §3.2).
	if rtt < 1*sim.Microsecond || rtt > 5*sim.Microsecond {
		t.Fatalf("NIC-NIC RTT = %v", rtt)
	}
	if a.Stats().TxMsgs != 1 || a.Stats().RxMsgs != 1 || b.Stats().RxMsgs != 1 {
		t.Fatalf("stats: a=%+v b=%+v", a.Stats(), b.Stats())
	}
}

func TestAggregationPacksFrames(t *testing.T) {
	eng, nw, a, b, _ := twoNICs(t, AllFeatures())
	got := 0
	b.OnMessage(func(c *Core, src int, m wire.Msg) { got++ })
	a.OnMessage(func(c *Core, src int, m wire.Msg) {})
	a.Inject(0, func(c *Core) {
		for i := 0; i < 20; i++ {
			c.Send(1, &wire.ValidateResp{Header: wire.Header{TxnID: uint64(i), Src: 0}})
		}
	})
	eng.RunAll()
	if got != 20 {
		t.Fatalf("delivered %d", got)
	}
	// 20 x 11B messages fit in one MTU frame.
	if nw.TxFrames(0) != 1 {
		t.Fatalf("sent %d frames, want 1 aggregated", nw.TxFrames(0))
	}
}

func TestNoAggregationOneFramePerMsg(t *testing.T) {
	eng, nw, a, b, _ := twoNICs(t, Features{EthAggregation: false, AsyncDMA: true})
	b.OnMessage(func(c *Core, src int, m wire.Msg) {})
	a.OnMessage(func(c *Core, src int, m wire.Msg) {})
	a.Inject(0, func(c *Core) {
		for i := 0; i < 20; i++ {
			c.Send(1, &wire.ValidateResp{Header: wire.Header{TxnID: uint64(i), Src: 0}})
		}
	})
	eng.RunAll()
	if nw.TxFrames(0) != 20 {
		t.Fatalf("sent %d frames, want 20", nw.TxFrames(0))
	}
}

func TestLargeMessageFragmentation(t *testing.T) {
	eng, nw, a, b, p := twoNICs(t, AllFeatures())
	var got *wire.Commit
	b.OnMessage(func(c *Core, src int, m wire.Msg) { got = m.(*wire.Commit) })
	a.OnMessage(func(c *Core, src int, m wire.Msg) {})
	big := &wire.Commit{Header: wire.Header{TxnID: 1, Src: 0},
		Writes: []wire.KV{{Key: 1, Version: 1, Value: make([]byte, 3000)}}}
	if big.WireSize() <= p.MTU {
		t.Fatal("test message not oversized")
	}
	a.Inject(0, func(c *Core) { c.Send(1, big) })
	eng.RunAll()
	if got == nil || len(got.Writes[0].Value) != 3000 {
		t.Fatal("oversized message not delivered")
	}
	if nw.TxFrames(0) < 3 {
		t.Fatalf("only %d fragments", nw.TxFrames(0))
	}
}

func TestAsyncDMABatchesVectors(t *testing.T) {
	eng, _, a, _, _ := twoNICs(t, AllFeatures())
	a.OnMessage(func(c *Core, src int, m wire.Msg) {})
	completed := 0
	a.Inject(0, func(c *Core) {
		for i := 0; i < 30; i++ {
			c.DMAWrite(64, func() { completed++ })
		}
	})
	eng.RunAll()
	if completed != 30 {
		t.Fatalf("completed %d", completed)
	}
	// 30 elements in 15-max vectors: exactly 2 submissions.
	if a.DMA().Submissions() != 2 {
		t.Fatalf("submissions = %d, want 2", a.DMA().Submissions())
	}
	if a.Stats().DMAWrites != 30 {
		t.Fatalf("stats writes = %d", a.Stats().DMAWrites)
	}
}

func TestBlockingDMASubmitsSingles(t *testing.T) {
	eng, _, a, _, _ := twoNICs(t, Features{EthAggregation: true, AsyncDMA: false})
	a.OnMessage(func(c *Core, src int, m wire.Msg) {})
	completed := 0
	var spent sim.Time
	a.Inject(0, func(c *Core) {
		start := c.Now()
		for i := 0; i < 10; i++ {
			c.DMAWrite(64, func() { completed++ })
		}
		spent = c.Now() - start
	})
	eng.RunAll()
	if completed != 10 {
		t.Fatalf("completed %d", completed)
	}
	if a.DMA().Submissions() != 10 {
		t.Fatalf("submissions = %d, want 10", a.DMA().Submissions())
	}
	// Blocking mode stalls the core for each completion (~570ns+190ns x10).
	if spent < 7*sim.Microsecond {
		t.Fatalf("blocking DMAs consumed only %v", spent)
	}
}

func TestDMAReadCallbackLatency(t *testing.T) {
	eng, _, a, _, p := twoNICs(t, AllFeatures())
	a.OnMessage(func(c *Core, src int, m wire.Msg) {})
	var start, done sim.Time
	a.Inject(0, func(c *Core) {
		start = c.Now()
		c.DMARead(128, func() { done = c.Now() })
	})
	eng.RunAll()
	if done == 0 {
		t.Fatal("read callback never ran")
	}
	lat := done - start
	if lat < p.DMAReadLatency {
		t.Fatalf("read completed in %v, below completion latency %v", lat, p.DMAReadLatency)
	}
	if lat > p.DMAReadLatency+2*sim.Microsecond {
		t.Fatalf("read took %v", lat)
	}
}

func TestHostPathDelivery(t *testing.T) {
	eng, _, a, _, p := twoNICs(t, AllFeatures())
	var hostGot []wire.Msg
	var hostAt sim.Time
	a.OnHostDeliver(func(ms []wire.Msg) { hostGot = ms; hostAt = eng.Now() })
	a.OnMessage(func(c *Core, src int, m wire.Msg) {
		// Forward host message back to host.
		c.SendHost(m)
	})
	var sentAt sim.Time
	eng.Defer(func() {
		sentAt = eng.Now()
		a.FromHost([]wire.Msg{&wire.TxnDone{Header: wire.Header{TxnID: 5, Src: 0}}})
	})
	eng.RunAll()
	if len(hostGot) != 1 {
		t.Fatalf("host got %d msgs", len(hostGot))
	}
	if hostAt-sentAt < p.NICToHost {
		t.Fatalf("host delivery after %v, below PCIe latency %v", hostAt-sentAt, p.NICToHost)
	}
	if a.Stats().HostRxMsgs != 1 || a.Stats().HostTxMsgs != 1 {
		t.Fatalf("host stats: %+v", a.Stats())
	}
}

func TestSelfSendPanics(t *testing.T) {
	eng, _, a, _, _ := twoNICs(t, AllFeatures())
	a.OnMessage(func(c *Core, src int, m wire.Msg) {})
	a.Inject(0, func(c *Core) {
		defer func() {
			if recover() == nil {
				t.Error("no panic on self-send")
			}
		}()
		c.Send(0, &wire.ValidateResp{})
	})
	eng.RunAll()
}

func TestAllCoresStoppedFramesDeadDrop(t *testing.T) {
	eng, _, a, b, _ := twoNICs(t, AllFeatures())
	got := 0
	b.OnMessage(func(c *Core, src int, m wire.Msg) { got++ })
	a.OnMessage(func(c *Core, src int, m wire.Msg) {})
	for i := 0; i < b.Cores(); i++ {
		b.StopCore(i)
	}
	a.Inject(0, func(c *Core) {
		for i := 0; i < 8; i++ {
			c.Send(1, &wire.ValidateResp{Header: wire.Header{TxnID: uint64(i)}})
		}
	})
	eng.RunAll()
	if got != 0 {
		t.Fatalf("dead NIC delivered %d messages", got)
	}
	if b.Stats().DeadDrops == 0 {
		t.Fatal("frames to a dead NIC were not counted as dead drops")
	}
	if b.Stats().RxMsgs != 0 {
		t.Fatalf("dead NIC counted %d rx msgs", b.Stats().RxMsgs)
	}
}

func TestFromHostReroutesAroundStoppedCores(t *testing.T) {
	eng, _, a, _, _ := twoNICs(t, AllFeatures())
	got := 0
	a.OnMessage(func(c *Core, src int, m wire.Msg) { got++ })
	// Stop all but core 0; host batches with any txn hash still land.
	for i := 1; i < a.Cores(); i++ {
		a.StopCore(i)
	}
	eng.Defer(func() {
		for i := 0; i < 8; i++ {
			a.FromHost([]wire.Msg{&wire.TxnDone{Header: wire.Header{TxnID: uint64(i), Src: 0}}})
		}
	})
	eng.RunAll()
	if got != 8 {
		t.Fatalf("delivered %d host batches with stopped cores", got)
	}
	if a.Stats().DeadDrops != 0 {
		t.Fatalf("dead drops counted with a live core: %d", a.Stats().DeadDrops)
	}
}

func TestFromHostAllCoresStoppedDeadDrops(t *testing.T) {
	eng, _, a, _, _ := twoNICs(t, AllFeatures())
	got := 0
	a.OnMessage(func(c *Core, src int, m wire.Msg) { got++ })
	for i := 0; i < a.Cores(); i++ {
		a.StopCore(i)
	}
	eng.Defer(func() {
		a.FromHost([]wire.Msg{&wire.TxnDone{Header: wire.Header{TxnID: 1, Src: 0}}})
		a.FromHost(nil) // empty batches are ignored, not counted
	})
	eng.RunAll()
	if got != 0 {
		t.Fatalf("dead NIC processed %d host batches", got)
	}
	if a.Stats().DeadDrops != 1 {
		t.Fatalf("dead drops = %d, want 1", a.Stats().DeadDrops)
	}
}

func TestStoppedCoreFramesRerouted(t *testing.T) {
	eng, _, a, b, _ := twoNICs(t, AllFeatures())
	got := 0
	b.OnMessage(func(c *Core, src int, m wire.Msg) { got++ })
	a.OnMessage(func(c *Core, src int, m wire.Msg) {})
	// Stop all but core 0 on b; traffic still flows.
	for i := 1; i < b.Cores(); i++ {
		b.StopCore(i)
	}
	a.Inject(0, func(c *Core) {
		for i := 0; i < 8; i++ {
			c.Send(1, &wire.ValidateResp{Header: wire.Header{TxnID: uint64(i)}})
		}
	})
	eng.RunAll()
	if got != 8 {
		t.Fatalf("delivered %d with stopped cores", got)
	}
}
