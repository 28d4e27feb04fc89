package simnet

import (
	"testing"

	"xenic/internal/model"
	"xenic/internal/sim"
)

func testParams() model.Params {
	p := model.Default()
	return p
}

func TestSendLatency(t *testing.T) {
	eng := sim.NewEngine(1)
	p := testParams()
	nw := New(eng, p, 2)
	var deliveredAt sim.Time
	nw.Attach(1, func(f *Frame) { deliveredAt = eng.Now() })
	nw.Attach(0, func(f *Frame) {})
	nw.Send(&Frame{Src: 0, Dst: 1, PayloadBytes: 256})
	eng.RunAll()
	want := p.SerializationDelay(p.WireBytes(256)) + p.PropDelay
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestEgressSerialization(t *testing.T) {
	eng := sim.NewEngine(1)
	p := testParams()
	p.LinksPerNode = 1
	nw := New(eng, p, 2)
	var times []sim.Time
	nw.Attach(1, func(f *Frame) { times = append(times, eng.Now()) })
	// Two frames at t=0 on one link must serialize back to back.
	nw.Send(&Frame{Src: 0, Dst: 1, PayloadBytes: 1000})
	nw.Send(&Frame{Src: 0, Dst: 1, PayloadBytes: 1000})
	eng.RunAll()
	if len(times) != 2 {
		t.Fatalf("delivered %d frames", len(times))
	}
	ser := p.SerializationDelay(p.WireBytes(1000))
	if got := times[1] - times[0]; got != ser {
		t.Fatalf("frame spacing %v, want serialization %v", got, ser)
	}
}

func TestTwoLinksDoubleThroughput(t *testing.T) {
	eng := sim.NewEngine(1)
	p := testParams()
	p.LinksPerNode = 2
	nw := New(eng, p, 2)
	var last sim.Time
	n := 0
	nw.Attach(1, func(f *Frame) { last = eng.Now(); n++ })
	for i := 0; i < 100; i++ {
		nw.Send(&Frame{Src: 0, Dst: 1, PayloadBytes: 1400})
	}
	eng.RunAll()
	ser := p.SerializationDelay(p.WireBytes(1400))
	// 100 frames over 2 lanes: 50 serializations per lane.
	want := 50*ser + p.PropDelay
	if n != 100 || last != want {
		t.Fatalf("n=%d last=%v, want 100 frames finishing at %v", n, last, want)
	}
}

func TestIncastIngressBottleneck(t *testing.T) {
	eng := sim.NewEngine(1)
	p := testParams()
	p.LinksPerNode = 1
	nw := New(eng, p, 6)
	n := 0
	var last sim.Time
	nw.Attach(0, func(f *Frame) { n++; last = eng.Now() })
	// 5 sources each send 20 frames at t=0: receiver ingress must serialize
	// all 100 even though each source's egress is uncontended.
	for src := 1; src <= 5; src++ {
		for i := 0; i < 20; i++ {
			nw.Send(&Frame{Src: src, Dst: 0, PayloadBytes: 1000})
		}
	}
	eng.RunAll()
	ser := p.SerializationDelay(p.WireBytes(1000))
	minFinish := 100 * ser // ingress-serialized lower bound
	if n != 100 {
		t.Fatalf("delivered %d", n)
	}
	if last < minFinish {
		t.Fatalf("incast finished at %v, faster than ingress bound %v", last, minFinish)
	}
}

func TestByteAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	p := testParams()
	nw := New(eng, p, 2)
	nw.Attach(1, func(f *Frame) {})
	nw.Send(&Frame{Src: 0, Dst: 1, PayloadBytes: 100})
	nw.Send(&Frame{Src: 0, Dst: 1, PayloadBytes: 200})
	eng.RunAll()
	want := int64(p.WireBytes(100) + p.WireBytes(200))
	if nw.TxBytes(0) != want || nw.RxBytes(1) != want || nw.TxFrames(0) != 2 {
		t.Fatalf("tx=%d rx=%d frames=%d, want %d bytes 2 frames",
			nw.TxBytes(0), nw.RxBytes(1), nw.TxFrames(0), want)
	}
}

func TestEgressBacklog(t *testing.T) {
	eng := sim.NewEngine(1)
	p := testParams()
	p.LinksPerNode = 1
	nw := New(eng, p, 2)
	nw.Attach(1, func(f *Frame) {})
	if nw.Egress(0).Backlog(eng.Now()) != 0 {
		t.Fatal("idle port has backlog")
	}
	nw.Send(&Frame{Src: 0, Dst: 1, PayloadBytes: 1400})
	if nw.Egress(0).Backlog(eng.Now()) != p.SerializationDelay(p.WireBytes(1400)) {
		t.Fatalf("backlog %v", nw.Egress(0).Backlog(eng.Now()))
	}
}

func TestMessagesRideFrames(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, testParams(), 2)
	var got []any
	nw.Attach(1, func(f *Frame) { got = f.Msgs })
	nw.Send(&Frame{Src: 0, Dst: 1, PayloadBytes: 64, Msgs: []any{"a", "b"}})
	eng.RunAll()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("msgs = %v", got)
	}
}

func TestSendPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	p := testParams()
	nw := New(eng, p, 2)
	nw.Attach(1, func(f *Frame) {})
	cases := []*Frame{
		{Src: 0, Dst: 0, PayloadBytes: 10},        // self send
		{Src: 0, Dst: 5, PayloadBytes: 10},        // bad dst
		{Src: 0, Dst: 1, PayloadBytes: 0},         // empty
		{Src: 0, Dst: 1, PayloadBytes: p.MTU + 1}, // oversized
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			nw.Send(f)
		}()
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// Blast a 100Gbps (2x50) port for a simulated millisecond and check
	// achieved goodput is close to nominal.
	eng := sim.NewEngine(1)
	p := testParams()
	nw := New(eng, p, 2)
	delivered := 0
	nw.Attach(1, func(f *Frame) { delivered += f.PayloadBytes })
	payload := 1434 // full MTU wire frame
	var pump func()
	pump = func() {
		if eng.Now() >= sim.Millisecond {
			return
		}
		// Keep ~ 2 frames of backlog.
		for nw.Egress(0).Backlog(eng.Now()) < 2*p.SerializationDelay(p.WireBytes(payload)) {
			nw.Send(&Frame{Src: 0, Dst: 1, PayloadBytes: payload})
		}
		eng.After(100*sim.Nanosecond, pump)
	}
	eng.Defer(pump)
	eng.Run(2 * sim.Millisecond)
	goodput := float64(delivered) / sim.Millisecond.Seconds() // B/s over 1ms
	nominal := p.TotalBandwidth() * float64(payload) / float64(p.WireBytes(payload))
	if goodput < 0.95*nominal || goodput > 1.01*nominal {
		t.Fatalf("goodput %.2f GB/s, nominal %.2f GB/s", goodput/1e9, nominal/1e9)
	}
}
