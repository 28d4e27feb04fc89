package simnet

import (
	"testing"

	"xenic/internal/model"
	"xenic/internal/raceflag"
	"xenic/internal/sim"
)

// frameDeliveryOp returns one op of a frame's full life cycle — NewFrame,
// Send (egress + ingress serialization bookkeeping, delivery scheduling),
// delivery, Recycle — and the counter of frames delivered so far.
func frameDeliveryOp() (op func(), delivered *int) {
	eng := sim.NewEngine(1)
	nw := New(eng, model.Default(), 2)
	delivered = new(int)
	nw.Attach(0, func(f *Frame) {})
	nw.Attach(1, func(f *Frame) {
		*delivered++
		nw.Recycle(f)
	})
	msg := struct{ x int }{42}
	return func() {
		f := nw.NewFrame()
		f.Src, f.Dst, f.PayloadBytes, f.Flow = 0, 1, 256, 7
		f.Msgs = append(f.Msgs, &msg)
		nw.Send(f)
		eng.RunAll()
	}, delivered
}

// BenchmarkFrameDelivery measures the steady-state cost of one frame's full
// life cycle. With the frame freelist and the closure-free delivery path
// this allocates nothing once warm.
func BenchmarkFrameDelivery(b *testing.B) {
	op, delivered := frameDeliveryOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	if *delivered != b.N {
		b.Fatalf("delivered %d frames, want %d", *delivered, b.N)
	}
}

// TestFrameDeliveryAllocFree is the exact gate on the benchmark's claim: a
// warm frame life cycle allocates nothing.
func TestFrameDeliveryAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	op, delivered := frameDeliveryOp()
	op() // fill the frame freelist and size the event heap
	if n := testing.AllocsPerRun(1000, op); n != 0 {
		t.Fatalf("warm frame delivery allocates %v objects per frame, want 0", n)
	}
	// The warming op, AllocsPerRun's own warm-up call, then the 1000 runs.
	if want := 1002; *delivered != want {
		t.Fatalf("delivered %d frames, want %d", *delivered, want)
	}
}
