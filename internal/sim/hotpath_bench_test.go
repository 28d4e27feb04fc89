package sim

import (
	"math/rand"
	"testing"

	"xenic/internal/raceflag"
)

// scheduleOp returns one op of the engine's hot path — one event scheduled
// and executed — over a pending queue held depth events deep.
func scheduleOp(depth int) func() {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < depth; i++ {
		e.At(Time(i), fn)
	}
	return func() {
		e.At(e.Now()+Time(max(depth, 1)), fn)
		e.Step()
	}
}

// BenchmarkSchedule measures the per-event scheduling + dispatch overhead of
// the engine: one event scheduled and executed per op.
func BenchmarkSchedule(b *testing.B) {
	b.ReportAllocs()
	op := scheduleOp(0)
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkScheduleDepth64 keeps a 64-deep pending queue, the typical shape
// of a loaded cluster run.
func BenchmarkScheduleDepth64(b *testing.B) {
	b.ReportAllocs()
	op := scheduleOp(64)
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestScheduleAllocFree is the exact gate on the numbers above: scheduling
// and dispatching an event allocates nothing, on an empty queue or a deep one.
func TestScheduleAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, depth := range []int{0, 64} {
		op := scheduleOp(depth)
		op() // grow the heap to its working size
		if n := testing.AllocsPerRun(1000, op); n != 0 {
			t.Errorf("depth %d: schedule+dispatch allocates %v objects per event, want 0", depth, n)
		}
	}
}

// spreadDeltas returns n scheduling distances in the mix a loaded cluster
// run schedules: 15-20 % at now, about a quarter at 65-262 ns (core and PCIe
// steps), a quarter at 0.5-2 us (wire and DMA round trips), the rest at
// 2-64 us (verb round trips, back-offs, timers).
func spreadDeltas(n int) []Time {
	rng := rand.New(rand.NewSource(1))
	span := func(lo, hi Time) Time { return lo + Time(rng.Int63n(int64(hi-lo))) }
	d := make([]Time, n)
	for i := range d {
		switch r := rng.Intn(100); {
		case r < 18:
			d[i] = 0
		case r < 43:
			d[i] = span(65*Nanosecond, 262*Nanosecond)
		case r < 68:
			d[i] = span(500*Nanosecond, 2*Microsecond)
		default:
			d[i] = span(2*Microsecond, 64*Microsecond)
		}
	}
	return d
}

// BenchmarkScheduleSpread holds 1 500 events pending, scheduled at the
// distances spreadDeltas draws: one event scheduled and executed per op.
func BenchmarkScheduleSpread(b *testing.B) {
	deltas := spreadDeltas(4096)
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 1500; i++ {
		e.At(deltas[i], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+deltas[i&4095], fn)
		e.Step()
	}
}
