package sim

import (
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
