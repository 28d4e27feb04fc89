package pcie

import (
	"testing"

	"xenic/internal/model"
	"xenic/internal/raceflag"
	"xenic/internal/sim"
)

// dmaCompletionOp returns one op of a vector submission plus its completion
// dispatch, and the counter of completions so far. The vector and its sizes
// array are reused across ops (as the NIC runtime's freelists do), so the
// engine-side cost — admission bookkeeping and the completion event — is
// what an op exercises.
func dmaCompletionOp() (op func(), completions *int) {
	eng := sim.NewEngine(1)
	d := New(eng, model.Default())
	completions = new(int)
	v := &Vector{
		Write:    true,
		Sizes:    []int{64, 128, 256, 512},
		Complete: func() { *completions++ },
	}
	return func() {
		d.Submit(0, v)
		eng.RunAll()
	}, completions
}

// BenchmarkDMACompletion measures the cost of one vector submission plus its
// completion dispatch; with the prebound completion callback it allocates
// nothing.
func BenchmarkDMACompletion(b *testing.B) {
	op, completions := dmaCompletionOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	if *completions != b.N {
		b.Fatalf("completed %d vectors, want %d", *completions, b.N)
	}
}

// TestDMACompletionAllocFree is the exact gate on the benchmark's claim:
// submitting a reused vector and dispatching its completion allocates
// nothing.
func TestDMACompletionAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	op, completions := dmaCompletionOp()
	op() // size the event heap
	if n := testing.AllocsPerRun(1000, op); n != 0 {
		t.Fatalf("DMA submit+completion allocates %v objects per vector, want 0", n)
	}
	// The warming op, AllocsPerRun's own warm-up call, then the 1000 runs.
	if want := 1002; *completions != want {
		t.Fatalf("completed %d vectors, want %d", *completions, want)
	}
}
