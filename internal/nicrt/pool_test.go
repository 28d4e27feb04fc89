package nicrt

import (
	"testing"

	"xenic/internal/raceflag"
	"xenic/internal/sim"
	"xenic/internal/wire"
)

// TestDMACycleAllocFree is the allocation budget of the asynchronous DMA
// path: once a core's vector records, queues and the event heap have reached
// their working size, submit -> complete -> continuation allocates nothing.
func TestDMACycleAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	eng, _, a, _, _ := twoNICs(t, AllFeatures())
	a.OnMessage(func(c *Core, src int, m wire.Msg) {})
	ran := 0
	cb := func() { ran++ }
	job := func(c *Core) {
		// Two write vectors (one full, one partial) and two read vectors.
		for i := 0; i < 20; i++ {
			c.DMAWrite(64, cb)
			c.DMARead(128, cb)
		}
	}
	cycle := func() {
		a.Inject(0, job)
		eng.RunAll()
	}
	cycle()
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("warmed DMA cycle allocates %v objects per run, want 0", n)
	}
	// Two warming cycles, AllocsPerRun's own warm-up call, then the 50 runs.
	if want := 53 * 40; ran != want {
		t.Fatalf("%d continuations ran, want %d", ran, want)
	}
}

// TestDMAVectorRecycling drives the pooled vector records through every
// owner — pending slot, engine, completion queue, freelist — with injected
// completion failures, and checks that each continuation still runs exactly
// once and that steady state reuses the records instead of growing the pool.
func TestDMAVectorRecycling(t *testing.T) {
	eng, _, a, _, _ := twoNICs(t, AllFeatures())
	a.OnMessage(func(c *Core, src int, m wire.Msg) {})
	fails := 0
	a.SetDMAFault(func() bool {
		fails++
		return fails%3 == 0 // every third completion fails and is retried
	})
	const rounds, perRound = 30, 40
	ran := make([]int, rounds*perRound)
	for r := 0; r < rounds; r++ {
		r := r
		eng.At(sim.Time(r)*20*sim.Microsecond, func() {
			a.Inject(0, func(c *Core) {
				for i := 0; i < perRound; i++ {
					id := r*perRound + i
					if i%2 == 0 {
						c.DMAWrite(64, func() { ran[id]++ })
					} else {
						c.DMARead(64, func() { ran[id]++ })
					}
				}
			})
		})
	}
	eng.RunAll()
	for id, n := range ran {
		if n != 1 {
			t.Fatalf("continuation %d ran %d times", id, n)
		}
	}
	if a.Stats().DMARetries == 0 {
		t.Fatal("no completion was retried; the test exercises nothing")
	}
	c := a.cores[0]
	if c.pendRead != nil || c.pendWrite != nil || len(c.dmaDone) != 0 {
		t.Fatal("vectors left pending after the run drained")
	}
	// One round has at most four vectors in flight (two per direction), and
	// rounds do not overlap, so the pool never needs more than that.
	if n := len(c.vecFree); n == 0 || n > 4 {
		t.Fatalf("freelist holds %d vector records after %d rounds, want 1..4", n, rounds)
	}
	for _, v := range c.vecFree {
		if len(v.vec.Sizes) != 0 || len(v.cbs) != 0 || v.attempt != 0 {
			t.Fatalf("recycled vector not reset: %+v", v)
		}
	}
}
