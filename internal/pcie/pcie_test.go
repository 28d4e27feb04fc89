package pcie

import (
	"testing"

	"xenic/internal/model"
	"xenic/internal/sim"
)

func setup() (*sim.Engine, *Engine, model.Params) {
	p := model.Default()
	eng := sim.NewEngine(1)
	return eng, New(eng, p), p
}

func TestSingleWriteLatency(t *testing.T) {
	eng, d, p := setup()
	var done sim.Time
	d.Submit(0, &Vector{Write: true, Sizes: []int{64}, Complete: func() { done = eng.Now() }})
	eng.RunAll()
	want := d.elementCost(64) + p.DMAWriteLatency
	if done != want {
		t.Fatalf("write completed at %v, want %v", done, want)
	}
}

func TestSingleReadLatencyHigherThanWrite(t *testing.T) {
	eng, d, _ := setup()
	var r, w sim.Time
	d.Submit(0, &Vector{Write: false, Sizes: []int{64}, Complete: func() { r = eng.Now() }})
	eng.RunAll()
	eng2 := sim.NewEngine(1)
	d2 := New(eng2, model.Default())
	d2.Submit(0, &Vector{Write: true, Sizes: []int{64}, Complete: func() { w = eng2.Now() }})
	eng2.RunAll()
	if r <= w {
		t.Fatalf("read latency %v not above write latency %v", r, w)
	}
}

func TestFullVectorDoesNotInflateCompletionLatency(t *testing.T) {
	// §3.5: full 15-element vectors do not increase completion latency
	// relative to single-buffer requests (beyond shared engine occupancy).
	eng, d, p := setup()
	var single, full sim.Time
	d.Submit(0, &Vector{Write: true, Sizes: []int{64}, Complete: func() { single = eng.Now() }})
	eng.RunAll()

	eng2 := sim.NewEngine(1)
	d2 := New(eng2, p)
	sizes := make([]int, 15)
	for i := range sizes {
		sizes[i] = 64
	}
	d2.Submit(0, &Vector{Write: true, Sizes: sizes, Complete: func() { full = eng2.Now() }})
	eng2.RunAll()
	// The 15-element vector finishes within a microsecond of the single op.
	if full-single > sim.Microsecond {
		t.Fatalf("vector completion %v vs single %v", full, single)
	}
}

func TestVectoredSubmissionRaisesThroughput(t *testing.T) {
	// Saturating with single-element vectors is admission-capped at
	// DMAEngineRate; 15-element vectors move ~15x more elements until the
	// element rate cap binds.
	run := func(elemsPerVec int) float64 {
		eng := sim.NewEngine(1)
		p := model.Default()
		d := New(eng, p)
		sizes := make([]int, elemsPerVec)
		for i := range sizes {
			sizes[i] = 16
		}
		dur := 10 * sim.Millisecond
		var pump func()
		pump = func() {
			if eng.Now() >= dur {
				return
			}
			// Keep the engine saturated a little ahead of real time.
			for d.admit.Horizon() < eng.Now()+10*sim.Microsecond {
				d.Submit(0, &Vector{Write: true, Sizes: sizes})
			}
			eng.After(sim.Microsecond, pump)
		}
		eng.Defer(pump)
		eng.Run(dur)
		return float64(d.Elements()) / dur.Seconds()
	}
	single := run(1)
	vectored := run(15)
	p := model.Default()
	if single > p.DMAEngineRate*1.02 || single < p.DMAEngineRate*0.9 {
		t.Fatalf("single-element rate %.2fM, want ~%.1fM (engine cap)", single/1e6, p.DMAEngineRate/1e6)
	}
	if vectored > p.DMAElementRate*1.02 || vectored < p.DMAElementRate*0.9 {
		t.Fatalf("vectored element rate %.2fM, want ~%.1fM (element cap)", vectored/1e6, p.DMAElementRate/1e6)
	}
	if vectored < 5*single {
		t.Fatalf("vectoring gained only %.1fx", vectored/single)
	}
}

func TestLargeElementsBandwidthBound(t *testing.T) {
	eng := sim.NewEngine(1)
	p := model.Default()
	d := New(eng, p)
	dur := 10 * sim.Millisecond
	sizes := make([]int, 15)
	for i := range sizes {
		sizes[i] = 4096
	}
	var pump func()
	pump = func() {
		if eng.Now() >= dur {
			return
		}
		for d.admit.Horizon() < eng.Now()+10*sim.Microsecond {
			d.Submit(0, &Vector{Write: true, Sizes: sizes})
		}
		eng.After(sim.Microsecond, pump)
	}
	eng.Defer(pump)
	eng.Run(dur)
	bps := float64(d.Bytes()) / dur.Seconds()
	if bps > p.PCIeBandwidth*1.02 || bps < p.PCIeBandwidth*0.9 {
		t.Fatalf("DMA bandwidth %.2f GB/s, want ~%.2f GB/s", bps/1e9, p.PCIeBandwidth/1e9)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, d, p := setup()
	cases := []struct {
		queue int
		sizes []int
	}{
		{-1, []int{8}},
		{p.DMAQueues, []int{8}},
		{0, nil},
		{0, make([]int, p.DMAVectorMax+1)},
		{0, []int{0}},
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			if c.sizes != nil && len(c.sizes) > 1 {
				for j := range c.sizes {
					c.sizes[j] = 8
				}
			}
			d.Submit(c.queue, &Vector{Write: true, Sizes: c.sizes})
		}()
	}
}

func TestStats(t *testing.T) {
	eng, d, _ := setup()
	d.Submit(0, &Vector{Write: true, Sizes: []int{10, 20}})
	d.Submit(1, &Vector{Write: false, Sizes: []int{30}})
	eng.RunAll()
	if d.Submissions() != 2 || d.Elements() != 3 || d.Bytes() != 60 {
		t.Fatalf("stats: %d subs %d elems %d bytes", d.Submissions(), d.Elements(), d.Bytes())
	}
}
