package openloop

import (
	"math"
	"math/rand"
	"testing"

	"xenic/internal/sim"
)

func TestPoissonGapMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mean := 10 * sim.Microsecond
	var sum sim.Time
	const n = 200000
	for i := 0; i < n; i++ {
		sum += Poisson{}.Gap(rng, mean)
	}
	got := float64(sum) / n
	if math.Abs(got-float64(mean)) > 0.02*float64(mean) {
		t.Fatalf("poisson mean off: got %v want ~%v", sim.Time(got), mean)
	}
}

func TestBoundedParetoGapMeanAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mean := 10 * sim.Microsecond
	p := BoundedPareto{}
	// Reconstruct the scale the sampler uses to check truncation bounds.
	a, s := DefaultAlpha, DefaultSpread
	m := (a / (a - 1)) * (1 - math.Pow(s, 1-a)) / (1 - math.Pow(s, -a))
	low := float64(mean) / m
	var sum sim.Time
	const n = 500000
	for i := 0; i < n; i++ {
		g := p.Gap(rng, mean)
		if fg := float64(g); fg < low*0.999 || fg > low*s*1.001 {
			t.Fatalf("gap %v outside truncation [%v, %v]", g, low, low*s)
		}
		sum += g
	}
	got := float64(sum) / n
	if math.Abs(got-float64(mean)) > 0.05*float64(mean) {
		t.Fatalf("pareto mean off: got %v want ~%v", sim.Time(got), mean)
	}
}

func TestParseArrival(t *testing.T) {
	for _, spec := range []string{"", "poisson", "pareto"} {
		if _, err := ParseArrival(spec); err != nil {
			t.Fatalf("ParseArrival(%q): %v", spec, err)
		}
	}
	if _, err := ParseArrival("uniform"); err == nil {
		t.Fatal("ParseArrival accepted unknown process")
	}
}

func TestTokenBucket(t *testing.T) {
	// 1000 tokens/sec, burst 2: two immediate admits, then rejects until
	// 1ms of simulated time accrues the next token.
	tb := NewTokenBucket(1000, 2)
	if tb.Arrive(0, 0, 0) != Admit || tb.Arrive(0, 0, 0) != Admit {
		t.Fatal("burst tokens not granted")
	}
	if tb.Arrive(0, 0, 0) != Reject {
		t.Fatal("empty bucket admitted")
	}
	if tb.Arrive(sim.Millisecond/2, 0, 0) != Reject {
		t.Fatal("half a token admitted")
	}
	if tb.Arrive(sim.Millisecond+sim.Microsecond, 0, 0) != Admit {
		t.Fatal("accrued token not granted")
	}
	if tb.Arrive(sim.Millisecond+2*sim.Microsecond, 0, 0) != Reject {
		t.Fatal("token granted twice")
	}
}

func TestQueueDepth(t *testing.T) {
	qd := NewQueueDepth(2, 3)
	if qd.Arrive(0, 0, 0) != Admit || qd.Arrive(0, 1, 0) != Admit {
		t.Fatal("under-bound arrivals not admitted")
	}
	if qd.Arrive(0, 2, 0) != Delay || qd.Arrive(0, 2, 2) != Delay {
		t.Fatal("at-bound arrivals not delayed")
	}
	if qd.Arrive(0, 2, 3) != Reject {
		t.Fatal("full queue did not reject")
	}
	if qd.Arrive(0, 1, 3) != Admit {
		t.Fatal("freed capacity not admitted")
	}
}

func TestParseAdmission(t *testing.T) {
	cases := map[string]string{
		"":             "none",
		"none":         "none",
		"unlimited":    "none",
		"token:1000":   "token",
		"token:1e6:50": "token",
		"queue:64":     "queue",
		"queue:64:256": "queue",
	}
	for spec, want := range cases {
		adm, err := ParseAdmission(spec)
		if err != nil {
			t.Fatalf("ParseAdmission(%q): %v", spec, err)
		}
		if adm.Name() != want {
			t.Fatalf("ParseAdmission(%q) = %s, want %s", spec, adm.Name(), want)
		}
	}
	for _, spec := range []string{"token", "token:0", "token:x", "queue", "queue:-1", "queue:4:x", "drop:1", "none:1",
		"token:NaN", "token:Inf", "token:1:NaN", "token:1:Inf"} {
		if _, err := ParseAdmission(spec); err == nil {
			t.Fatalf("ParseAdmission(%q) accepted a bad spec", spec)
		}
	}
}

// FuzzParseAdmission: a spec the parser accepts yields a policy that admits
// the first arrival into an idle system, with finite, in-range parameters.
// The seeds are the CLI's documented forms, the CI runs' specs and the
// non-finite token specs that used to parse into a bucket admitting nothing.
func FuzzParseAdmission(f *testing.F) {
	for _, spec := range []string{"", "none", "unlimited", "token:1000", "token:1e6:50", "token:2e6:64",
		"queue:64", "queue:64:128", "queue:96:96", "queue:64:0",
		"token:NaN", "token:Inf", "token:-Inf", "token:1:NaN", "token:1:Inf", "token:0", "token:1:0.5",
		"queue:0", "queue:-1", "queue:4:-1", "none:1", "drop:1", "token:1:2:3", ":"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		adm, err := ParseAdmission(spec)
		if err != nil {
			return
		}
		switch p := adm.(type) {
		case *TokenBucket:
			if !(p.Rate > 0 && p.Rate <= math.MaxFloat64 && p.Burst >= 1 && p.Burst <= math.MaxFloat64) {
				t.Fatalf("ParseAdmission(%q) = token bucket rate %g burst %g", spec, p.Rate, p.Burst)
			}
		case *QueueDepth:
			if p.MaxInFlight < 1 || p.MaxQueue < 0 {
				t.Fatalf("ParseAdmission(%q) = queue depth %d length %d", spec, p.MaxInFlight, p.MaxQueue)
			}
		}
		if d := adm.Arrive(0, 0, 0); d != Admit {
			t.Fatalf("ParseAdmission(%q): first arrival into an idle system got %d, want Admit", spec, d)
		}
	})
}

// FuzzParseArrival: an accepted arrival process draws positive gaps.
func FuzzParseArrival(f *testing.F) {
	for _, spec := range []string{"", "poisson", "pareto", "uniform", "Pareto", "pareto:2"} {
		f.Add(spec, int64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		arr, err := ParseArrival(spec)
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		for range 100 {
			if g := arr.Gap(rng, 10*sim.Microsecond); g < 1 {
				t.Fatalf("ParseArrival(%q) drew gap %v", spec, g)
			}
		}
	})
}

func TestAttachValidation(t *testing.T) {
	if err := New(Config{}).Attach(nil); err == nil {
		t.Fatal("attach to nil driver accepted")
	}
	d := newFakeDriver()
	if err := New(Config{}).Attach(d); err == nil {
		t.Fatal("zero rate accepted")
	}
	if err := New(Config{Rate: 1e6, Sessions: 2, Tenants: 4}).Attach(d); err == nil {
		t.Fatal("fewer sessions than tenants accepted")
	}
	src := New(Config{Rate: 1e6})
	if err := src.Attach(d); err != nil {
		t.Fatal(err)
	}
	if err := src.Attach(d); err == nil {
		t.Fatal("double attach accepted")
	}
}
