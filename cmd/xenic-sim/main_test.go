package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// flagCases are TestValidateFlags's table, and FuzzValidateFlags's seeds.
var flagCases = []struct {
	name     string
	set      func(*simFlags)
	wantFlag string // "" = valid
}{
	{"defaults", func(*simFlags) {}, ""},
	{"minimums", func(f *simFlags) { *f = simFlags{app: 1, threads: 1, ms: 1} }, ""},
	{"app zero", func(f *simFlags) { f.app = 0 }, "-app"},
	{"app negative", func(f *simFlags) { f.app = -2 }, "-app"},
	{"threads zero", func(f *simFlags) { f.threads = 0 }, "-threads"},
	{"warm-ms negative", func(f *simFlags) { f.warmMS = -1 }, "-warm-ms"},
	{"ms zero", func(f *simFlags) { f.ms = 0 }, "-ms"},
	{"ms negative", func(f *simFlags) { f.ms = -1 }, "-ms"},

	// Workload overrides: 0 keeps the paper's value; the skew cells the
	// serializability sweeps run stay valid.
	{"alpha 0.99", func(f *simFlags) { f.alpha = 0.99 }, ""},
	{"alpha one", func(f *simFlags) { f.alpha = 1 }, "-alpha"},
	{"alpha two", func(f *simFlags) { f.alpha = 2 }, "-alpha"},
	{"alpha negative", func(f *simFlags) { f.alpha = -0.5 }, "-alpha"},
	{"alpha NaN", func(f *simFlags) { f.alpha = math.NaN() }, "-alpha"},
	{"hot-frac 0.005", func(f *simFlags) { f.hotFrac, f.hotProb = 0.005, 0.99 }, ""},
	{"hot-frac one", func(f *simFlags) { f.hotFrac = 1 }, "-hot-frac"},
	{"hot-frac two", func(f *simFlags) { f.hotFrac = 2 }, "-hot-frac"},
	{"hot-frac negative", func(f *simFlags) { f.hotFrac = -0.1 }, "-hot-frac"},
	{"hot-prob one", func(f *simFlags) { f.hotProb = 1 }, ""},
	{"hot-prob five", func(f *simFlags) { f.hotProb = 5 }, "-hot-prob"},
	{"hot-prob negative", func(f *simFlags) { f.hotProb = -1 }, "-hot-prob"},
	{"ro-frac one", func(f *simFlags) { f.roFrac = 1 }, ""},
	{"ro-frac two", func(f *simFlags) { f.roFrac = 2 }, "-ro-frac"},
	{"ro-frac negative", func(f *simFlags) { f.roFrac = -1 }, "-ro-frac"},
	{"ro-frac NaN", func(f *simFlags) { f.roFrac = math.NaN() }, "-ro-frac"},

	{"openloop overload", func(f *simFlags) { f.openloop = 1.7e7 }, ""},
	{"openloop negative", func(f *simFlags) { f.openloop = -5 }, "-openloop"},
	{"openloop NaN", func(f *simFlags) { f.openloop = math.NaN() }, "-openloop"},
	{"openloop Inf", func(f *simFlags) { f.openloop = math.Inf(1) }, "-openloop"},
}

// defaultFlags is what main passes validateFlags with no flags given.
func defaultFlags() simFlags { return simFlags{app: 2, threads: 16, warmMS: 3, ms: 10} }

// TestValidateFlags: every value main divides by or measures over, and every
// workload or load override that would hang, panic or be ignored, is checked
// up front, and the error names the offending flag.
func TestValidateFlags(t *testing.T) {
	for _, tc := range flagCases {
		f := defaultFlags()
		tc.set(&f)
		err := validateFlags(f)
		switch {
		case tc.wantFlag == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantFlag != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %s", tc.name, tc.wantFlag)
		case tc.wantFlag != "" && !strings.HasPrefix(err.Error(), tc.wantFlag+" "):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantFlag)
		}
	}
}

// FuzzValidateFlags holds validateFlags to its promise: a flag set it
// accepts builds Smallbank and Retwis generators (as main builds them, at
// the smallest population) that each draw 1 000 transactions without
// panicking or hanging.
func FuzzValidateFlags(f *testing.F) {
	for _, tc := range flagCases {
		v := defaultFlags()
		tc.set(&v)
		f.Add(v.app, v.threads, v.warmMS, v.ms, v.roFrac, v.alpha, v.hotFrac, v.hotProb, v.openloop)
	}
	f.Fuzz(func(t *testing.T, app, threads, warmMS, ms int, roFrac, alpha, hotFrac, hotProb, openloop float64) {
		flags := simFlags{app: app, threads: threads, warmMS: warmMS, ms: ms,
			roFrac: roFrac, alpha: alpha, hotFrac: hotFrac, hotProb: hotProb, openloop: openloop}
		if validateFlags(flags) != nil {
			return
		}
		for _, workload := range []string{"smallbank", "retwis"} {
			gen := newGen(workload, 0, flags)
			gen.Placement(6, 3)
			// The draws run on their own goroutine so that a hang fails this
			// input, naming its flags, instead of stalling the whole run until
			// the test timeout; a hung goroutine is left behind with the failure.
			drew := make(chan any, 1)
			go func() {
				defer func() { drew <- recover() }()
				rng := rand.New(rand.NewSource(1))
				for i := 0; i < 1000; i++ {
					gen.Next(i%6, i%2, rng)
				}
			}()
			select {
			case p := <-drew:
				if p != nil {
					t.Fatalf("%s generator with %+v panicked: %v", workload, flags, p)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s generator with %+v did not draw 1 000 transactions in 10 s", workload, flags)
			}
		}
	})
}
