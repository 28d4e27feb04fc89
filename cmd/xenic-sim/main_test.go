package main

import (
	"math"
	"strings"
	"testing"
)

// TestValidateFlags: every value main divides by or measures over, and every
// workload or load override that would hang, panic or be ignored, is checked
// up front, and the error names the offending flag.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
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
	} {
		f := simFlags{app: 2, threads: 16, warmMS: 3, ms: 10}
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
