package main

import (
	"slices"
	"testing"
)

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{3, 1}, 1.5, 2, 2.5},
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
		{[]float64{10, 40, 20, 30}, 17.5, 25, 32.5},
		{[]float64{2, 2, 2, 2, 2, 2}, 2, 2, 2},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestSummarize(t *testing.T) {
	// The parent's runs all have q1 2, median 3, q3 4: an IQR of 2.
	parent := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		name      string
		lower     bool
		bound     float64
		change    []float64
		wins      int
		verdict   string
		identical bool
	}{
		// Median 0.5 below the parent's 3: a gap of 2.5 beats the IQR.
		{"lower-better, down by more than the IQR", true, 0.25, []float64{1.5, 0.5, 1, 0, 0.5}, 5, improved, false},
		// The same runs, higher-better: the median is 83 % worse.
		{"higher-better, down by more than the bound", false, 0.25, []float64{1.5, 0.5, 1, 0, 0.5}, 0, worse, false},
		{"higher-better, down by less than the bound", false, 0.9, []float64{1.5, 0.5, 1, 0, 0.5}, 0, unresolved, false},
		// A gap of exactly the IQR is not enough.
		{"gap equal to the IQR", true, 0.25, []float64{3, 0, 2, 1, 1}, 5, unresolved, false},
		{"gap inside the IQR", false, 0.25, []float64{6, 2, 5, 3, 3.5}, 5, unresolved, false},
		{"higher-better, up by more than the IQR", false, 0.25, []float64{9, 5, 8, 6, 7}, 5, improved, false},
		// A median gap beyond the IQR on 4 wins of 5 is short of ⌈4.5⌉.
		{"gap beyond the IQR, 4 of 5 wins", true, 0.25, []float64{6, 0.5, 1, 0, 0.5}, 4, unresolved, false},
		// The median is 3 higher (+100 %): worse beyond a 25 % bound...
		{"lower-better, up by more than the bound", true, 0.25, []float64{9, 5, 8, 6, 7}, 0, worse, false},
		// ...but a 2 % rise inside a 3 % bound is not worse, however
		// tight the parent's runs.
		{"lower-better, up inside the bound", true, 0.03, []float64{5.1, 1.02, 4.08, 2.04, 3.06}, 0, unresolved, false},
	} {
		s := summarize(c.lower, c.bound, parent, c.change)
		if s.wins != c.wins || s.pairs != 5 || s.verdict != c.verdict || s.identical != c.identical {
			t.Errorf("%s: wins %d/%d, verdict %s, identical %v; want %d/5, %s, %v",
				c.name, s.wins, s.pairs, s.verdict, s.identical, c.wins, c.verdict, c.identical)
		}
		if s.parent != [3]float64{2, 3, 4} {
			t.Errorf("%s: parent quartiles %v, want [2 3 4]", c.name, s.parent)
		}
	}
	// A sim-clock metric: every run of both sides the same value.
	same := []float64{117.9, 117.9, 117.9}
	if s := summarize(false, 0.02, same, same); s.verdict != unresolved || !s.identical || s.wins != 0 || s.worseBy != 0 {
		t.Errorf("identical runs: verdict %s, identical %v, wins %d, worse by %v", s.verdict, s.identical, s.wins, s.worseBy)
	}
	// Equal medians but a different run: not identical, and the parent's
	// one value moved, so changed however small the move.
	if s := summarize(true, 0.02, same, []float64{117.9, 117.8, 117.9}); s.identical || s.wins != 1 || s.verdict != changed {
		t.Errorf("one differing run: identical %v, wins %d, verdict %s", s.identical, s.wins, s.verdict)
	}
	// An exact metric that moved past its bound, or as a gain, still reads
	// changed.
	for _, moved := range [][]float64{{100, 100, 100}, {130, 130, 130}} {
		if s := summarize(false, 0.02, same, moved); s.verdict != changed {
			t.Errorf("exact metric moved to %v: verdict %s, want %s", moved, s.verdict, changed)
		}
	}
	// One pair proves nothing exact: a single parent run is not a value
	// every run agrees on.
	if s := summarize(true, 0.25, []float64{10}, []float64{11}); s.verdict != unresolved {
		t.Errorf("one pair: verdict %s, want %s", s.verdict, unresolved)
	}
	// Ten pairs need nine wins: a gap beyond a zero IQR on 9/10 is a gain.
	// One parent run differs, so the metric is not exact and the IQR is
	// still 0.
	tenParent := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10.1}
	tenChange := []float64{8, 8, 8, 8, 8, 8, 8, 8, 8, 11}
	if s := summarize(true, 0.15, tenParent, tenChange); s.wins != 9 || s.verdict != improved {
		t.Errorf("9 of 10 wins: wins %d, verdict %s", s.wins, s.verdict)
	}
	tenChange[0] = 12
	if s := summarize(true, 0.15, tenParent, tenChange); s.wins != 8 || s.verdict != unresolved {
		t.Errorf("8 of 10 wins: wins %d, verdict %s", s.wins, s.verdict)
	}
}

func TestFailedMore(t *testing.T) {
	parent := []ops{{100, 0}, {100, 2}, {100, 2}, {0, 0}, {200, 4}}
	change := []ops{{100, 0}, {100, 3}, {200, 2}, {100, 1}, {100, 2}}
	// Pair 2 fails more of the same attempts; pair 3 fails as many of
	// more attempts, a smaller share; pair 4 fails where the parent
	// failed nothing; pair 5 fails the same 2 %.
	if got, want := failedMore(parent, change), []int{2, 4}; !slices.Equal(got, want) {
		t.Errorf("failedMore = %v, want %v", got, want)
	}
	if got := failedMore(parent, parent); got != nil {
		t.Errorf("failedMore of a side against itself = %v, want none", got)
	}
}
