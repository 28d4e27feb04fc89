package main

import (
	"fmt"
	"math"
	"slices"
)

// Verdicts (see summarize).
const (
	changed    = "changed"
	improved   = "improved"
	unresolved = "unresolved"
	worse      = "worse"
)

// winShare is the share of pairs the change must win before its median
// gap can read as a gain.
const winShare = 0.9

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating linearly between order statistics (the rank of quantile q
// among n sorted values is q*(n-1)).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	at := func(q float64) float64 {
		r := q * float64(len(s)-1)
		i := int(r)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (r-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// summary is one metric on one workload over n pairs of runs.
type summary struct {
	parent, change [3]float64 // q1, median, q3
	wins, pairs    int        // pairs in which the change's run was better
	worseBy        float64    // share of the parent's median by which the change's is worse
	identical      bool       // every run of both sides gave the same value
	verdict        string
}

// summarize compares paired runs: parent[i] and change[i] ran back to back.
// lower says which way is better, and bound is the share of the parent's
// median by which the metric may worsen (BENCHMARK.json's bound). A metric
// whose parent runs (two or more) all gave one value is exact per seed, as
// every sim-clock metric is: the change moved it if any of its runs gave
// another, and that reads changed whatever the bound. Otherwise the change
// improved the metric if it won at least ⌈0.9·pairs⌉ pairs and its median
// is better than the parent's by more than the parent's IQR. It is worse if
// its median is worse than the parent's by more than bound. Otherwise the
// runs cannot tell the two apart, or the move is inside what the benchmark
// allows.
func summarize(lower bool, bound float64, parent, change []float64) summary {
	if len(parent) != len(change) || len(parent) == 0 {
		panic(fmt.Sprintf("ab: %d parent and %d change runs", len(parent), len(change)))
	}
	var s summary
	s.parent[0], s.parent[1], s.parent[2] = quartiles(parent)
	s.change[0], s.change[1], s.change[2] = quartiles(change)
	better := func(c, p float64) bool { return lower && c < p || !lower && c > p }
	s.pairs = len(parent)
	exact := s.pairs > 1
	s.identical = true
	for i := range parent {
		if better(change[i], parent[i]) {
			s.wins++
		}
		if parent[i] != parent[0] {
			exact = false
		}
		if parent[i] != parent[0] || change[i] != parent[0] {
			s.identical = false
		}
	}
	p, c := s.parent[1], s.change[1]
	gap := c - p // > 0: the change's median is higher
	if lower {
		gap = -gap
	}
	if c != p {
		// As bench's own comparison computes it.
		if s.worseBy = c/p - 1; !lower {
			s.worseBy = 1 - c/p
		}
	}
	switch {
	case exact && !s.identical:
		s.verdict = changed
	case s.worseBy > bound:
		s.verdict = worse
	case gap > s.parent[2]-s.parent[0] && s.wins >= int(math.Ceil(winShare*float64(s.pairs))):
		s.verdict = improved
	default:
		s.verdict = unresolved
	}
	return s
}

// ops is one run's operation counts.
type ops struct{ attempted, failed int64 }

// failedMore returns the pairs (numbered from 1) in which the change's run
// failed a larger share of its attempted operations than the parent's.
func failedMore(parent, change []ops) []int {
	share := func(o ops) float64 {
		if o.attempted == 0 {
			return 0
		}
		return float64(o.failed) / float64(o.attempted)
	}
	var pairs []int
	for i := range parent {
		if share(change[i]) > share(parent[i]) {
			pairs = append(pairs, i+1)
		}
	}
	return pairs
}
