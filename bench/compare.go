package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareSets holds result set B to A's bounds and prints one row per
// end-to-end metric and workload with both values and B/A. Sim-clock
// metrics are exact per (commit, seed, seconds), so any difference is
// reported; host-clock metrics may worsen by their bound. It returns the
// process exit code: 0 only when nothing differs beyond its rule.
func compareSets(pathA, pathB string) int {
	var sets [2]*resultSet
	for i, path := range []string{pathA, pathB} {
		set, err := loadSet(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sets[i] = set
	}
	return compare(os.Stdout, sets[0], sets[1])
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &resultSet{}
	if err := json.Unmarshal(data, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func (s *resultSet) untraced(workload string) *record {
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == 0 {
			return r
		}
	}
	return nil
}

func compare(out io.Writer, a, b *resultSet) int {
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(out, "note: sets differ in seed or seconds (A: seed %d, %gs; B: seed %d, %gs); sim-clock metrics will differ\n",
			a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	breaches := 0
	fmt.Fprintf(out, "%-18s %-22s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "B/A", "verdict")
	for _, w := range workloads {
		ra, rb := a.untraced(w.Name), b.untraced(w.Name)
		if ra == nil || rb == nil {
			fmt.Fprintf(out, "%-18s missing from a set\n", w.Name)
			breaches++
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(out, "%-18s an incorrect run\n", w.Name)
			breaches++
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			worse := vb/va - 1 // share of A by which B is worse
			if d.Better == "higher" {
				worse = 1 - vb/va
			}
			verdict := "ok"
			switch {
			case va == vb:
				verdict = "same"
			case worse > d.Bound:
				verdict = fmt.Sprintf("WORSE by %.1f%% of A, bound %.0f%%", worse*100, d.Bound*100)
				breaches++
			case d.Clock != hostClock:
				verdict = "CHANGED: exact per seed, so the model or its inputs moved"
				breaches++
			}
			fmt.Fprintf(out, "%-18s %-22s %14.6g %14.6g %9.4f  %s\n", w.Name, d.Name, va, vb, vb/va, verdict)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(out, "FAIL: %d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintln(out, "ok: B is within A's bounds")
	return 0
}
