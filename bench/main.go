// Command bench is the repository's benchmark: four transaction workloads
// run through the public xenic API, each untraced for the end-to-end metrics
// and traced for the per-layer metrics, with a correctness gate on every
// run. See README.md for every metric and workload, and BENCHMARK.json at
// the repository root for the contract a run is held to.
//
//	go run -C bench .                              # all workloads, untraced and traced
//	go run -C bench . -workload tpcc_xenic         # one workload, both runs
//	go run -C bench . -trace 1                     # traced runs only
//	go run -C bench . -seed 2 -out set.json        # another seed, results to a file
//	go run -C bench . -compare a.json b.json       # hold set b to set a's bounds
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1   # one run (the driver's form)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
)

// resultSet is what a full invocation writes with -out and -compare reads.
type resultSet struct {
	Schema     string    `json:"schema"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Go         string    `json:"go"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Runs       []*record `json:"runs"`
}

const recordPrefix = "record: "

func main() {
	name := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed, fed to Config.Seed and OpenLoopConfig.Seed")
	seconds := flag.Float64("seconds", referenceSeconds, "host seconds one measure window is sized for; scales the frozen simulated windows")
	trace := flag.Int("trace", -1, "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); default both")
	out := flag.String("out", "", "write the full result set (metrics, notes, spans) to this JSON file")
	compare := flag.Bool("compare", false, "compare two result sets given as arguments: A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare A.json B.json")
		}
		os.Exit(compareSets(flag.Arg(0), flag.Arg(1)))
	}
	if *seconds <= 0 {
		fatal("-seconds must be positive")
	}
	if *trace < -1 || *trace > 1 {
		fatal("-trace must be 0 or 1")
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err.Error())
		}
		selected = []workload{*w}
	}
	if *name != "" && *trace >= 0 && *out == "" {
		os.Exit(single(&selected[0], *seed, *seconds, *trace == 1))
	}
	os.Exit(all(selected, *seed, *seconds, *trace, *out))
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(2)
}

// single performs one run in this process and prints every metric by name
// with its unit, the full record, and last the one-line result object.
func single(w *workload, seed int64, seconds float64, traced bool) int {
	fmt.Printf("%s: %s, %s loop: %s\n", w.Name, w.System, w.Loop, w.Sizes)
	rec := runWorkload(w, seed, seconds, traced)
	printRecord(rec)
	full, err := json.Marshal(rec)
	if err != nil {
		fatal(err.Error())
	}
	fmt.Printf("%s%s\n", recordPrefix, full)
	last, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": rec.Metrics,
	})
	if err != nil {
		fatal(err.Error())
	}
	fmt.Printf("%s\n", last)
	if !rec.Correct {
		return 1
	}
	return 0
}

func printRecord(rec *record) {
	kind, defs := "untraced", endToEnd
	if rec.Trace == 1 {
		kind, defs = "traced", perLayer()
	}
	fmt.Printf("== %s %s: seed %d, window %.0f sim_us, %d attempted, %d failed\n",
		rec.Workload, kind, rec.Seed, rec.WindowUs, rec.Attempted, rec.Failed)
	for _, d := range defs {
		v, ok := rec.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-38s %14.6g %-14s [%s clock, %s is better]\n", d.Name, v.Value, v.Unit, d.Clock, d.Better)
	}
	for _, k := range slices.Sorted(maps.Keys(rec.Notes)) {
		fmt.Printf("  note %s: %s\n", k, rec.Notes[k])
	}
	for _, s := range rec.Spans {
		fmt.Printf("  span %-14s parent=%-6s %8.3fs .. %8.3fs\n", s.Name, s.Parent, s.StartS, s.EndS)
	}
	for _, e := range rec.Errors {
		fmt.Printf("  INCORRECT %s\n", e)
	}
}

// all runs every selected workload untraced and traced (or just the one kind
// -trace names), each run in a fresh child process so peak_rss_mb belongs to
// one workload, one after another so nothing competes with the simulator.
// With both runs of a workload in hand it checks that observers are inert —
// every sim-clock value identical — and derives the tracing overhead.
func all(selected []workload, seed int64, seconds float64, trace int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err.Error())
	}
	set := &resultSet{Schema: "xenic-bench/1", Seed: seed, Seconds: seconds,
		Go: runtime.Version(), GOMAXPROCS: min(2, runtime.NumCPU())}
	failed := false
	for i := range selected {
		w := &selected[i]
		var untraced, traced *record
		for _, t := range []int{0, 1} {
			if trace >= 0 && trace != t {
				continue
			}
			rec, err := child(exe, w.Name, seed, seconds, t)
			if err != nil {
				fmt.Printf("FAIL %s trace=%d: %v\n", w.Name, t, err)
				failed = true
				continue
			}
			if !rec.Correct {
				failed = true
			}
			if t == 0 {
				untraced = rec
			} else {
				traced = rec
			}
			set.Runs = append(set.Runs, rec)
		}
		if untraced == nil || traced == nil {
			continue
		}
		for _, d := range endToEnd {
			if d.Clock == hostClock {
				continue
			}
			if a, b := untraced.Sim[d.Name], traced.Sim[d.Name]; a != b {
				fmt.Printf("FAIL %s: observers are not inert: %s is %v untraced, %v traced\n", w.Name, d.Name, a, b)
				failed = true
			}
		}
		ratio := traced.HostUsPerTxn / untraced.HostUsPerTxn
		traced.Metrics["bench.trace_overhead_ratio"] = value{ratio, "ratio"}
		fmt.Printf("== %s: observers inert (sim-clock metrics identical); bench.trace_overhead_ratio %.4f (traced %.3f / untraced %.3f us/txn)\n",
			w.Name, ratio, traced.HostUsPerTxn, untraced.HostUsPerTxn)
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err.Error())
		}
	}
	if failed {
		fmt.Println("FAIL")
		return 1
	}
	fmt.Println("ok")
	return 0
}

// child runs one (workload, trace) in a fresh process and returns its record,
// echoing the child's report.
func child(exe, name string, seed int64, seconds float64, trace int) (*record, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var rec *record
	for _, line := range bytes.Split(stdout, []byte("\n")) {
		if js, ok := strings.CutPrefix(string(line), recordPrefix); ok {
			rec = &record{}
			if jerr := json.Unmarshal([]byte(js), rec); jerr != nil {
				return nil, jerr
			}
		} else if !bytes.HasPrefix(line, []byte("{")) && len(line) > 0 {
			fmt.Printf("%s\n", line)
		}
	}
	if rec == nil {
		return nil, fmt.Errorf("no record (%v)", err)
	}
	return rec, nil
}
