// xenic-bench regenerates the paper's tables and figures on the simulated
// testbed.
//
//	xenic-bench -list            # show available experiments
//	xenic-bench table2 fig8c     # run specific experiments
//	xenic-bench -quick all       # fast, reduced-scale pass over everything
//
// With -telemetry PREFIX every experiment cell records time-resolved series
// (throughput, latency quantiles, occupancies, queue depths) and the run
// writes PREFIX-<id>.json per experiment plus one PREFIX.trace.json holding
// every cell's series as Perfetto counter tracks; -stats-json writes a single
// machine-readable document combining every report's table, notes, stats
// snapshots, and bottleneck verdicts.
//
// Each experiment ends with a "# wall time" line that also prints the
// process's peak RSS so far. That figure spreads by about ±20 % between
// runs of one binary (quick fig8a at 72 warehouses, -j 2: 612–892 MiB over
// six runs), so a single before/after pair of it cannot show a footprint
// change; compare footprints with paired runs of the benchmark's
// peak_rss_mb (go run ./cmd/ab REV).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"xenic/internal/cliflags"
	"xenic/internal/harness"
	"xenic/internal/telemetry"
	"xenic/internal/trace"
)

func main() {
	quick := flag.Bool("quick", false, "reduced populations and windows (seconds instead of minutes)")
	seed := cliflags.Seed(flag.CommandLine)
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "experiment cells run concurrently (1 = serial; results are identical at any -j)")
	list := flag.Bool("list", false, "list experiments and exit")
	statsOut := cliflags.Stats(flag.CommandLine, "write per-run stats-registry snapshots to this JSON file")
	jsonOut := flag.String("json", "", "write machine-readable reports (typed cells) to this JSON file")
	statsJSONOut := flag.String("stats-json", "", "write one machine-readable document (reports + stats snapshots + bottleneck verdicts) to this JSON file")
	tel := cliflags.AddTelemetry(flag.CommandLine, "collect time-resolved telemetry; write PREFIX-<id>.json per experiment and PREFIX.trace.json with every cell's Perfetto counter tracks")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xenic-bench [-quick] [-seed N] [-j N] <experiment-id>... | all\n\n")
		fmt.Fprintf(os.Stderr, "experiments:\n")
		for _, e := range harness.All() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n           paper: %s\n", e.ID, e.Title, e.PaperRef)
		}
	}
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var ids []string
	if len(args) == 1 && args[0] == "all" {
		for _, e := range harness.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = args
	}
	opt := harness.Options{Quick: *quick, Seed: *seed, Workers: *workers}
	collectStats := *statsOut != "" || *statsJSONOut != ""
	allStats := map[string]any{}
	var reports []*harness.Report
	// Union of every experiment's telemetry, keyed "<id>/<cell label>", for
	// the one trace file covering the whole run.
	allSets := map[string]*telemetry.Set{}
	allVerdicts := map[string]*telemetry.Verdict{}
	for _, id := range ids {
		e, ok := harness.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		o := opt
		if collectStats {
			o.Stats = harness.NewStatsCollector()
		}
		var telc *harness.TelemetryCollector
		if tel.Enabled() {
			telc = harness.NewTelemetryCollector(tel.Interval())
			o.Telemetry = telc
		}
		start := time.Now()
		fmt.Printf("# %s (%s)\n# paper: %s\n", e.ID, e.Title, e.PaperRef)
		r := e.Run(o)
		if o.Stats != nil {
			r.Stats = o.Stats.Snaps
			allStats[e.ID] = o.Stats.Snaps
		}
		r.Print(os.Stdout)
		reports = append(reports, r)
		if telc != nil {
			writeTelemetry(tel.Out, e.ID, telc)
			verdicts := telc.Verdicts()
			for label, set := range telc.Sets {
				allSets[e.ID+"/"+label] = set
				allVerdicts[e.ID+"/"+label] = verdicts[label]
			}
		}
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad who; Maxrss is in KiB on Linux
		fmt.Printf("# wall time: %s, process peak RSS so far: %d MiB\n\n", time.Since(start).Round(time.Millisecond), ru.Maxrss>>10)
	}
	if *statsOut != "" {
		writeJSON(*statsOut, allStats)
	}
	if *jsonOut != "" {
		writeJSON(*jsonOut, reports)
	}
	if *statsJSONOut != "" {
		writeJSON(*statsJSONOut, statsDoc(*quick, *seed, reports))
	}
	if tel.Enabled() && len(allSets) > 0 {
		// Cells in key order, each taking the next block of pids: its nodes,
		// then its cluster process.
		tr, pid := trace.New(), 0
		for _, k := range slices.Sorted(maps.Keys(allSets)) {
			pid = telemetry.AppendTrace(tr, pid, k, allSets[k], allVerdicts[k])
		}
		path := tel.Out + ".trace.json"
		f, err := os.Create(path)
		must(err)
		must(tr.WriteJSON(f))
		must(f.Close())
		fmt.Printf("# telemetry trace: %s (%d cells, %d processes)\n", path, len(allSets), pid)
	}
}

// writeTelemetry exports one experiment's collected series as JSON with
// per-cell bottleneck verdicts.
func writeTelemetry(prefix, id string, c *harness.TelemetryCollector) {
	path := fmt.Sprintf("%s-%s.json", prefix, id)
	f, err := os.Create(path)
	must(err)
	must(telemetry.WriteJSON(f, c.Sets, c.Verdicts()))
	must(f.Close())
	fmt.Printf("# telemetry: %d cells -> %s\n", len(c.Sets), path)
}

// runJSON is one experiment's slice of the -stats-json document.
type runJSON struct {
	ID          string                       `json:"id"`
	Title       string                       `json:"title"`
	Header      []string                     `json:"header,omitempty"`
	Cells       [][]harness.Cell             `json:"cells,omitempty"`
	Notes       []string                     `json:"notes,omitempty"`
	Stats       map[string]any               `json:"stats,omitempty"`
	Bottlenecks map[string]telemetry.Verdict `json:"bottlenecks,omitempty"`
}

// benchDoc is the -stats-json document: every report with its typed table,
// stats-registry snapshots, and (when -telemetry ran) bottleneck verdicts.
type benchDoc struct {
	Schema string    `json:"schema"`
	Quick  bool      `json:"quick"`
	Seed   int64     `json:"seed"`
	Runs   []runJSON `json:"runs"`
}

func statsDoc(quick bool, seed int64, reports []*harness.Report) benchDoc {
	doc := benchDoc{Schema: "xenic-bench/1", Quick: quick, Seed: seed}
	for _, r := range reports {
		doc.Runs = append(doc.Runs, runJSON{
			ID: r.ID, Title: r.Title, Header: r.Header, Cells: r.Cells,
			Notes: r.Notes, Stats: r.Stats, Bottlenecks: r.Bottlenecks,
		})
	}
	return doc
}

func writeJSON(path string, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
