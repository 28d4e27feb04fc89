// Package harness contains one driver per table and figure in the paper's
// evaluation (§3 and §5), each regenerating the corresponding rows or
// series on the simulated testbed. cmd/xenic-bench runs them by id;
// bench_test.go wraps each in a testing.B benchmark.
package harness

import (
	"fmt"
	"io"
	"sort"

	"xenic/internal/metrics"
	"xenic/internal/sim"
	"xenic/internal/telemetry"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks populations, sweep points, and measurement windows so
	// an experiment finishes in seconds instead of minutes. Shapes are
	// preserved; EXPERIMENTS.md records full-scale numbers.
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// Workers bounds how many experiment cells run concurrently (<=1 means
	// serial). Each cell owns a private sim.Engine, so parallelism changes
	// wall-clock only, never a reported number: results and stats snapshots
	// are merged in cell order regardless of completion order.
	Workers int
	// Stats, when non-nil, collects a stats-registry snapshot from every
	// cluster the experiment measures (cmd/xenic-bench -stats).
	Stats *StatsCollector
	// Telemetry, when non-nil, attaches a time-series sampler to every
	// cluster the experiment measures and collects the exported series per
	// cell (cmd/xenic-bench -telemetry). Sampling is read-only: reported
	// numbers are identical with or without a collector attached.
	Telemetry *TelemetryCollector
	// SLO overrides the slo experiment's open-loop knobs (arrival process,
	// admission policy, sessions, p99 bound) from cmd/xenic-bench's flags.
	// Nil keeps the experiment defaults; other experiments ignore it.
	SLO *SLOTuning
}

// StatsCollector accumulates one stats-registry snapshot per cluster run.
// Attach one via Options.Stats to have every figure/table run record its
// metrics; cmd/xenic-bench -stats writes the union as one JSON document.
// A collector is not safe for concurrent use: parallel cells each record
// into a private collector that the pool merges in cell order.
type StatsCollector struct {
	Snaps map[string]any
	// labels records each snapshot's original (pre-dedup) label in insertion
	// order, so merging collectors re-runs deduplication deterministically.
	labels []string
	keys   []string
}

// NewStatsCollector returns an empty collector.
func NewStatsCollector() *StatsCollector { return &StatsCollector{Snaps: map[string]any{}} }

// add stores snap under label, suffixing "#N" on duplicates.
func (c *StatsCollector) add(label string, snap any) {
	key := label
	for i := 2; ; i++ {
		if _, dup := c.Snaps[key]; !dup {
			break
		}
		key = fmt.Sprintf("%s#%d", label, i)
	}
	c.Snaps[key] = snap
	c.labels = append(c.labels, label)
	c.keys = append(c.keys, key)
}

// Registry returns a fresh registry for one cell, to be attached at
// construction time via xenic.WithStats and snapshotted with the matching
// Done call. A nil collector returns a nil registry; WithStats(nil) and
// Done(label, nil) are both no-ops, so runners call the pair
// unconditionally. Registered entries are sampled lazily, so attaching costs
// nothing during the run.
func (c *StatsCollector) Registry() *metrics.Registry {
	if c == nil {
		return nil
	}
	return metrics.NewRegistry()
}

// Done stores reg's snapshot of a just-measured cluster under label.
func (c *StatsCollector) Done(label string, reg *metrics.Registry) {
	if c == nil || reg == nil {
		return
	}
	c.add(label, reg.Snapshot())
}

// merge appends every snapshot of sub, in sub's insertion order, re-running
// duplicate-label resolution against c's contents.
func (c *StatsCollector) merge(sub *StatsCollector) {
	if c == nil || sub == nil {
		return
	}
	for i, label := range sub.labels {
		c.add(label, sub.Snaps[sub.keys[i]])
	}
}

// DefaultOptions returns full-scale settings.
func DefaultOptions() Options { return Options{Seed: 1} }

// Cell is one machine-readable table cell: the rendered text plus, when the
// cell carries a number, its typed value — so JSON consumers and tooling
// (regression gates) read values directly instead of re-parsing
// fmt-formatted strings. Value is nil for purely textual cells; numeric
// cells carry int64 (counts), float64 (rates; durations in microseconds).
type Cell struct {
	Text  string `json:"text"`
	Value any    `json:"value,omitempty"`
}

// Typed-cell constructors mirroring the formatting helpers below, so the
// rendered table is unchanged while the value rides alongside.

// Text returns a text-only cell.
func Text(s string) Cell { return Cell{Text: s} }

// Count returns an integer cell rendered as %d.
func Count(v int) Cell { return Cell{Text: fmt.Sprintf("%d", v), Value: int64(v)} }

// Tput returns a throughput cell (txn/s) rendered like ktps.
func Tput(v float64) Cell { return Cell{Text: ktps(v), Value: v} }

// Micros returns a duration cell rendered like us, valued in microseconds.
func Micros(t sim.Time) Cell { return Cell{Text: us(t), Value: t.Micros()} }

// Mops returns a throughput cell (ops/s) rendered like mops.
func Mops(v float64) Cell { return Cell{Text: mops(v), Value: v} }

// Num returns a float cell with explicit rendering.
func Num(v float64, text string) Cell { return Cell{Text: text, Value: v} }

// Report is an experiment's output.
type Report struct {
	ID    string
	Title string
	// Header/Rows form the table printed for the experiment.
	Header []string
	Rows   [][]string
	// Cells mirrors Rows with typed values alongside the rendered text
	// (row- and column-aligned; rows appended via AddRow carry text-only
	// cells).
	Cells [][]Cell
	// Notes carry paper-vs-measured commentary.
	Notes []string
	// Stats holds the per-run stats-registry snapshots collected through
	// Options.Stats, keyed by run label.
	Stats map[string]any
	// Bottlenecks holds the analyzer's per-cell limiting-resource verdicts,
	// keyed like the telemetry collector's sets. Populated only when
	// Options.Telemetry is attached.
	Bottlenecks map[string]telemetry.Verdict
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
	typed := make([]Cell, len(cells))
	for i, s := range cells {
		typed[i] = Cell{Text: s}
	}
	r.Cells = append(r.Cells, typed)
}

// AddCells appends a row of typed cells; the rendered texts land in Rows so
// printing is unchanged.
func (r *Report) AddCells(cells ...Cell) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = c.Text
	}
	r.Rows = append(r.Rows, row)
	r.Cells = append(r.Cells, cells)
}

// AddNote appends a commentary line.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Print renders the report.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(w, "%-*s  ", widths[i], c)
			} else {
				fmt.Fprintf(w, "%s  ", c)
			}
		}
		fmt.Fprintln(w)
	}
	if len(r.Header) > 0 {
		printRow(r.Header)
	}
	for _, row := range r.Rows {
		printRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// Experiment is one registered driver.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	Run      func(opt Options) *Report
}

var registry = map[string]*Experiment{}

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// ByID finds an experiment.
func ByID(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All lists experiments in id order.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// helpers

func fm(f float64, format string) string { return fmt.Sprintf(format, f) }

func us(t sim.Time) string { return fmt.Sprintf("%.1fus", t.Micros()) }

func mops(v float64) string { return fmt.Sprintf("%.2fM", v/1e6) }

func ktps(v float64) string {
	if v >= 1e6 {
		return fmt.Sprintf("%.2fM", v/1e6)
	}
	return fmt.Sprintf("%.0fk", v/1e3)
}
