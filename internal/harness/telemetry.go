package harness

import (
	"xenic/internal/sim"
	"xenic/internal/telemetry"
)

// TelemetryCollector accumulates one telemetry series set per measured
// cluster. Attach one via Options.Telemetry to have every figure/table cell
// record time-resolved series; cmd/xenic-bench -telemetry exports the union
// as CSV/JSON plus a single-file HTML dashboard. Like StatsCollector, a
// collector is not safe for concurrent use: parallel cells each record into
// a private collector that the pool merges in cell order, so results are
// identical at every worker count.
type TelemetryCollector struct {
	// Interval is the sampling cadence handed to every sampler this
	// collector creates (telemetry.DefaultInterval when zero).
	Interval sim.Time
	// Sets maps each cell's label ("#N" on a duplicate) to its series; it is
	// sets.m, exported.
	Sets map[string]*telemetry.Set
	sets labeled[*telemetry.Set]
}

// NewTelemetryCollector returns an empty collector sampling every interval.
func NewTelemetryCollector(interval sim.Time) *TelemetryCollector {
	c := &TelemetryCollector{Interval: interval, sets: newLabeled[*telemetry.Set]()}
	c.Sets = c.sets.m
	return c
}

// Sampler returns a fresh sampler for one cell, to be attached at
// construction time via xenic.WithTelemetry and retired with the matching
// Done call. A nil collector returns a nil sampler; WithTelemetry(nil) and
// Done(label, nil) are both no-ops, so runners call the pair
// unconditionally.
func (c *TelemetryCollector) Sampler() *telemetry.Sampler {
	if c == nil {
		return nil
	}
	return telemetry.New(c.Interval)
}

// Done stops s and stores its exported set under label, suffixing "#N" on
// duplicates (mirroring StatsCollector). Call it as soon as the measured
// window ends — before any Drain — so series cover only the run.
func (c *TelemetryCollector) Done(label string, s *telemetry.Sampler) {
	if c == nil || s == nil {
		return
	}
	s.Stop()
	c.sets.add(label, s.Set())
}

// Verdicts runs the bottleneck analyzer over every collected set, keyed
// like Sets. Nil collector returns nil.
func (c *TelemetryCollector) Verdicts() map[string]*telemetry.Verdict {
	if c == nil {
		return nil
	}
	out := make(map[string]*telemetry.Verdict, len(c.Sets))
	for _, k := range c.sets.keys {
		v := telemetry.Analyze(c.Sets[k])
		out[k] = &v
	}
	return out
}

// finishTelemetry attaches per-cell bottleneck verdicts to r when telemetry
// was collected. Runners call it once, after their cells finish.
func finishTelemetry(r *Report, opt Options) {
	c := opt.Telemetry
	if c == nil {
		return
	}
	r.Bottlenecks = map[string]telemetry.Verdict{}
	for _, k := range c.sets.keys {
		r.Bottlenecks[k] = telemetry.Analyze(c.Sets[k])
	}
}
