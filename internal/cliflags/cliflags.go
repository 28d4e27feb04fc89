// Package cliflags defines the command-line flag groups shared by
// cmd/xenic-sim and cmd/xenic-bench in one place, so the two binaries
// cannot drift in flag names, defaults, or parsing (the -faults grammar,
// the -admit policy specs, the open-loop knobs).
package cliflags

import (
	"flag"
	"fmt"

	"xenic/internal/load"
	"xenic/internal/openloop"
	"xenic/internal/sim"
)

// Seed adds the shared -seed flag.
func Seed(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 1, "simulation seed")
}

// Telemetry groups the time-resolved telemetry flags.
type Telemetry struct {
	Out        string
	IntervalUs int
}

// AddTelemetry adds -telemetry and -telemetry-interval-us.
func AddTelemetry(fs *flag.FlagSet, usage string) *Telemetry {
	t := &Telemetry{}
	fs.StringVar(&t.Out, "telemetry", "", usage)
	fs.IntVar(&t.IntervalUs, "telemetry-interval-us", 100,
		"telemetry sampling interval in simulated microseconds")
	return t
}

// Interval returns the sampling interval as simulated time.
func (t *Telemetry) Interval() sim.Time {
	return sim.Time(t.IntervalUs) * sim.Microsecond
}

// Enabled reports whether -telemetry was set.
func (t *Telemetry) Enabled() bool { return t.Out != "" }

// Stats adds the shared -stats flag (a stats JSON output path).
func Stats(fs *flag.FlagSet, usage string) *string {
	return fs.String("stats", "", usage)
}

// SimObserve groups the single-run observability and feature flags of
// xenic-sim: tracing, fault injection, history checking, and MVCC.
type SimObserve struct {
	Trace    string
	Faults   string
	Check    bool
	MVCC     bool
	MVCCKeep int
}

// AddSimObserve adds -trace, -faults, -check, -mvcc, and -mvcc-keep.
func AddSimObserve(fs *flag.FlagSet) *SimObserve {
	s := &SimObserve{}
	fs.StringVar(&s.Trace, "trace", "", "write a Chrome trace-event JSON of the run (xenic only)")
	fs.StringVar(&s.Faults, "faults", "", "fault plan, e.g. drop=0.01,dup=0.005,crash=2@4ms,part=1:2@2ms+1ms")
	fs.BoolVar(&s.Check, "check", false, "record the transaction history and check serializability + state audits after the run")
	fs.BoolVar(&s.MVCC, "mvcc", false, "enable MVCC snapshot reads: read-only transactions run lock- and validation-free at a consistent timestamp (xenic only)")
	fs.IntVar(&s.MVCCKeep, "mvcc-keep", 0, "retained versions per key chain (0 = default 8; with -mvcc)")
	return s
}

// OpenLoop groups the open-loop traffic front-end flags. A zero Rate means
// the flags were not used and the built-in closed loop drives the run.
type OpenLoop struct {
	Rate          float64
	Arrival       string
	Sessions      int
	Tenants       int
	SessionLifeUs int
	Admit         string
	SLOUs         int
}

// AddOpenLoop adds -openloop, -arrival, -sessions, -tenants,
// -session-life-us, -admit, and -slo-us.
func AddOpenLoop(fs *flag.FlagSet) *OpenLoop {
	o := &OpenLoop{}
	fs.Float64Var(&o.Rate, "openloop", 0, "open-loop offered load in txns/sec cluster-wide (0 = closed loop)")
	fs.StringVar(&o.Arrival, "arrival", "poisson", "open-loop arrival process: poisson | pareto")
	fs.IntVar(&o.Sessions, "sessions", openloop.DefaultSessions, "open-loop client sessions")
	fs.IntVar(&o.Tenants, "tenants", 1, "independent open-loop arrival streams")
	fs.IntVar(&o.SessionLifeUs, "session-life-us", 0, "mean session lifetime in simulated microseconds (0 = no churn)")
	fs.StringVar(&o.Admit, "admit", "none", "admission policy: none | token:RATE[:BURST] | queue:DEPTH[:QLEN]")
	fs.IntVar(&o.SLOUs, "slo-us", 0, "p99 client-latency SLO in microseconds, reported against open-loop runs (0 = off)")
	return o
}

// Enabled reports whether -openloop requested an open-loop run.
func (o *OpenLoop) Enabled() bool { return o.Rate > 0 }

// SLO returns the -slo-us bound as simulated time (0 = unset).
func (o *OpenLoop) SLO() sim.Time { return sim.Time(o.SLOUs) * sim.Microsecond }

// Config translates the parsed flags into an open-loop source
// configuration, validating the -arrival and -admit specs; an error names
// the flag.
func (o *OpenLoop) Config(seed int64) (openloop.Config, error) {
	arr, err := openloop.ParseArrival(o.Arrival)
	if err != nil {
		return openloop.Config{}, fmt.Errorf("-arrival: %w", err)
	}
	adm, err := openloop.ParseAdmission(o.Admit)
	if err != nil {
		return openloop.Config{}, fmt.Errorf("-admit: %w", err)
	}
	return openloop.Config{
		Rate:        o.Rate,
		Arrival:     arr,
		Sessions:    o.Sessions,
		Tenants:     o.Tenants,
		SessionLife: sim.Time(o.SessionLifeUs) * sim.Microsecond,
		Admit:       adm,
		Seed:        seed,
	}, nil
}

// Source builds the open-loop load source the flags describe, or nil when
// -openloop was not set.
func (o *OpenLoop) Source(seed int64) (load.Source, error) {
	if !o.Enabled() {
		return nil, nil
	}
	cfg, err := o.Config(seed)
	if err != nil {
		return nil, err
	}
	return openloop.New(cfg), nil
}
