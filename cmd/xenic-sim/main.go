// xenic-sim runs one ad-hoc cluster configuration and prints its result:
// pick a workload, a system (xenic or a baseline), thread counts, the
// offered-load window, and a measurement duration.
//
//	xenic-sim -workload smallbank -system xenic -window 128 -ms 20
//	xenic-sim -workload tpcc -system drtmh -threads 16 -ms 10
//
// With -trace the run emits a Chrome trace-event JSON (open in Perfetto or
// chrome://tracing); with -stats it writes a stats-registry snapshot. With
// -telemetry PREFIX the run samples time-resolved series (throughput,
// latency quantiles, occupancies, queue depths) every -telemetry-interval-us
// of simulated time and writes PREFIX.json plus one Perfetto counter track
// per series (into the -trace file when there is one, PREFIX.trace.json
// otherwise), printing the bottleneck analyzer's verdict to stdout.
//
// With -openloop RATE the run is driven open-loop instead of closed-loop:
// transactions arrive at RATE txns/sec cluster-wide following the -arrival
// process (poisson or pareto), issued by -sessions client sessions
// (optionally churning with -session-life-us, split over -tenants streams),
// gated by the -admit admission policy. The run reports offered vs.
// admitted vs. completed rates and client-observed latency, and with
// -slo-us prints whether p99 met the SLO, e.g.
//
//	xenic-sim -openloop 2e6 -admit queue:64 -slo-us 100 -ms 10
//
// With -faults the run injects a deterministic fault plan, e.g.
//
//	xenic-sim -faults drop=0.01,dup=0.005,crash=2@4ms -ms 10
//
// A restart=N@TIME event reboots a previously crashed (or evicted) node
// with wiped state: it re-registers with the cluster manager, catches up
// via state transfer, and is re-admitted as a backup, e.g.
//
//	xenic-sim -faults crash=2@2ms,restart=2@6ms -ms 15
//
// Baselines accept only network faults (drop/dup/delay/partition).
//
// With -check the run records every transaction's read and write sets and,
// after draining, verifies the history is serializable (acyclic wr/ww/rw
// dependency graph) and the final state matches the last committed writers;
// a violation prints a witness cycle and exits 1.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"xenic"
	"xenic/internal/cliflags"
	"xenic/internal/telemetry"
	"xenic/internal/txnmodel"
)

func main() {
	workload := flag.String("workload", "smallbank", "tpcc | tpcc-neworder | retwis | smallbank")
	system := flag.String("system", "xenic", "xenic | drtmh | drtmh-nc | fasst | drtmr")
	nodes := flag.Int("nodes", 6, "servers")
	replication := flag.Int("replication", 3, "replicas per shard")
	threads := flag.Int("threads", 16, "baseline host threads / Xenic NIC cores")
	app := flag.Int("app", 2, "Xenic host application threads")
	workers := flag.Int("workers", 3, "Xenic host worker threads")
	window := flag.Int("window", 64, "outstanding transactions per node")
	warmMS := flag.Int("warm-ms", 3, "simulated warmup [ms]")
	ms := flag.Int("ms", 10, "simulated measurement window [ms]")
	scale := flag.Float64("scale", 0.1, "population scale vs the paper's sizing")
	seed := cliflags.Seed(flag.CommandLine)
	oneLink := flag.Bool("one-link", false, "use one 50Gbps link per server (§5.3)")
	statsOut := cliflags.Stats(flag.CommandLine, "write a stats-registry JSON snapshot of the run")
	obs := cliflags.AddSimObserve(flag.CommandLine)
	tel := cliflags.AddTelemetry(flag.CommandLine, "sample time-resolved telemetry; write PREFIX.json and Perfetto counter tracks (into the -trace file, else PREFIX.trace.json) and print the bottleneck verdict")
	ol := cliflags.AddOpenLoop(flag.CommandLine)
	roFrac := flag.Float64("ro-frac", 0, "override the read-only transaction fraction (retwis and smallbank; 0 = the paper's mix)")
	alpha := flag.Float64("alpha", 0, "override the retwis Zipf skew alpha (0 = the paper's 0.5)")
	hotFrac := flag.Float64("hot-frac", 0, "override the smallbank hot-account fraction (0 = the paper's 0.04)")
	hotProb := flag.Float64("hot-prob", 0, "override the smallbank hot-access probability (0 = the paper's 0.9)")
	flag.Parse()
	flags := simFlags{app: *app, threads: *threads, warmMS: *warmMS, ms: *ms,
		roFrac: *roFrac, alpha: *alpha, hotFrac: *hotFrac, hotProb: *hotProb, openloop: ol.Rate}
	if err := validateFlags(flags); err != nil {
		fmt.Fprintln(os.Stderr, "xenic-sim:", err)
		os.Exit(2)
	}

	var plan *xenic.FaultPlan
	if obs.Faults != "" {
		var err error
		plan, err = xenic.ParseFaultPlan(obs.Faults)
		must(err)
	}

	gen := newGen(*workload, *scale, flags)
	if gen == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}

	warm := xenic.Time(*warmMS) * xenic.Millisecond
	win := xenic.Time(*ms) * xenic.Millisecond

	var hist *xenic.History
	if obs.Check {
		hist = xenic.NewHistory()
	}

	// Observers and the load source attach at construction time via Options
	// (the handles stay local for the export helpers below).
	var opts []xenic.Option
	var tr *xenic.Tracer
	var reg *xenic.StatsRegistry
	var telS *xenic.Telemetry
	if *statsOut != "" {
		reg = xenic.NewStatsRegistry()
		opts = append(opts, xenic.WithStats(reg))
	}
	if hist != nil {
		opts = append(opts, xenic.WithHistory(hist))
	}
	if tel.Enabled() {
		telS = xenic.NewTelemetry(tel.Interval())
		opts = append(opts, xenic.WithTelemetry(telS))
	}
	src, err := ol.Source(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xenic-sim:", err)
		os.Exit(2)
	}
	if src != nil {
		opts = append(opts, xenic.WithLoad(src))
	}

	if strings.EqualFold(*system, "xenic") {
		cfg := xenic.DefaultConfig()
		cfg.Nodes = *nodes
		cfg.Replication = *replication
		cfg.AppThreads = *app
		cfg.WorkerThreads = *workers
		cfg.NICCores = *threads
		cfg.Outstanding = max(1, *window / *app)
		cfg.Seed = *seed
		cfg.Faults = plan
		cfg.MVCC = obs.MVCC
		cfg.MVCCKeep = obs.MVCCKeep
		if *oneLink {
			cfg.Params = cfg.Params.OneLink()
		}
		if obs.Trace != "" {
			tr = xenic.NewTracer()
			opts = append(opts, xenic.WithTracer(tr))
		}
		cl, err := xenic.NewCluster(cfg, gen, opts...)
		must(err)
		res, s0, s1 := measure(cl, warm, win, ol)
		fmt.Printf("xenic/%s: %s\n", gen.Name(), res)
		printOpenLoad(ol, win, s0, s1)
		writeTelemetry(tel.Out, "xenic/"+gen.Name(), telS, obs.Trace, tr)
		writeTrace(obs.Trace, tr)
		writeStats(*statsOut, reg)
		checkHistory(cl, hist)
		return
	}

	var sys xenic.Baseline
	switch strings.ToLower(*system) {
	case "drtmh":
		sys = xenic.DrTMH
	case "drtmh-nc", "nc":
		sys = xenic.DrTMHNC
	case "fasst":
		sys = xenic.FaSST
	case "drtmr":
		sys = xenic.DrTMR
	default:
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(2)
	}
	cfg := xenic.DefaultBaselineConfig(sys)
	cfg.Nodes = *nodes
	cfg.Replication = *replication
	cfg.Threads = *threads
	cfg.Outstanding = max(1, *window / *threads)
	cfg.Seed = *seed
	cfg.Faults = plan
	if *oneLink {
		cfg.Params = cfg.Params.OneLink()
	}
	if obs.Trace != "" {
		fmt.Fprintln(os.Stderr, "xenic-sim: -trace is only supported for -system xenic; ignoring")
	}
	if obs.MVCC {
		fmt.Fprintln(os.Stderr, "xenic-sim: -mvcc is only supported for -system xenic; ignoring")
	}
	cl, err := xenic.NewBaseline(cfg, gen, opts...)
	must(err)
	res, s0, s1 := measure(cl, warm, win, ol)
	fmt.Printf("%s/%s: %s\n", sys, gen.Name(), res)
	printOpenLoad(ol, win, s0, s1)
	writeStats(*statsOut, reg)
	writeTelemetry(tel.Out, fmt.Sprintf("%s/%s", sys, gen.Name()), telS, "", nil)
	checkHistory(cl, hist)
}

// simFlags are the parsed flag values validateFlags checks.
type simFlags struct {
	app, threads, warmMS, ms                  int
	roFrac, alpha, hotFrac, hotProb, openloop float64
}

// validateFlags rejects, before any cluster is built, the thread counts main
// divides -window by, the windows that would report a NaN or negative rate,
// and the workload and load overrides that would hang the generator (a Zipf
// alpha of 1 or more collapses every draw onto one key), panic it (a hot set
// as large as the population) or be silently ignored. The range checks are
// written to fail on NaN too.
func validateFlags(f simFlags) error {
	switch {
	case f.app < 1:
		return fmt.Errorf("-app must be at least 1, have %d", f.app)
	case f.threads < 1:
		return fmt.Errorf("-threads must be at least 1, have %d", f.threads)
	case f.warmMS < 0:
		return fmt.Errorf("-warm-ms must not be negative, have %d", f.warmMS)
	case f.ms < 1:
		return fmt.Errorf("-ms must be at least 1, have %d", f.ms)
	case !(f.roFrac >= 0 && f.roFrac <= 1):
		return fmt.Errorf("-ro-frac must be in [0, 1], have %g", f.roFrac)
	case !(f.alpha >= 0 && f.alpha < 1):
		return fmt.Errorf("-alpha must be in [0, 1), have %g", f.alpha)
	case !(f.hotFrac >= 0 && f.hotFrac < 1):
		return fmt.Errorf("-hot-frac must be in [0, 1), have %g", f.hotFrac)
	case !(f.hotProb >= 0 && f.hotProb <= 1):
		return fmt.Errorf("-hot-prob must be in [0, 1], have %g", f.hotProb)
	case !(f.openloop >= 0 && f.openloop <= math.MaxFloat64):
		return fmt.Errorf("-openloop must be a finite rate of at least 0, have %g", f.openloop)
	}
	return nil
}

// newGen builds the named workload's generator at the given population
// scale, with the flags' workload overrides (0 keeps the paper's value); nil
// for an unknown workload.
func newGen(workload string, scale float64, f simFlags) txnmodel.Generator {
	switch workload {
	case "tpcc":
		g := xenic.TPCC()
		g.WarehousesPerServer = scaleInt(72, scale, 2)
		return g
	case "tpcc-neworder":
		g := xenic.TPCCNewOrder()
		g.WarehousesPerServer = scaleInt(72, scale, 2)
		return g
	case "retwis":
		g := xenic.Retwis()
		g.KeysPerServer = scaleInt(1_000_000, scale, 1000)
		g.ReadOnlyFrac = f.roFrac
		if f.alpha > 0 {
			g.Alpha = f.alpha
		}
		return g
	case "smallbank":
		g := xenic.Smallbank()
		g.AccountsPerServer = scaleInt(2_400_000, scale, 1000)
		g.ReadOnlyFrac = f.roFrac
		if f.hotFrac > 0 {
			g.HotFrac = f.hotFrac
		}
		if f.hotProb > 0 {
			g.HotProb = f.hotProb
		}
		return g
	}
	return nil
}

// measure runs the warmup + window. Closed-loop runs take the plain Measure
// path (byte-identical to always); open-loop runs snapshot the source's
// counters around the window so offered/admitted/completed rates cover
// exactly the measured interval.
func measure(s xenic.System, warm, win xenic.Time, ol *cliflags.OpenLoop) (xenic.Result, xenic.LoadStats, xenic.LoadStats) {
	if !ol.Enabled() {
		return s.Measure(warm, win), xenic.LoadStats{}, xenic.LoadStats{}
	}
	s.Start()
	s.Run(warm)
	s0 := s.OfferedLoad()
	res := s.Measure(0, win)
	s1 := s.OfferedLoad()
	return res, s0, s1
}

// printOpenLoad reports the open-loop window: admission-control rates,
// session pool, client-observed latency, and the -slo-us verdict.
func printOpenLoad(ol *cliflags.OpenLoop, win xenic.Time, s0, s1 xenic.LoadStats) {
	if !ol.Enabled() {
		return
	}
	sec := win.Seconds()
	rate := func(a, b int64) float64 { return float64(b-a) / sec }
	fmt.Printf("openloop: offered=%.0f/s admitted=%.0f/s rejected=%.0f/s completed=%.0f/s sessions=%d inflight=%d queue=%d\n",
		rate(s0.Offered, s1.Offered), rate(s0.Admitted, s1.Admitted),
		rate(s0.Rejected, s1.Rejected), rate(s0.Completed, s1.Completed),
		s1.ActiveSessions, s1.InFlight, s1.QueueLen)
	fmt.Printf("openloop: client p50=%v p99=%v queue-delay p99=%v\n",
		s1.LatencyP50, s1.LatencyP99, s1.QueueDelayP99)
	if slo := ol.SLO(); slo > 0 {
		verdict := "met"
		if s1.LatencyP99 > slo {
			verdict = "EXCEEDED"
		}
		fmt.Printf("openloop: slo p99<=%v: %s (p99=%v)\n", slo, verdict, s1.LatencyP99)
	}
}

// checkHistory drains the system, runs the serializability checker over the
// recorded history, and audits the final state. Any violation exits 1.
func checkHistory(s xenic.System, h *xenic.History) {
	if h == nil {
		return
	}
	if !s.Drain(500 * xenic.Millisecond) {
		fmt.Fprintln(os.Stderr, "xenic-sim: -check: system did not drain")
		os.Exit(1)
	}
	rep := h.Check()
	fmt.Printf("check: %s\n", rep)
	if err := s.AuditHistory(); err != nil {
		fmt.Fprintf(os.Stderr, "xenic-sim: -check: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("audit: clean")
	if !rep.Ok() {
		os.Exit(1)
	}
}

// writeTrace dumps tr as Chrome trace-event JSON to path (no-op when unset).
func writeTrace(path string, tr *xenic.Tracer) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	must(err)
	must(tr.WriteJSON(f))
	must(f.Close())
}

// writeTelemetry stops the sampler, writes the run's series as PREFIX.json
// and as Perfetto counter tracks, and prints the bottleneck analyzer's
// verdict (no-op when -telemetry is unset). The counters go into tr, after
// its spans, when the run is traced (so call it before writeTrace), and into
// PREFIX.trace.json otherwise. Called right after Measure so a -check drain
// doesn't pad the series with idle samples.
func writeTelemetry(prefix, label string, tel *xenic.Telemetry, tracePath string, tr *xenic.Tracer) {
	if prefix == "" || tel == nil {
		return
	}
	tel.Stop()
	set := tel.Set()
	v := telemetry.Analyze(set)
	f, err := os.Create(prefix + ".json")
	must(err)
	must(telemetry.WriteJSON(f, map[string]*telemetry.Set{label: set},
		map[string]*telemetry.Verdict{label: &v}))
	must(f.Close())
	if tr == nil {
		tr, tracePath = xenic.NewTracer(), prefix+".trace.json"
		defer writeTrace(tracePath, tr)
	}
	telemetry.AppendTrace(tr, 0, "", set, &v)
	fmt.Printf("bottleneck: %s\n", v.String())
	fmt.Printf("telemetry: %d samples, %d series -> %s.json, %s\n",
		len(set.TimesUs), len(set.Series), prefix, tracePath)
}

// writeStats dumps the registry snapshot as JSON to path (no-op when unset).
func writeStats(path string, reg *xenic.StatsRegistry) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	must(err)
	must(reg.WriteJSON(f))
	must(f.Close())
}

func scaleInt(v int, scale float64, min int) int {
	out := int(float64(v) * scale)
	if out < min {
		out = min
	}
	return out
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
