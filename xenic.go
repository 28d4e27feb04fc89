// Package xenic is the public API of this Xenic reproduction: a simulated
// SmartNIC-accelerated distributed transaction system (SOSP 2021).
//
// A Cluster is a simulated testbed of N servers, each with an on-path
// SmartNIC, running Xenic's co-designed data store and multi-hop OCC commit
// protocol over a calibrated network/PCIe model. Applications define
// workloads (key placement, execution functions, transaction mix) through
// the Workload interface and drive them in simulated time:
//
//	cl, _ := xenic.NewCluster(xenic.DefaultConfig(), myWorkload)
//	res := cl.Measure(5*xenic.Millisecond, 20*xenic.Millisecond)
//	fmt.Println(res.PerServerTput, res.Median)
//
// The same workloads run unchanged on the RDMA/RPC baseline systems the
// paper compares against (DrTM+H, DrTM+H NC, FaSST, DrTM+R) via
// NewBaseline, and the harness in cmd/xenic-bench regenerates every table
// and figure of the paper's evaluation.
package xenic

import (
	"xenic/internal/baseline"
	"xenic/internal/chassis"
	"xenic/internal/check"
	"xenic/internal/core"
	"xenic/internal/fault"
	"xenic/internal/load"
	"xenic/internal/metrics"
	"xenic/internal/model"
	"xenic/internal/openloop"
	"xenic/internal/sim"
	"xenic/internal/telemetry"
	"xenic/internal/trace"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
	"xenic/internal/workload/retwis"
	"xenic/internal/workload/smallbank"
	"xenic/internal/workload/tpcc"
)

// Time is simulated time (picosecond resolution).
type Time = sim.Time

// Convenient duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// KV is a versioned key-value pair.
type KV = wire.KV

// Txn describes one transaction: read-only keys, read-modify-write keys,
// blind writes, and the registered execution function that computes write
// values from read values.
type Txn = txnmodel.TxnDesc

// ExecFunc is a registered execution function; it may run on a host
// thread, the coordinator SmartNIC, or a remote primary SmartNIC
// (function shipping).
type ExecFunc = txnmodel.ExecFunc

// ExecResult is an execution function's output.
type ExecResult = txnmodel.ExecResult

// Registry holds a workload's execution functions.
type Registry = txnmodel.Registry

// Placement maps keys to shards and storage kinds.
type Placement = txnmodel.Placement

// StoreSpec sizes each node's store.
type StoreSpec = txnmodel.StoreSpec

// Workload supplies transactions to a cluster. See internal/workload for
// the TPC-C, Retwis, and Smallbank implementations.
type Workload = txnmodel.Generator

// Config assembles a Xenic cluster.
type Config = core.Config

// Features toggles Xenic's design features (§5.7 ablations).
type Features = core.Features

// Result summarizes a measurement window.
type Result = core.Result

// Cluster is a simulated Xenic deployment.
type Cluster = core.Cluster

// LoadSource decides when transactions enter a system and which session
// issues them. The built-in closed loop is one implementation (the default
// when no source is attached); the open-loop front-end (WithOpenLoop,
// internal/openloop) is another. Attach one at construction with WithLoad.
type LoadSource = load.Source

// LoadStats is a snapshot of a LoadSource's admission and session counters
// (System.OfferedLoad). All-zero under the built-in closed loop.
type LoadStats = load.Stats

// OpenLoopConfig parameterizes the open-loop traffic front-end: offered
// rate, arrival process, session pool, tenancy, churn, and admission policy.
type OpenLoopConfig = openloop.Config

// ArrivalProcess draws interarrival gaps for the open-loop front-end
// (OpenLoopConfig.Arrival). Nil means Poisson.
type ArrivalProcess = openloop.Arrival

// PoissonArrivals returns the memoryless arrival process (the default).
func PoissonArrivals() ArrivalProcess { return openloop.Poisson{} }

// ParetoArrivals returns the heavy-tailed bounded-Pareto arrival process
// with the default tail shape.
func ParetoArrivals() ArrivalProcess { return openloop.BoundedPareto{} }

// LoadAdmission is a pluggable admission-control policy for the open-loop
// front-end (OpenLoopConfig.Admit). Nil admits everything.
type LoadAdmission = openloop.Admission

// NewOpenLoopTokenBucket returns a token-bucket admission policy: arrivals
// beyond rate txns/sec (with a burst allowance) are rejected outright.
func NewOpenLoopTokenBucket(rate, burst float64) LoadAdmission {
	return openloop.NewTokenBucket(rate, burst)
}

// NewOpenLoopQueueDepth returns a queue-depth admission policy: at most
// maxInFlight admitted-but-unfinished transactions, excess arrivals queue
// up to maxQueue and are rejected beyond that.
func NewOpenLoopQueueDepth(maxInFlight, maxQueue int) LoadAdmission {
	return openloop.NewQueueDepth(maxInFlight, maxQueue)
}

// System is the common surface of every simulated transaction system: the
// Xenic cluster and each RDMA/RPC baseline implement it, so measurement code
// (the harness curve runners, examples, user benchmarks) is written once
// against System and runs unchanged over any of them.
//
// The lifecycle is: construct (NewCluster/NewBaseline, attaching observers
// and optionally a LoadSource via Options), Start load, Measure one or more
// windows, then Drain. Run advances simulated time directly for callers that
// manage their own windows; StopLoad halts generation without waiting for
// quiescence.
type System interface {
	// Start begins load generation: the LoadSource attached via WithLoad,
	// or, when none is attached, the built-in closed loop on every
	// application thread.
	Start()
	// StopLoad stops generating new transactions; in-flight ones drain.
	StopLoad()
	// Run advances simulated time by d.
	Run(d Time)
	// Measure runs warmup, resets statistics, runs the measurement window,
	// and aggregates cluster-wide results. If load is not yet running it
	// starts whatever generator is attached — it never falls back to the
	// closed loop when a LoadSource is attached.
	Measure(warmup, window Time) Result
	// Drain stops load and runs until quiesced (or the deadline elapses),
	// reporting success.
	Drain(deadline Time) bool
	// Quiesced reports whether the system has fully drained.
	Quiesced() bool
	// OfferedLoad snapshots the attached LoadSource's counters (offered,
	// admitted, rejected, completed, sessions, queue delay). All-zero under
	// the built-in closed loop.
	OfferedLoad() LoadStats
	// AuditHistory cross-checks the drained system's final state against the
	// recorded history (orphan locks, store-vs-commit versions, log
	// consistency). Call after a successful Drain; nil without a recorder.
	AuditHistory() error
}

// Both cluster types satisfy System.
var (
	_ System = (*Cluster)(nil)
	_ System = (*BaselineCluster)(nil)
)

// Option attaches observers and a load source at construction time,
// uniformly for NewCluster and NewBaseline — the only attach point:
//
//	cl, err := xenic.NewCluster(cfg, w,
//	    xenic.WithTracer(tr), xenic.WithStats(reg))
type Option func(*options)

type options struct {
	obs chassis.Observers
}

// WithTracer attaches tr before any traffic flows.
func WithTracer(tr *Tracer) Option { return func(o *options) { o.obs.Tracer = tr } }

// WithStats registers the system's metrics under reg. Entries are sampled
// lazily at snapshot time, so registering costs nothing during the run.
func WithStats(reg *StatsRegistry) Option { return func(o *options) { o.obs.Stats = reg } }

// WithHistory attaches a transaction-history recorder. After Drain, check
// the history for serializability with h.Check() and cross-check final state
// with AuditHistory. Recording never perturbs the simulation: a run with a
// recorder attached is byte-identical to one without.
func WithHistory(h *History) Option { return func(o *options) { o.obs.History = h } }

// WithTelemetry attaches a telemetry sampler: the system's counters are
// sampled on the sampler's simulated-time cadence into per-node time
// series. Sampling never perturbs the simulation — a run with telemetry
// attached executes the same transaction schedule as one without.
func WithTelemetry(s *Telemetry) Option { return func(o *options) { o.obs.Telemetry = s } }

// WithLoad attaches a LoadSource at construction: Start/StopLoad then
// control the source instead of the built-in closed loop. Source attach
// errors (e.g. a misconfigured offered rate) surface from
// NewCluster/NewBaseline.
func WithLoad(src LoadSource) Option { return func(o *options) { o.obs.Load = src } }

// WithOpenLoop attaches the open-loop traffic front-end with the given
// configuration — shorthand for WithLoad(NewOpenLoop(cfg)).
func WithOpenLoop(cfg OpenLoopConfig) Option {
	// A fresh source per application: one option list may build many systems.
	return func(o *options) { o.obs.Load = openloop.New(cfg) }
}

// NewOpenLoop returns an open-loop LoadSource for cfg (attach it with
// WithLoad, or pass cfg directly to WithOpenLoop). Configuration errors
// surface when the source is attached to a system.
func NewOpenLoop(cfg OpenLoopConfig) LoadSource { return openloop.New(cfg) }

func gather(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// DefaultConfig mirrors the paper's testbed: 6 servers, 3-way replication,
// 100Gbps fabric, calibrated LiquidIO 3 SmartNICs.
func DefaultConfig() Config { return core.DefaultConfig() }

// AllFeatures enables the full Xenic design.
func AllFeatures() Features { return core.AllFeatures() }

// DefaultParams returns the calibrated device model (§3).
func DefaultParams() model.Params { return model.Default() }

// NewCluster builds and populates a Xenic cluster running w with the given
// options (observers, load source) attached.
func NewCluster(cfg Config, w Workload, opts ...Option) (*Cluster, error) {
	return core.New(cfg, w, gather(opts).obs)
}

// Baseline selects one of the comparison systems (§5.1).
type Baseline = baseline.System

// Baseline systems.
const (
	DrTMH   = baseline.DrTMH
	DrTMHNC = baseline.DrTMHNC
	FaSST   = baseline.FaSST
	DrTMR   = baseline.DrTMR
)

// BaselineConfig assembles a baseline cluster.
type BaselineConfig = baseline.Config

// BaselineCluster is a simulated baseline deployment.
type BaselineCluster = baseline.Cluster

// DefaultBaselineConfig mirrors the testbed for the given system.
func DefaultBaselineConfig(sys Baseline) BaselineConfig { return baseline.DefaultConfig(sys) }

// NewBaseline builds a baseline cluster running w with the given options
// (observers, load source) attached.
func NewBaseline(cfg BaselineConfig, w Workload, opts ...Option) (*BaselineCluster, error) {
	return baseline.New(cfg, w, gather(opts).obs)
}

// TPCC returns the full TPC-C workload (§5.3).
func TPCC() *tpcc.Gen { return tpcc.New() }

// TPCCNewOrder returns the §5.2 new-order-only TPC-C variant.
func TPCCNewOrder() *tpcc.Gen { return tpcc.NewOrderVariant() }

// Retwis returns the Retwis workload (§5.4).
func Retwis() *retwis.Gen { return retwis.New() }

// Smallbank returns the Smallbank workload (§5.5).
func Smallbank() *smallbank.Gen { return smallbank.New() }

// NewRegistry returns an empty execution-function registry.
func NewRegistry() *Registry { return txnmodel.NewRegistry() }

// Tracer records per-transaction distributed traces — phase transitions,
// message hops, DMA flushes, lock transitions, aborts — as Chrome
// trace-event JSON (Perfetto-loadable) with simulated timestamps. A nil
// *Tracer is a valid disabled tracer.
type Tracer = trace.Tracer

// NewTracer returns an enabled tracer; attach it with WithTracer.
func NewTracer() *Tracer { return trace.New() }

// StatsRegistry collects named counters, gauges, and histograms from
// cluster components, snapshotable as one JSON document per run. A nil
// *StatsRegistry is a valid disabled registry.
type StatsRegistry = metrics.Registry

// NewStatsRegistry returns an empty stats registry; populate it with
// WithStats.
func NewStatsRegistry() *StatsRegistry { return metrics.NewRegistry() }

// History records every transaction outcome — read sets with observed
// versions, write sets with installed versions, statuses, timestamps — for
// offline serializability checking (DESIGN.md §9). Attach one with
// WithHistory, run, Drain, then call Check. A nil *History is a valid
// disabled recorder.
type History = check.History

// NewHistory returns an empty transaction-history recorder.
func NewHistory() *History { return check.NewHistory() }

// Telemetry is a simulated-time sampler collecting per-node, per-resource
// time series (rates, windowed latency quantiles, occupancies, queue
// depths) from a running system. Attach one with WithTelemetry, run, then
// export with Set (see the telemetry package for CSV/JSON/HTML writers and
// the bottleneck analyzer). A nil *Telemetry is a valid disabled sampler.
type Telemetry = telemetry.Sampler

// TelemetrySet is an exported snapshot of a sampler's series.
type TelemetrySet = telemetry.Set

// NewTelemetry returns a sampler ticking every interval of simulated time
// (the package default, 100µs, if interval <= 0).
func NewTelemetry(interval Time) *Telemetry { return telemetry.New(interval) }

// CheckReport is the outcome of a serializability check: the dependency
// graph summary and any witness cycles found.
type CheckReport = check.Report

// FaultPlan is a deterministic fault-injection schedule: frame
// drop/duplication/delay probabilities, network partitions, node crashes,
// NIC core and DMA engine stalls, and the timeout knobs consumers use to
// survive them. Attach one via Config.Faults or BaselineConfig.Faults;
// the same seed and plan reproduce the exact same run.
type FaultPlan = fault.Plan

// ParseFaultPlan parses the -faults specification grammar, e.g.
// "drop=0.01,dup=0.005,crash=2@4ms,part=1:2@2ms+1ms".
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.Parse(spec) }

// RandomFaultPlan generates a seeded random fault plan for an n-node
// cluster, as used by the harness chaos mode.
func RandomFaultPlan(seed int64, nodes int) *FaultPlan { return fault.RandomPlan(seed, nodes) }
