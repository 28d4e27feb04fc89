// Package chassis is everything a simulated transaction system has that does
// not depend on its commit protocol: the engine, fabric, fault injector and
// lease service; the per-node hosts with their application threads; load
// generation (closed loop, attached sources, injected arrivals), retry with
// back-off and outcome accounting; Run/Drain/Measure; and the observer
// registrations every system repeats. The Xenic cluster (internal/core) and
// the RDMA baselines (internal/baseline) both embed a Chassis, so the code
// that generates load, retries aborts and measures results is the same code
// on both sides of every comparison. A protocol supplies only what a
// Protocol value names.
package chassis

import (
	"fmt"

	"xenic/internal/check"
	"xenic/internal/fault"
	"xenic/internal/hostrt"
	"xenic/internal/load"
	"xenic/internal/membership"
	"xenic/internal/metrics"
	"xenic/internal/model"
	"xenic/internal/sim"
	"xenic/internal/simnet"
	"xenic/internal/telemetry"
	"xenic/internal/trace"
	"xenic/internal/txnmodel"
)

// MaxAppThreads bounds Config.AppThreads: a transaction id carries its
// application thread in 8 bits (TxnID), and completions are routed back by
// that field.
const MaxAppThreads = 256

// Config sizes the protocol-independent part of a cluster.
type Config struct {
	Nodes       int
	Replication int
	// HostThreads is the host thread count per node; the first AppThreads of
	// them coordinate transactions.
	HostThreads int
	AppThreads  int
	// Outstanding is the closed-loop window per application thread.
	Outstanding int
	// MaxRetries bounds retries per transaction before it is reported failed.
	MaxRetries int
	Params     model.Params
	Seed       int64
	Faults     *fault.Plan
}

func (c Config) validate(name string) error {
	if c.Nodes < 2 {
		return fmt.Errorf("%s: need >=2 nodes, have %d", name, c.Nodes)
	}
	if c.Replication < 1 || c.Replication > c.Nodes {
		return fmt.Errorf("%s: replication %d outside 1..%d", name, c.Replication, c.Nodes)
	}
	if c.AppThreads < 1 || c.HostThreads < c.AppThreads {
		return fmt.Errorf("%s: thread counts must be positive", name)
	}
	if c.AppThreads > MaxAppThreads {
		return fmt.Errorf("%s: %d application threads per node exceed the limit of %d",
			name, c.AppThreads, MaxAppThreads)
	}
	if c.Outstanding < 1 {
		return fmt.Errorf("%s: outstanding window must be positive", name)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.Nodes); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// Protocol is what a system plugs into the chassis: three constants on which
// the Xenic and baseline drivers have always differed (each observable in
// the goldens, so fixed per protocol rather than configured), and its hooks.
type Protocol struct {
	// Name prefixes configuration errors ("core", "baseline").
	Name string

	// BackoffBase and BackoffMax bound the capped-exponential retry back-off
	// window (sim.Backoff): it starts at Base and doubles per attempt up to
	// Max, so repeated conflicts on a hot key decay instead of re-colliding
	// at a fixed cadence.
	BackoffBase, BackoffMax sim.Time
	// DeferRetryLaunch selects the retry-queue drain order. Set, an idle pass
	// first splits the queue into expired and waiting entries and relaunches
	// afterwards, so a transaction re-queued by a synchronous abort lands
	// behind the waiting ones. Clear, it relaunches while it scans — time
	// charged by a launch counts towards the entries after it, and a
	// synchronous re-queue lands between them.
	DeferRetryLaunch bool
	// ReadOnlyBreakdown makes Measure fill the Result's read-only fields.
	// Result.String prints them when non-zero, so a system whose output
	// predates the breakdown leaves it clear.
	ReadOnlyBreakdown bool

	// NewTxn allocates a transaction header, normally embedded in the
	// protocol's own per-attempt state (see Txn.Attempt).
	NewTxn func() *Txn
	// Launch starts, or after an abort restarts, an attempt of tx on node's
	// application thread t.
	Launch func(t *hostrt.Thread, node int, tx *Txn)
	// Alive reports whether node is up. Nil means nodes never crash.
	Alive func(node int) bool
	// Drained reports whether the protocol holds no in-flight state; together
	// with empty application threads it makes the system Quiesced.
	Drained func() bool
	// Window, if set, runs at the start of a measurement window, to reset
	// the protocol's own windowed statistics.
	Window func()
	// OnView, if set, observes every membership view after the chassis.
	OnView func(membership.View)
	// Observe, if set, registers the series only this protocol has with the
	// attached observers, after the chassis has registered the shared ones.
	Observe func(Observers)
}

// Observers is the single construction-time attach point: everything that
// watches or drives a system. Any field may be nil.
type Observers struct {
	Tracer    *trace.Tracer
	Stats     *metrics.Registry
	History   *check.History
	Telemetry *telemetry.Sampler
	// Load replaces the built-in closed loop as what Start/StopLoad control.
	Load load.Source
}

// Chassis is the protocol-independent part of a simulated cluster.
type Chassis struct {
	cfg   Config
	proto Protocol
	eng   *sim.Engine
	nw    *simnet.Network
	inj   *fault.Injector // nil unless Config.Faults is set
	mgr   *membership.Manager
	view  membership.View
	gen   txnmodel.Generator
	place txnmodel.Placement
	reg   *txnmodel.Registry
	nodes []*Node
	obs   Observers

	src    load.Source // what Start/StopLoad control; the closed loop by default
	srcOn  bool        // src has been started and not stopped since
	loadOn bool        // closed-loop window top-up is running
}

// New builds the engine, fabric, fault injector and per-node hosts. The
// protocol then builds its nodes on them, calls Boot, and finally Attach.
func New(cfg Config, gen txnmodel.Generator, p Protocol) (*Chassis, error) {
	if err := cfg.validate(p.Name); err != nil {
		return nil, err
	}
	if p.Alive == nil {
		p.Alive = func(int) bool { return true }
	}
	ch := &Chassis{
		cfg:   cfg,
		proto: p,
		eng:   sim.NewEngine(cfg.Seed),
		gen:   gen,
		reg:   txnmodel.NewRegistry(),
	}
	ch.nw = simnet.New(ch.eng, cfg.Params, cfg.Nodes)
	if cfg.Faults != nil {
		// The injector decides every frame's fate; the liveness oracle lets
		// the reliable transport abandon frames to or from dead nodes.
		ch.inj = fault.NewInjector(ch.eng, cfg.Faults, cfg.Seed)
		ch.nw.SetFault(ch.inj.FrameFate, p.Alive)
	}
	ch.place = gen.Placement(cfg.Nodes, cfg.Replication)
	gen.Register(ch.reg)
	for id := 0; id < cfg.Nodes; id++ {
		n := &Node{
			ch:   ch,
			id:   id,
			host: hostrt.New(ch.eng, cfg.Params, id, cfg.HostThreads, cfg.Seed),
		}
		n.stats.Latency = metrics.NewHistogram()
		n.stats.ROLatency = metrics.NewHistogram()
		for a := 0; a < cfg.AppThreads; a++ {
			n.threads = append(n.threads, &appThread{node: n, id: a, inflight: map[uint64]*Txn{}})
		}
		ch.nodes = append(ch.nodes, n)
	}
	ch.src = load.NewClosedLoop()
	if err := ch.src.Attach(ch); err != nil {
		return nil, err
	}
	return ch, nil
}

// Boot starts the lease service (§4.2.1): every live, reachable node renews
// its lease, and the manager reconfigures on expiry, off the critical path.
func (ch *Chassis) Boot() {
	ch.mgr = membership.New(ch.eng, ch.cfg.Nodes, ch.cfg.Replication, ch.Membership())
	ch.view = ch.mgr.View()
	ch.mgr.OnChange(func(v membership.View) { ch.view = v })
	if ch.proto.OnView != nil {
		ch.mgr.OnChange(ch.proto.OnView)
	}
	for id := range ch.nodes {
		ch.eng.Ticker(ch.Membership().RenewPeriod, func() bool {
			// A partitioned node cannot reach the manager: its lease lapses
			// and it is evicted.
			if ch.proto.Alive(id) && (ch.inj == nil || !ch.inj.Isolated(id)) {
				ch.mgr.Renew(id)
			}
			return true
		})
	}
	ch.mgr.Start()
}

// Attach wires the observers in. The load source attaches first so the
// telemetry registered after it exposes its series; the sampling ticker
// starts last, once every probe is registered.
func (ch *Chassis) Attach(o Observers) error {
	if o.Load != nil {
		if err := o.Load.Attach(ch); err != nil {
			return err
		}
		ch.src = o.Load
	}
	ch.obs = o
	if ch.inj != nil {
		ch.inj.SetTracer(o.Tracer)
	}
	ch.registerMetrics(o.Stats)
	ch.registerTelemetry(o.Telemetry)
	if ch.proto.Observe != nil {
		ch.proto.Observe(o)
	}
	o.Telemetry.Attach(ch.eng)
	return nil
}

// Engine exposes the simulation engine.
func (ch *Chassis) Engine() *sim.Engine { return ch.eng }

// Network exposes the simulated fabric.
func (ch *Chassis) Network() *simnet.Network { return ch.nw }

// Injector exposes the fault injector (nil on fault-free runs).
func (ch *Chassis) Injector() *fault.Injector { return ch.inj }

// Manager exposes the lease service.
func (ch *Chassis) Manager() *membership.Manager { return ch.mgr }

// Membership returns the lease settings in force: every system runs the
// same cluster manager (leases, epochs, views) with the default settings.
func (ch *Chassis) Membership() membership.Config { return membership.DefaultConfig() }

// View returns the membership view the nodes last learned of.
func (ch *Chassis) View() membership.View { return ch.view }

// Placement is the workload's key placement.
func (ch *Chassis) Placement() txnmodel.Placement { return ch.place }

// Registry holds the workload's execution functions.
func (ch *Chassis) Registry() *txnmodel.Registry { return ch.reg }

// Tracer returns the attached tracer (nil when tracing is off).
func (ch *Chassis) Tracer() *trace.Tracer { return ch.obs.Tracer }

// History returns the attached recorder (nil when recording is off).
func (ch *Chassis) History() *check.History { return ch.obs.History }

// Nodes returns the node count.
func (ch *Chassis) Nodes() int { return ch.cfg.Nodes }

// BackupsOf lists the initial backup nodes of shard s: the next
// Replication-1 nodes in ring order.
func (ch *Chassis) BackupsOf(s int) []int {
	out := make([]int, 0, ch.cfg.Replication-1)
	for i := 1; i < ch.cfg.Replication; i++ {
		out = append(out, (s+i)%ch.cfg.Nodes)
	}
	return out
}

// App returns node i's application side.
func (ch *Chassis) App(i int) *Node { return ch.nodes[i] }

// AppThreadsPerNode reports the coordinator application threads per node
// (the load.Driver injection grid).
func (ch *Chassis) AppThreadsPerNode() int { return ch.cfg.AppThreads }

// Workload returns the generator this cluster was built with.
func (ch *Chassis) Workload() txnmodel.Generator { return ch.gen }

// Start begins load generation: the attached load source, or by default the
// closed loop on every application thread.
func (ch *Chassis) Start() {
	ch.srcOn = true
	ch.src.Start()
}

// StopLoad stops generating new transactions; in-flight ones drain.
func (ch *Chassis) StopLoad() {
	ch.srcOn = false
	ch.src.Stop()
}

// OfferedLoad snapshots the load source's admission and session counters;
// all-zero under the closed loop.
func (ch *Chassis) OfferedLoad() load.Stats { return ch.src.Stats() }

// StartClosedLoop begins closed-loop generation on every application thread
// (the load.Driver surface; the default source's Start lands here).
func (ch *Chassis) StartClosedLoop() {
	ch.loadOn = true
	for _, n := range ch.nodes {
		n.host.WakeAll()
	}
}

// StopClosedLoop halts closed-loop generation.
func (ch *Chassis) StopClosedLoop() { ch.loadOn = false }

// Run advances simulated time by d.
func (ch *Chassis) Run(d sim.Time) { ch.eng.Run(ch.eng.Now() + d) }

// Quiesced reports whether the system has fully drained: no live node's
// application thread holds work, and the protocol holds no in-flight state.
func (ch *Chassis) Quiesced() bool {
	for _, n := range ch.nodes {
		if !ch.proto.Alive(n.id) {
			continue
		}
		for _, at := range n.threads {
			if at.outstanding > 0 || len(at.retryq) > 0 || len(at.injectq) > 0 {
				return false
			}
		}
	}
	return ch.proto.Drained()
}

// Drain stops load and runs until quiesced (or the deadline elapses),
// reporting success.
func (ch *Chassis) Drain(deadline sim.Time) bool {
	ch.StopLoad()
	end := ch.eng.Now() + deadline
	for ch.eng.Now() < end {
		if ch.Quiesced() {
			return true
		}
		ch.Run(100 * sim.Microsecond)
	}
	return ch.Quiesced()
}
