package baseline

import (
	"fmt"
	"maps"
	"slices"

	"xenic/internal/chassis"
	"xenic/internal/hostrt"
	"xenic/internal/metrics"
	"xenic/internal/model"
	"xenic/internal/rdma"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// Cluster is a simulated baseline deployment: the shared chassis plus the
// baseline's RDMA/RPC commit protocol. It runs the same lease-based cluster
// manager as Xenic, so view epochs mean the same thing across systems, but
// never acts on view changes (no promotion, no re-replication — validate
// rejects crash faults).
type Cluster struct {
	*chassis.Chassis
	cfg   Config
	nodes []*Node
}

// Observers gathers everything that watches or drives a cluster; see
// chassis.Observers.
type Observers = chassis.Observers

// Stats aggregates one node's outcomes.
type Stats = chassis.Stats

// New builds and populates a baseline cluster running workload gen, with obs
// attached before any traffic flows.
func New(cfg Config, gen txnmodel.Generator, obs Observers) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cl := &Cluster{cfg: cfg}
	ch, err := chassis.New(chassis.Config{
		Nodes:       cfg.Nodes,
		Replication: cfg.Replication,
		HostThreads: cfg.Threads,
		AppThreads:  cfg.Threads,
		Outstanding: cfg.Outstanding,
		MaxRetries:  cfg.MaxRetries,
		Params:      cfg.Params,
		Seed:        cfg.Seed,
		Faults:      cfg.Faults,
	}, gen, chassis.Protocol{
		Name:        "baseline",
		BackoffBase: model.BaselineBackoffBase,
		BackoffMax:  model.BaselineBackoffMax,
		NewTxn:      newTxn,
		Launch:      func(t *hostrt.Thread, node int, tx *chassis.Txn) { cl.nodes[node].launch(t, tx.Attempt.(*btxn)) },
		Drained:     cl.drained,
		Observe:     cl.observe,
		Replicas:    cl.replicas,
	})
	if err != nil {
		return nil, err
	}
	cl.Chassis = ch
	spec := gen.Spec()

	for id := 0; id < cfg.Nodes; id++ {
		n := &Node{
			cl:      cl,
			id:      id,
			app:     ch.App(id),
			host:    ch.App(id).Host(),
			backups: map[int]*shardData{},
			locks:   map[uint64]uint64{},
		}
		n.rnic = rdma.New(cl.Engine(), cfg.Params, cl.Network(), id, n.host)
		if cfg.Faults != nil {
			n.rnic.SetFaultTimeout(cfg.Faults.VerbTimeoutOrDefault())
		}
		n.host.OnMessage(n.hostHandler)
		n.host.OnIdle(n.hostIdle)
		n.host.SetRouter(func(m wire.Msg) int {
			// RPC requests spread across threads; completions and
			// responses go to the owning thread.
			switch m.(type) {
			case *wire.Execute, *wire.Validate, *wire.Log, *wire.Commit, *wire.Abort:
				return int(m.(interface{ GetTxnID() uint64 }).GetTxnID() % uint64(cfg.Threads))
			}
			return chassis.TxnThread(m.(interface{ GetTxnID() uint64 }).GetTxnID())
		})
		n.host.OnTransmit(func(t *hostrt.Thread, ms []wire.Msg) {
			panic("baseline: thread outbox unused; all sends go through the RDMA NIC")
		})
		cl.nodes = append(cl.nodes, n)
	}

	// One goroutine per shard fills its primary and clones it for the backups.
	chassis.Populate(ch, chassis.Population[*shardData]{
		Primary: func(s int) *shardData {
			cl.nodes[s].primary = newShardData(spec, cl.Placement())
			return cl.nodes[s].primary
		},
		Load:    func(d *shardData, key uint64, value []byte) { d.apply(key, value, 1) },
		Clone:   (*shardData).clone,
		Install: func(s, node int, d *shardData) { cl.nodes[node].backups[s] = d },
	})

	cl.Boot()
	if err := cl.Attach(obs); err != nil {
		return nil, err
	}
	return cl, nil
}

// Node returns node i.
func (cl *Cluster) Node(i int) *Node { return cl.nodes[i] }

// Stats returns node i's counters.
func (n *Node) Stats() *Stats { return n.app.Stats() }

// drained reports whether the protocol holds no in-flight state: every
// backup record applied and every lock released.
func (cl *Cluster) drained() bool {
	for _, n := range cl.nodes {
		if n.apHead < len(n.applyq) || len(n.locks) > 0 {
			return false
		}
	}
	return true
}

// Result is the shared measurement summary in txnmodel; Xenic and baseline
// windows report through the same type.
type Result = txnmodel.Result

// observe registers what only the baselines have with the attached
// observers. The data path is RDMA verbs, so the trace carries
// process/thread metadata and fault-injection events rather than per-phase
// spans; it exists mainly so any System can be traced uniformly.
func (cl *Cluster) observe(o Observers) {
	if tr := o.Tracer; tr.Enabled() {
		for _, n := range cl.nodes {
			tr.MetaProcess(n.id, fmt.Sprintf("node%d", n.id))
			for h := 0; h < cl.cfg.Threads; h++ {
				tr.MetaThread(n.id, h, fmt.Sprintf("host-app%d", h))
			}
		}
	}
	cl.registerMetrics(o.Stats)
	for _, n := range cl.nodes {
		o.Telemetry.Sub(fmt.Sprintf("node%d", n.id)).
			Gauge("lock.held", func() float64 { return float64(len(n.locks)) })
	}
}

// registerMetrics adds the RDMA verb/byte counters and the membership view
// to reg.
func (cl *Cluster) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	rdmaSnap := func(s rdma.Stats) map[string]any {
		out := map[string]any{
			"reads":     s.Reads,
			"writes":    s.Writes,
			"atomics":   s.Atomics,
			"sends":     s.Sends,
			"bytes_out": s.BytesOut,
		}
		if cl.cfg.Faults != nil {
			out["verb_timeouts"] = s.VerbTimeouts
			out["dup_requests"] = s.DupRequests
			out["dup_responses"] = s.DupResponses
		}
		return out
	}
	for _, n := range cl.nodes {
		reg.Sub(fmt.Sprintf("node%d", n.id)).
			RegisterFunc("rdma", func() any { return rdmaSnap(n.rnic.Stats()) })
	}
	agg := reg.Sub("cluster")
	agg.RegisterFunc("membership", func() any {
		v := cl.View()
		alive := 0
		for _, a := range v.Alive {
			if a {
				alive++
			}
		}
		return map[string]any{"epoch": v.Epoch, "alive": alive}
	})
	agg.RegisterFunc("rdma", func() any {
		var s rdma.Stats
		for _, n := range cl.nodes {
			ns := n.rnic.Stats()
			s.Reads += ns.Reads
			s.Writes += ns.Writes
			s.Atomics += ns.Atomics
			s.Sends += ns.Sends
			s.BytesOut += ns.BytesOut
			s.VerbTimeouts += ns.VerbTimeouts
			s.DupRequests += ns.DupRequests
			s.DupResponses += ns.DupResponses
		}
		return rdmaSnap(s)
	})
}

// replicas lists shard s's copies for the drained-state checks: node s's
// primary, with the lock words in its host memory, then the backups. A
// baseline never changes its replica chains.
func (cl *Cluster) replicas(s int) []chassis.Replica {
	n := cl.nodes[s]
	out := []chassis.Replica{n.primary.replica(s)}
	out[0].Locks = func(yield func(key, owner uint64)) {
		for _, key := range slices.Sorted(maps.Keys(n.locks)) {
			yield(key, n.locks[key])
		}
	}
	for _, b := range cl.BackupsOf(s) {
		out = append(out, cl.nodes[b].backups[s].replica(b))
	}
	return out
}
