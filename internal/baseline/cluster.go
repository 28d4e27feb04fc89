package baseline

import (
	"fmt"

	"xenic/internal/chassis"
	"xenic/internal/hostrt"
	"xenic/internal/metrics"
	"xenic/internal/rdma"
	"xenic/internal/sim"
	"xenic/internal/store/btree"
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

// Retry back-off bounds for baseline coordinator threads.
const (
	backoffBase = 1 * sim.Microsecond
	backoffMax  = 16 * sim.Microsecond
)

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
		BackoffBase: backoffBase,
		BackoffMax:  backoffMax,
		NewTxn:      newTxn,
		Launch:      func(t *hostrt.Thread, node int, tx *chassis.Txn) { cl.nodes[node].launch(t, tx.Attempt.(*btxn)) },
		Drained:     cl.drained,
		Observe:     cl.observe,
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
			primary: newShardData(spec, cl.Placement()),
			backups: map[int]*shardData{},
			locks:   map[uint64]uint64{},
		}
		for s := 0; s < cfg.Nodes; s++ {
			for _, b := range cl.BackupsOf(s) {
				if b == id {
					n.backups[s] = newShardData(spec, cl.Placement())
				}
			}
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

	for s := 0; s < cfg.Nodes; s++ {
		primary := cl.nodes[s]
		backups := cl.BackupsOf(s)
		gen.Populate(s, cfg.Nodes, func(key uint64, value []byte) {
			if got := cl.Placement().ShardOf(key); got != s {
				panic(fmt.Sprintf("baseline: populate: key %d in shard %d emitted for %d", key, got, s))
			}
			primary.primary.apply(key, value, 1)
			for _, b := range backups {
				cl.nodes[b].backups[s].apply(key, value, 1)
			}
		})
	}

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

// ReadKey reads a key from its primary (for tests).
func (cl *Cluster) ReadKey(key uint64) ([]byte, uint64, bool) {
	return cl.nodes[cl.Placement().ShardOf(key)].primary.read(key)
}

// ReplicasConsistent verifies backup replicas converged to the primary.
func (cl *Cluster) ReplicasConsistent() error {
	for s := 0; s < cl.cfg.Nodes; s++ {
		p := cl.nodes[s].primary
		for _, b := range cl.BackupsOf(s) {
			bk := cl.nodes[b].backups[s]
			if p.hash.Len() != bk.hash.Len() {
				return fmt.Errorf("shard %d at node %d: hash size %d vs %d", s, b, p.hash.Len(), bk.hash.Len())
			}
			if p.btree.Len() != bk.btree.Len() {
				return fmt.Errorf("shard %d at node %d: btree size %d vs %d", s, b, p.btree.Len(), bk.btree.Len())
			}
			var err error
			p.hash.ForEach(func(key uint64, version uint64, value []byte) bool {
				r := bk.hash.Lookup(key)
				if !r.Found || r.Version != version || string(r.Value) != string(value) {
					err = fmt.Errorf("shard %d at node %d: key %d diverges", s, b, key)
					return false
				}
				return true
			})
			if err != nil {
				return err
			}
			p.btree.AscendRange(0, ^uint64(0), func(it btree.Item) bool {
				got, ok := bk.btree.Get(it.Key)
				if !ok || got.Version != it.Version || string(got.Value) != string(it.Value) {
					err = fmt.Errorf("shard %d at node %d: btree key %d diverges", s, b, it.Key)
					return false
				}
				return true
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
