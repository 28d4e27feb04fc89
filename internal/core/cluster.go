package core

import (
	"fmt"

	"xenic/internal/chassis"
	"xenic/internal/hostrt"
	"xenic/internal/membership"
	"xenic/internal/metrics"
	"xenic/internal/nicrt"
	"xenic/internal/sim"
	"xenic/internal/store/btree"
	"xenic/internal/store/nicindex"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// Cluster is a simulated Xenic deployment: Config.Nodes servers, each a
// coordinator, the primary of one shard, and a backup for Replication-1
// others (§4). Everything that is not the Xenic protocol — load generation,
// retries, measurement, shared observers — is the embedded chassis.
type Cluster struct {
	*chassis.Chassis
	cfg   Config
	nodes []*Node
	spec  txnmodel.StoreSpec

	// view is the membership view the protocol acts on (the chassis's copy,
	// cached for the hot path).
	view membership.View

	// fwdInFlight[n] counts state-transfer commit forwards sent to rejoiner
	// n that have not yet arrived; Quiesced waits for them so a drained
	// cluster's replicas are byte-comparable. Reset when n restarts.
	fwdInFlight []int64

	mv *mvState // MVCC timestamp machinery (disabled unless Config.MVCC)

	// txFree recycles application-transaction headers (see Node.complete).
	txFree freelist[chassis.Txn]
}

// Observers gathers everything that watches or drives a cluster; see
// chassis.Observers.
type Observers = chassis.Observers

// primaryNode is the node currently serving shard s.
func (cl *Cluster) primaryNode(s int) int { return cl.view.PrimaryOf[s] }

// viewBackups lists shard s's surviving backups in the current view.
func (cl *Cluster) viewBackups(s int) []int { return cl.view.BackupsOf[s] }

// replicasOf lists every surviving replica of shard s: the serving primary
// followed by the backups.
func (cl *Cluster) replicasOf(s int) []int {
	out := []int{cl.view.PrimaryOf[s]}
	return append(out, cl.view.BackupsOf[s]...)
}

// Retry back-off bounds for Xenic application threads.
const (
	retryBackoffBase = 2 * sim.Microsecond
	retryBackoffMax  = 64 * sim.Microsecond
)

// New builds and populates a cluster running workload gen, with obs attached
// before any traffic flows.
func New(cfg Config, gen txnmodel.Generator, obs Observers) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cl := &Cluster{cfg: cfg}
	ch, err := chassis.New(chassis.Config{
		Nodes:       cfg.Nodes,
		Replication: cfg.Replication,
		HostThreads: cfg.AppThreads + cfg.WorkerThreads,
		AppThreads:  cfg.AppThreads,
		Outstanding: cfg.Outstanding,
		MaxRetries:  cfg.MaxRetries,
		Params:      cfg.Params,
		Seed:        cfg.Seed,
		Faults:      cfg.Faults,
	}, gen, chassis.Protocol{
		Name:              "core",
		BackoffBase:       retryBackoffBase,
		BackoffMax:        retryBackoffMax,
		DeferRetryLaunch:  true,
		ReadOnlyBreakdown: cfg.MVCC,
		NewTxn:            cl.txFree.get,
		Launch:            func(t *hostrt.Thread, node int, tx *chassis.Txn) { cl.nodes[node].submit(t, tx) },
		Alive:             func(node int) bool { return cl.nodes[node].alive },
		Drained:           cl.drained,
		Window:            cl.window,
		OnView:            cl.onViewChange,
		Observe:           cl.observe,
	})
	if err != nil {
		return nil, err
	}
	cl.Chassis = ch
	cl.fwdInFlight = make([]int64, cfg.Nodes)
	cl.mv = newMVState(cfg.MVCC, cfg.MVCCKeep)
	cl.spec = gen.Spec()

	for id := 0; id < cfg.Nodes; id++ {
		n := &Node{
			cl:            cl,
			id:            id,
			app:           ch.App(id),
			host:          ch.App(id).Host(),
			prims:         map[int]*primaryShard{},
			backups:       map[int]*ShardData{},
			log:           newHostLog(cfg.Faults != nil || obs.History != nil),
			pins:          map[uint64][]uint64{},
			pinIdx:        map[uint64]*nicindex.Index{},
			ctxns:         map[uint64]*ctxn{},
			remoteLocks:   map[uint64][]uint64{},
			recov:         map[txnShard]*recovering{},
			pendingDecide: map[txnShard][]uint64{},
			alive:         true,
		}
		n.stats.Stats = n.app.Stats()
		for i := range n.stats.PhaseLat {
			n.stats.PhaseLat[i] = metrics.NewHistogram()
		}
		n.nic = nicrt.New(cl.Engine(), cfg.Params, cl.Network(), id, cfg.NICCores, cfg.Seed, cfg.Features.runtime())
		if cl.Injector() != nil {
			n.nic.SetDMAFault(cl.Injector().DMAErr)
		}

		n.nic.OnMessage(n.nicHandler)
		host := n.host
		n.nic.OnHostDeliver(func(ms []wire.Msg) { host.Deliver(id, ms) })
		n.nic.OnHostPacketDone(host.Recycle)
		n.host.OnMessage(n.hostHandler)
		n.host.OnIdle(n.hostIdle)
		n.host.SetRouter(n.hostRouter)
		n.host.OnTransmit(n.toNIC)
		cl.nodes = append(cl.nodes, n)
	}

	cl.populate()
	cl.Boot()
	cl.view = cl.View()
	cl.scheduleFaults()
	if err := cl.Attach(obs); err != nil {
		return nil, err
	}
	return cl, nil
}

// scheduleFaults arms the plan's scheduled events: crashes, NIC core stalls,
// and DMA engine stalls. Partitions and per-frame faults are decided inline
// by the injector.
func (cl *Cluster) scheduleFaults() {
	if cl.Injector() == nil {
		return
	}
	plan := cl.Injector().Plan()
	for _, c := range plan.Crashes {
		c := c
		cl.Engine().At(c.At, func() { cl.Kill(c.Node) })
	}
	for _, s := range plan.CoreStalls {
		s := s
		cl.Engine().At(s.At, func() {
			cl.nodes[s.Node].nic.StallCore(s.Core%cl.cfg.NICCores, s.Dur)
		})
	}
	for _, s := range plan.DMAStalls {
		s := s
		cl.Engine().At(s.At, func() { cl.nodes[s.Node].nic.StallDMA(s.Dur) })
	}
	for _, r := range plan.Restarts {
		r := r
		cl.Engine().At(r.At, func() { cl.Restart(r.Node) })
	}
}

// newIndex builds the SmartNIC index over primary replica d, its cache
// capacity from the workload spec. Under MVCC it mirrors the host chain head
// timestamps (modeled as extra row-header metadata carried by the existing
// DMA fills) and caches a bounded version history per entry.
func (cl *Cluster) newIndex(d *ShardData) *nicindex.Index {
	cache := cl.spec.NICCacheObjects
	if cache <= 0 {
		cache = cl.spec.HashSlots / 4
	}
	idx := nicindex.New(d.Hash, cache, 1)
	if cl.mv.enabled {
		idx.SetTSFunc(d.HeadTS)
		idx.SetChainDepth(cl.mv.keep)
	}
	return idx
}

// Kill crashes node id: it stops processing and renewing its lease; the
// manager reconfigures once the lease expires.
//
// From the first crash on every log retains its finished records: recovery
// votes may be answered from a record applied long before (hostLog.has).
func (cl *Cluster) Kill(id int) {
	cl.nodes[id].halt()
	for _, n := range cl.nodes {
		n.log.retain = true
	}
}

// halt stops n: it drops everything from now on. A halted coordinator's
// snapshots end with it: nothing drives its table any more (Restart wipes
// it), and an open one would pin the GC low-water mark for good.
func (n *Node) halt() {
	n.alive = false
	for _, t := range n.ctxns {
		n.snapClose(t)
	}
}

// Restart brings a crashed (and evicted) node back with wiped NIC and host
// state. The node re-registers with the cluster manager, is fenced behind
// its fresh join epoch, and re-replicates its shards from the surviving
// primaries before re-entering the replica chains (rejoin.go). A restart
// before the manager has evicted the node is retried after the eviction
// view lands — a node cannot rejoin a view it never left.
func (cl *Cluster) Restart(id int) {
	n := cl.nodes[id]
	if n.alive {
		return
	}
	if cl.Manager().View().Alive[id] {
		cl.Engine().After(cl.Membership().CheckPeriod, func() { cl.Restart(id) })
		return
	}
	// Wipe: host memory (replicas, log, coordinator and recovery state) and
	// NIC state (dedup tables, epoch) are gone; only durable identity — the
	// node id and its app threads' sequence counters (so retried ids stay
	// globally unique) — survives. Stats accumulate across the restart so
	// Measure windows keep working.
	n.prims = map[int]*primaryShard{}
	n.backups = map[int]*ShardData{}
	n.log = newHostLog(true) // restarts follow a Kill
	n.pins = map[uint64][]uint64{}
	n.pinIdx = map[uint64]*nicindex.Index{}
	n.ctxns = map[uint64]*ctxn{}
	n.remoteLocks = map[uint64][]uint64{}
	n.recov = map[txnShard]*recovering{}
	n.pendingDecide = map[txnShard][]uint64{}
	n.fwd = nil
	n.app.Reset()
	n.nic.Reset()
	cl.fwdInFlight[id] = 0
	n.alive = true
	n.rejoin = &rejoinState{shards: map[int]*pullState{}}
	cl.Manager().Rejoin(id)
}

// populate builds each shard on its own goroutine (chassis.Populate): the
// primary and its NIC index, backups that are clones sharing its value
// slices (DESIGN.md §16), and the index hints the NIC learns at setup.
func (cl *Cluster) populate() {
	chassis.Populate(cl.Chassis, chassis.Population[*ShardData]{
		Primary: func(s int) *ShardData {
			own := newShardData(cl.spec, cl.Placement())
			cl.nodes[s].prims[s] = &primaryShard{data: own, index: cl.newIndex(own), ready: true}
			return own
		},
		Load:    func(d *ShardData, key uint64, value []byte) { d.Apply(wire.KV{Key: key, Version: 1, Value: value}) },
		Clone:   (*ShardData).clone,
		Finish:  func(s int) { cl.nodes[s].prims[s].index.SyncHints() },
		Install: func(s, node int, d *ShardData) { cl.nodes[node].backups[s] = d },
	})
}

// Node returns node i.
func (cl *Cluster) Node(i int) *Node { return cl.nodes[i] }

// Config returns the cluster configuration.
func (cl *Cluster) Config() Config { return cl.cfg }

// Result summarizes a measurement window. It is the shared measurement type
// in txnmodel, so Xenic and baseline results are directly comparable.
type Result = txnmodel.Result

// window resets the per-phase latency histograms at the start of a
// measurement window.
func (cl *Cluster) window() {
	for _, n := range cl.nodes {
		for _, h := range n.stats.PhaseLat {
			h.Reset()
		}
	}
}

// drained reports whether the protocol holds no in-flight state: no
// coordinator state, decided log records applied, and no recovery in
// progress. Crashed nodes are excluded.
func (cl *Cluster) drained() bool {
	for _, n := range cl.nodes {
		if !n.alive {
			continue
		}
		if len(n.ctxns) > 0 || len(n.remoteLocks) > 0 || n.log.pending() > 0 ||
			len(n.pins) > 0 || len(n.recov) > 0 || len(n.pendingDecide) > 0 {
			return false
		}
		if n.rejoin != nil {
			return false // restarting node still catching up
		}
		for _, p := range n.prims {
			if !p.ready {
				return false
			}
		}
	}
	for dst, cnt := range cl.fwdInFlight {
		if cnt > 0 && cl.nodes[dst].alive {
			return false // state-transfer forwards still in flight
		}
	}
	return true
}

// CheckInvariants validates every node's store and index structures, and
// that every reclaiming host log has shrunk back to at most one segment with
// nothing undecided, for quiesced clusters (call after StopLoad and a drain
// period).
func (cl *Cluster) CheckInvariants() error {
	for _, n := range cl.nodes {
		if !n.alive {
			continue
		}
		for s, p := range n.prims {
			if err := p.data.Hash.CheckInvariants(); err != nil {
				return fmt.Errorf("node %d primary of %d: %w", n.id, s, err)
			}
			if err := p.data.BTree.CheckInvariants(); err != nil {
				return fmt.Errorf("node %d primary btree of %d: %w", n.id, s, err)
			}
			if err := p.index.CheckInvariants(); err != nil {
				return fmt.Errorf("node %d index of %d: %w", n.id, s, err)
			}
		}
		for s, b := range n.backups {
			if err := b.Hash.CheckInvariants(); err != nil {
				return fmt.Errorf("node %d backup of %d: %w", n.id, s, err)
			}
		}
		if err := n.log.checkDrained(); err != nil {
			return fmt.Errorf("node %d log: %w", n.id, err)
		}
	}
	return nil
}

// ReplicasConsistent verifies (for a fully drained cluster) that every
// backup replica holds exactly the primary's data at the same versions.
// Core correctness tests rely on it.
func (cl *Cluster) ReplicasConsistent() error {
	for s := 0; s < cl.cfg.Nodes; s++ {
		pn := cl.nodes[cl.primaryNode(s)]
		if !pn.alive {
			continue // shard lost every replica
		}
		prim := pn.prim(s)
		if prim == nil {
			return fmt.Errorf("shard %d: view primary %d does not serve it", s, pn.id)
		}
		for _, b := range cl.viewBackups(s) {
			bk := cl.nodes[b].backups[s]
			if err := storesEqual(prim.data, bk); err != nil {
				return fmt.Errorf("shard %d backup at node %d: %w", s, b, err)
			}
		}
	}
	return nil
}

func storesEqual(a, b *ShardData) error {
	if a.Hash.Len() != b.Hash.Len() {
		return fmt.Errorf("hash sizes differ: %d vs %d", a.Hash.Len(), b.Hash.Len())
	}
	if a.BTree.Len() != b.BTree.Len() {
		return fmt.Errorf("btree sizes differ: %d vs %d", a.BTree.Len(), b.BTree.Len())
	}
	var err error
	a.Hash.ForEach(func(key uint64, version uint64, value []byte) bool {
		r := b.Hash.Lookup(key)
		if !r.Found || r.Version != version || string(r.Value) != string(value) {
			err = fmt.Errorf("hash key %d diverges (found=%v v=%d vs %d)", key, r.Found, r.Version, version)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	a.BTree.AscendRange(0, ^uint64(0), func(it btree.Item) bool {
		got, ok := b.BTree.Get(it.Key)
		if !ok || got.Version != it.Version || string(got.Value) != string(it.Value) {
			err = fmt.Errorf("btree key %d diverges", it.Key)
			return false
		}
		return true
	})
	return err
}
