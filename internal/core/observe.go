package core

import (
	"fmt"

	"xenic/internal/metrics"
	"xenic/internal/sim"
	"xenic/internal/store/nicindex"
	"xenic/internal/trace"
)

// This file wires the cluster into the observability layer: the
// per-transaction tracer (phase spans, abort instants, lock transitions)
// and the stats registry (per-node transaction outcomes, phase latencies,
// NIC index and runtime counters). Everything here is nil-safe: with no
// tracer and no registry attached, the instrumented paths cost one branch.

// observe registers what only Xenic has with the attached observers: trace
// hooks and thread names, phase/NIC/index stats, and the NIC-side telemetry
// series. It runs once, at construction, before any traffic flows.
func (cl *Cluster) observe(o Observers) {
	if o.Tracer != nil {
		cl.trace(o.Tracer)
	}
	cl.registerMetrics(o.Stats)
	cl.registerTelemetry(o.Telemetry)
}

// trace hooks tr into the NICs and lock tables and names the trace's
// processes and threads: host threads appear as tids hostTidBase+i, NIC
// cores as tids 0..NICCores-1.
func (cl *Cluster) trace(tr *trace.Tracer) {
	for _, n := range cl.nodes {
		n.nic.SetTracer(tr)
		n.installLockTrace()
	}
	if !tr.Enabled() {
		return
	}
	for _, n := range cl.nodes {
		tr.MetaProcess(n.id, fmt.Sprintf("node%d", n.id))
		for c := 0; c < cl.cfg.NICCores; c++ {
			tr.MetaThread(n.id, c, fmt.Sprintf("nic-core%d", c))
		}
		for h := 0; h < cl.cfg.AppThreads+cl.cfg.WorkerThreads; h++ {
			name := fmt.Sprintf("host-app%d", h)
			if h >= cl.cfg.AppThreads {
				name = fmt.Sprintf("host-worker%d", h-cl.cfg.AppThreads)
			}
			tr.MetaThread(n.id, hostTidBase+h, name)
		}
	}
}

// hostTidBase offsets host-thread trace tids past the NIC-core tids.
const hostTidBase = 64

// tr returns the cluster tracer for node-side instrumentation.
func (n *Node) tr() *trace.Tracer { return n.cl.Tracer() }

// installLockTrace hooks every primary index this node serves so lock
// transitions land in the trace. Installed only when tracing: the hook
// closure allocates argument maps.
func (n *Node) installLockTrace() {
	for s, p := range n.prims {
		n.hookIndex(s, p.index)
	}
}

// hookIndex installs the lock-transition hook on one shard's index (also
// called when recovery builds an index for an adopted shard).
func (n *Node) hookIndex(shard int, idx *nicindex.Index) {
	tr := n.tr()
	if !tr.Enabled() {
		idx.SetLockTrace(nil)
		return
	}
	eng := n.cl.Engine()
	idx.SetLockTrace(func(op string, key, owner uint64, ok bool) {
		name := op
		if !ok {
			name = op + "-fail"
		}
		tr.Instant("lock", name, n.id, 0, eng.Now(),
			trace.Args{"key": key, "shard": shard, "txn": owner})
	})
}

// openTxn enters t in the coordinator table and starts its phase accounting
// and trace span. The span opens at the coordinator NIC, where the ctxn is
// born.
func (n *Node) openTxn(t *ctxn) {
	n.ctxns[t.id] = t
	now := n.cl.Engine().Now()
	t.phaseAt = now
	t.openedAt = now
	if tr := n.tr(); tr.Enabled() {
		tr.BeginAsync("txn", "txn", t.id, n.id, now, nil)
		tr.BeginAsync("phase", t.phase.String(), t.id, n.id, now, nil)
	}
	n.armWatchdog(t)
}

// setPhase moves t to ph.
func (n *Node) setPhase(t *ctxn, ph phase) {
	now := n.closePhase(t)
	if tr := n.tr(); tr.Enabled() {
		tr.BeginAsync("phase", ph.String(), t.id, n.id, now, nil)
	}
	t.phase = ph
	t.phaseAt = now
	t.epoch++ // phase changes are the watchdog's progress signal
}

// closePhase ends t's current phase now, which it returns: it records the
// phase's simulated duration and closes its trace span.
func (n *Node) closePhase(t *ctxn) sim.Time {
	now := n.cl.Engine().Now()
	if h := n.stats.PhaseLat[t.phase]; h != nil {
		h.Record(now - t.phaseAt)
	}
	if tr := n.tr(); tr.Enabled() {
		tr.EndAsync("phase", t.phase.String(), t.id, n.id, now, nil)
	}
	return now
}

// registerMetrics adds Xenic's own counters to reg: phase latency histograms,
// NIC index counters, the NIC runtime's batching and PCIe counters, and
// fault-run watchdog and fence counters.
func (cl *Cluster) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for _, n := range cl.nodes {
		sub := reg.Sub(fmt.Sprintf("node%d", n.id))
		for ph := 0; ph < numPhases; ph++ {
			sub.RegisterHistogram("phase."+phase(ph).String(), n.stats.PhaseLat[ph])
		}
		sub.RegisterFunc("nicindex", func() any {
			var agg nicindex.Stats
			for _, p := range n.prims {
				agg.Merge(p.index.Stats())
			}
			return agg.Snapshot()
		})
		n.nic.RegisterMetrics(sub.Sub("nic"))
		if cl.cfg.Faults != nil {
			sub.RegisterFunc("timeouts_by_phase", func() any { return timeoutMap(n.stats.Timeouts) })
			sub.RegisterFunc("stale_drops", func() any { return n.stats.StaleDrops })
		}
	}
	agg := reg.Sub("cluster")
	for ph := 0; ph < numPhases; ph++ {
		agg.RegisterFunc("phase."+phase(ph).String(), func() any {
			m := metrics.NewHistogram()
			for _, n := range cl.nodes {
				m.Merge(n.stats.PhaseLat[ph])
			}
			return m.Snapshot()
		})
	}
}

// timeoutMap keys non-zero watchdog expirations by phase name.
func timeoutMap(timeouts [numPhases]int64) map[string]int64 {
	out := map[string]int64{}
	for i, v := range timeouts {
		if v == 0 {
			continue
		}
		out[phase(i).String()] = v
	}
	return out
}
