package chassis

import (
	"fmt"

	"xenic/internal/metrics"
	"xenic/internal/telemetry"
	"xenic/internal/wire"
)

// This file registers the series every system exposes, under the same names,
// so the counter tracks and the bottleneck analyzer read all five systems alike.
// Everything registered here is a read-only view over counters the chassis
// maintains anyway: an attached observer never perturbs the simulation.

// registerMetrics registers per-node transaction outcomes, abort reasons and
// latency, their cluster-wide aggregates under "cluster.", and the fault
// injector's counters under "fault.".
func (ch *Chassis) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for _, n := range ch.nodes {
		sub := reg.Sub(fmt.Sprintf("node%d", n.id))
		sub.RegisterFunc("txn", func() any { return n.stats.txnSnapshot() })
		sub.RegisterFunc("aborts_by_reason", func() any { return abortReasonMap(n.stats.AbortReasons) })
		sub.RegisterHistogram("latency", n.stats.Latency)
	}
	agg := reg.Sub("cluster")
	agg.RegisterFunc("txn", func() any {
		s := ch.totalStats()
		return s.txnSnapshot()
	})
	agg.RegisterFunc("aborts_by_reason", func() any { return abortReasonMap(ch.totalStats().AbortReasons) })
	agg.RegisterFunc("latency", func() any {
		m := metrics.NewHistogram()
		for _, n := range ch.nodes {
			m.Merge(n.stats.Latency)
		}
		return m.Snapshot()
	})
	if ch.inj != nil {
		f := reg.Sub("fault")
		ch.inj.RegisterMetrics(f)
		f.RegisterFunc("net", func() any {
			retx, lost := ch.nw.FaultCounters()
			return map[string]any{"retx": retx, "lost": lost}
		})
	}
}

// totalStats sums the nodes' counters (histograms excluded).
func (ch *Chassis) totalStats() Stats {
	var s Stats
	for _, n := range ch.nodes {
		s.Committed += n.stats.Committed
		s.Measured += n.stats.Measured
		s.Aborts += n.stats.Aborts
		s.Failed += n.stats.Failed
		s.SnapCommitted += n.stats.SnapCommitted
		s.SnapInline += n.stats.SnapInline
		s.SnapWalks += n.stats.SnapWalks
		for i, v := range n.stats.AbortReasons {
			s.AbortReasons[i] += v
		}
	}
	return s
}

// txnSnapshot renders the outcome counters for a stats snapshot.
func (s *Stats) txnSnapshot() map[string]any {
	out := map[string]any{
		"committed": s.Committed,
		"measured":  s.Measured,
		"aborts":    s.Aborts,
		"failed":    s.Failed,
	}
	// Snapshot-path counters appear only once that path has served work,
	// keeping stats of runs without it byte-identical to the pre-MVCC seed.
	if s.SnapCommitted|s.SnapInline|s.SnapWalks != 0 {
		out["snap_committed"] = s.SnapCommitted
		out["snap_inline"] = s.SnapInline
		out["snap_walks"] = s.SnapWalks
	}
	return out
}

// abortReasonMap keys non-zero abort counts by status name, skipping the
// StatusOK slot.
func abortReasonMap(reasons [wire.NumStatuses]int64) map[string]int64 {
	out := map[string]int64{}
	for i, v := range reasons {
		if wire.Status(i) == wire.StatusOK || v == 0 {
			continue
		}
		out[wire.Status(i).String()] = v
	}
	return out
}

// registerTelemetry registers the time series every system has: per node
// "node<i>", transaction rates and outcomes (commit/abort rates,
// lock-conflict fraction, in-flight count), windowed latency quantiles, and
// the host-thread and egress-link gauges the bottleneck analyzer ranks; the
// attached load source's counters under "load"; and the aggregate commit
// rate under "cluster".
func (ch *Chassis) registerTelemetry(s *telemetry.Sampler) {
	if s == nil {
		return
	}
	for _, n := range ch.nodes {
		sub := s.Sub(fmt.Sprintf("node%d", n.id))
		st := &n.stats
		sub.Rate("txn.commit_rate", func() int64 { return st.Committed })
		sub.Rate("txn.abort_rate", func() int64 { return st.Aborts })
		sub.Ratio("txn.lock_conflict_frac",
			func() int64 { return st.AbortReasons[wire.StatusAbortLocked] },
			func() int64 { return st.Committed + st.Aborts })
		sub.Gauge("txn.inflight", func() float64 { return float64(n.Outstanding()) })
		sub.Quantiles("latency", st.Latency)
		host := n.host
		sub.Occupancy("host.occupancy", host.Busy, host.Threads())
		sub.Gauge("host.queue_depth", func() float64 { return float64(host.QueueDepth()) })
		egress := ch.nw.Egress(n.id)
		sub.Occupancy("net.tx_occupancy", egress.Served, egress.Lanes())
		sub.Gauge("net.egress_backlog_us", func() float64 { return egress.Backlog(ch.eng.Now()).Micros() })
	}

	// Load-source series, only when a source is attached: the scope is
	// absent on closed-loop runs, keeping their telemetry exports
	// byte-identical to pre-LoadSource output.
	if src := ch.obs.Load; src != nil {
		ls := s.Sub("load")
		ls.Rate("offered_rate", func() int64 { return src.Stats().Offered })
		ls.Rate("admitted_rate", func() int64 { return src.Stats().Admitted })
		ls.Rate("completed_rate", func() int64 { return src.Stats().Completed })
		ls.Rate("rejected_rate", func() int64 { return src.Stats().Rejected })
		ls.Gauge("sessions", func() float64 { return float64(src.Stats().ActiveSessions) })
		ls.Gauge("inflight", func() float64 { return float64(src.Stats().InFlight) })
		ls.Gauge("queue_len", func() float64 { return float64(src.Stats().QueueLen) })
		ls.Gauge("queue_delay_p99_us", func() float64 { return src.Stats().QueueDelayP99.Micros() })
	}

	s.Sub("cluster").Rate("commit_rate", func() int64 { return ch.totalStats().Committed })
}
