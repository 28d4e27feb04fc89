package core

import (
	"fmt"

	"xenic/internal/sim"
	"xenic/internal/telemetry"
	"xenic/internal/wire"
)

// registerTelemetry adds the series only Xenic has to s: per node, per-phase
// latency lanes and the NIC-side resource gauges the bottleneck analyzer
// ranks — NIC-core and DMA-engine occupancy, queue depths and backlogs,
// conflict-scheduler state, lock-table size, NIC-index cache hit rate — and
// at cluster scope the membership epoch and alive count (so availability
// arcs are visible in the series).
func (cl *Cluster) registerTelemetry(s *telemetry.Sampler) {
	if s == nil {
		return
	}
	for _, n := range cl.nodes {
		sub := s.Sub(fmt.Sprintf("node%d", n.id))
		st := &n.stats
		for ph := 0; ph < numPhases; ph++ {
			sub.Window("phase."+phase(ph).String(), st.PhaseLat[ph])
		}

		nic := n.nic
		sub.Occupancy("nic.occupancy", func() sim.Time { return nic.Utilization().TotalBusy() }, nic.Cores())
		sub.Gauge("nic.queue_depth", func() float64 { return float64(nic.QueueDepth()) })
		if sched := nic.Scheduler(); sched != nil {
			// Conflict-scheduler series, only when it is attached: the names
			// are absent on scheduler-off runs, keeping their telemetry
			// exports byte-identical to pre-scheduler output. Alongside the
			// queue/serialization view, per-reason abort rates expose how the
			// scheduler shifts the abort mix (lock/version down, shed up).
			sub.Gauge("sched.queue_depth", func() float64 { return float64(sched.QueueDepth()) })
			sub.Gauge("sched.parked", func() float64 { return float64(sched.ParkedNow()) })
			sub.Gauge("sched.tracked_keys", func() float64 { return float64(sched.TrackedKeys()) })
			sub.Rate("sched.park_rate", func() int64 { return sched.Stats().Parked })
			sub.Rate("sched.shed_rate", func() int64 { return sched.Stats().Shed })
			sub.Ratio("sched.hot_frac",
				func() int64 { return sched.Stats().HotRouted },
				func() int64 { return sched.Stats().Dispatched })
			for _, rs := range []wire.Status{wire.StatusAbortLocked,
				wire.StatusAbortVersion, wire.StatusAbortMissing,
				wire.StatusAbortTimeout, wire.StatusAbortSched} {
				rs := rs
				sub.Rate("txn.abort_rate."+rs.String(),
					func() int64 { return st.AbortReasons[rs] })
			}
		}
		dma := nic.DMA()
		sub.Occupancy("dma.occupancy", dma.Busy, 1)
		sub.Gauge("dma.backlog_us", func() float64 { return dma.Backlog(cl.Engine().Now()).Micros() })

		sub.Gauge("lock.held", func() float64 {
			v := 0
			for _, p := range n.prims {
				v += p.index.Locked()
			}
			return float64(v)
		})
		sub.Ratio("nicindex.hit_rate",
			func() int64 {
				var v int64
				for _, p := range n.prims {
					v += p.index.Stats().CacheHits
				}
				return v
			},
			func() int64 {
				var v int64
				for _, p := range n.prims {
					v += p.index.Stats().Lookups
				}
				return v
			})
	}

	cs := s.Sub("cluster")
	cs.Gauge("epoch", func() float64 { return float64(cl.view.Epoch) })
	cs.Gauge("alive", func() float64 {
		v := 0
		for _, n := range cl.nodes {
			if n.alive {
				v++
			}
		}
		return float64(v)
	})
}
