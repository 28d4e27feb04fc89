package core

import (
	"fmt"

	"xenic/internal/telemetry"
)

// registerTelemetry adds the series only Xenic has to s: per node, per-phase
// latency lanes and the NIC-side resource gauges the bottleneck analyzer
// ranks — NIC-core and DMA-engine occupancy, queue depths and backlogs,
// lock-table size, NIC-index cache hit rate — and at cluster scope the
// membership epoch and alive count (so availability arcs are visible in the
// series).
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
		sub.Occupancy("nic.occupancy", nic.Busy, nic.Cores())
		sub.Gauge("nic.queue_depth", func() float64 { return float64(nic.QueueDepth()) })
		dma := nic.DMA().Transfer()
		sub.Occupancy("dma.occupancy", dma.Served, dma.Lanes())
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
