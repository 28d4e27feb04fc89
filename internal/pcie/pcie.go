// Package pcie models the LiquidIO's PCIe DMA engine as characterized in
// §3.5 of the paper: 8 hardware request queues, vectored submissions of up
// to 15 reads or writes, ~190ns submission cost, completion latencies of up
// to 1295ns (read) / 570ns (write), and an engine-wide hardware maximum of
// 8.7M vector submissions per second. Completion is signalled by a status
// write that the NIC runtime polls (§4.3.1); here the engine invokes a
// callback at the simulated completion instant and the runtime decides when
// its polling loop observes it.
package pcie

import (
	"fmt"

	"xenic/internal/model"
	"xenic/internal/sim"
)

// Vector is one vectored DMA submission: up to DMAVectorMax same-direction
// host-memory operations plus a completion callback.
type Vector struct {
	Write    bool
	Sizes    []int  // element sizes in bytes
	Complete func() // runs when the completion status byte lands
	// Failed, when non-nil, runs instead of Complete if the fault hook
	// declares this vector's completion an error (the submitter retries).
	// Vectors without a Failed callback never see injected errors.
	Failed func()
}

// Engine is one SmartNIC's DMA engine. Not safe for concurrent use; all
// access happens from simulation callbacks.
type Engine struct {
	eng *sim.Engine
	p   model.Params

	submitBusy  sim.Time // engine-wide vector admission (DMAEngineRate)
	elementBusy sim.Time // engine-wide element/bandwidth occupancy
	busy        sim.Time // cumulative element transfer time (occupancy gauge)

	submissions int64
	elements    int64
	bytes       int64
	readBytes   int64
	writeBytes  int64

	// faultHook, when set, is consulted at each completion of a vector that
	// has a Failed callback; returning true fails the vector.
	faultHook func() bool
	failures  int64

	// fireFn is the completion callback bound once at construction, so each
	// completion event schedules without allocating a closure (the *Vector
	// rides as the event argument).
	fireFn func(any)
}

// SetFaultHook installs the completion-error decision hook (fault runs).
func (d *Engine) SetFaultHook(fn func() bool) { d.faultHook = fn }

// Stall freezes the engine for dur: admission and element cursors are
// pushed past now+dur, so in-flight and subsequent work completes late.
func (d *Engine) Stall(dur sim.Time) {
	edge := d.eng.Now() + dur
	if d.submitBusy < edge {
		d.submitBusy = edge
	}
	if d.elementBusy < edge {
		d.elementBusy = edge
	}
}

// New returns a DMA engine using parameters p.
func New(eng *sim.Engine, p model.Params) *Engine {
	d := &Engine{eng: eng, p: p}
	d.fireFn = d.fire
	return d
}

// fire runs a vector's completion (or its injected failure) at the
// simulated completion instant.
func (d *Engine) fire(arg any) {
	v := arg.(*Vector)
	if v.Failed != nil && d.faultHook != nil && d.faultHook() {
		d.failures++
		v.Failed()
		return
	}
	v.Complete()
}

// elementCost is the engine occupancy of one element: small elements are
// bounded by the element rate, large ones by PCIe bandwidth.
func (d *Engine) elementCost(bytes int) sim.Time {
	rate := sim.Time(1e12 / d.p.DMAElementRate)
	bw := sim.Time(float64(bytes) / d.p.PCIeBandwidth * 1e12)
	if bw > rate {
		return bw
	}
	return rate
}

// Submit enqueues v. queue selects one of the hardware queues (0..DMAQueues-1)
// and exists for interface fidelity and stats; the throughput caps measured
// in §3.5 are engine-wide. The caller is responsible for charging the
// NIC-core submission cost (amortized DMASubmit) to the submitting core.
func (d *Engine) Submit(queue int, v *Vector) {
	if queue < 0 || queue >= d.p.DMAQueues {
		panic(fmt.Sprintf("pcie: bad queue %d", queue))
	}
	if len(v.Sizes) == 0 || len(v.Sizes) > d.p.DMAVectorMax {
		panic(fmt.Sprintf("pcie: vector of %d elements (max %d)", len(v.Sizes), d.p.DMAVectorMax))
	}
	now := d.eng.Now()

	// Vector admission, capped at DMAEngineRate submissions/second. The
	// hardware queues have finite depth: admission also stalls when the
	// engine has more than queueWindow of element work outstanding, so a
	// saturated engine backpressures submitters instead of buffering
	// unboundedly.
	const queueWindow = 10 * sim.Microsecond
	gap := sim.Time(1e12 / d.p.DMAEngineRate)
	start := now
	if d.submitBusy > start {
		start = d.submitBusy
	}
	if b := d.elementBusy - queueWindow; b > start {
		start = b
	}
	d.submitBusy = start + gap

	// Element transfer occupancy. Elements of one vector proceed through
	// the engine back to back; a full vector does not lengthen the
	// per-element completion latency (§3.5), only the shared occupancy.
	finish := start
	for _, sz := range v.Sizes {
		if sz <= 0 {
			panic("pcie: non-positive element size")
		}
		c := d.elementCost(sz)
		if d.elementBusy > finish {
			finish = d.elementBusy
		}
		finish += c
		d.elementBusy = finish
		d.busy += c
		d.elements++
		d.bytes += int64(sz)
		if v.Write {
			d.writeBytes += int64(sz)
		} else {
			d.readBytes += int64(sz)
		}
	}
	d.submissions++

	lat := d.p.DMAWriteLatency
	if !v.Write {
		lat = d.p.DMAReadLatency
	}
	if v.Complete != nil {
		d.eng.At1(finish+lat, d.fireFn, v)
	}
}

// Busy reports cumulative element transfer occupancy; telemetry samplers
// diff successive values to derive windowed DMA-engine utilization. Injected
// stalls push the busy horizons without accumulating here, so utilization
// reflects transferred work, not injected dead time.
func (d *Engine) Busy() sim.Time { return d.busy }

// Backlog reports how far beyond now the engine's element cursor is
// committed: the time a newly-submitted element would wait behind work
// already admitted. 0 when the engine is caught up.
func (d *Engine) Backlog(now sim.Time) sim.Time {
	b := d.elementBusy - now
	if b < 0 {
		return 0
	}
	return b
}

// Submissions reports total vectors submitted.
func (d *Engine) Submissions() int64 { return d.submissions }

// Elements reports total elements transferred.
func (d *Engine) Elements() int64 { return d.elements }

// Bytes reports total payload bytes moved over PCIe by DMA.
func (d *Engine) Bytes() int64 { return d.bytes }

// Snapshot renders the engine counters for the stats registry.
func (d *Engine) Snapshot() map[string]any {
	return map[string]any{
		"submissions": d.submissions,
		"elements":    d.elements,
		"bytes":       d.bytes,
		"read_bytes":  d.readBytes,
		"write_bytes": d.writeBytes,
		"failures":    d.failures,
	}
}
