// Package nicrt implements Xenic's SmartNIC operations framework (§4.3): a
// burst-oriented polling loop on every NIC core, continuation-passing
// asynchronous DMA with per-core pending read/write vectors, per-destination
// gather lists with opportunistic aggregation into MTU-sized Ethernet frames
// and PCIe packets, and the host<->NIC packet interface.
//
// The same Poller abstraction also drives simulated host cores (DPDK
// coordinator threads, RPC handlers, Robinhood workers), so every "thread"
// in the system is a run-to-completion loop over simulated time.
package nicrt

import (
	"xenic/internal/sim"
)

// Poller models one run-to-completion core: each iteration executes the
// work function instantaneously at the iteration's start time while
// charging simulated cost; effects the work schedules happen at the
// appropriate offsets. When an iteration performs no work the core parks
// and must be Woken by an arrival.
type Poller struct {
	eng *sim.Engine
	// pickup is the mean delay between an arrival at an idle core and the
	// next loop iteration observing it (half a loop period).
	pickup sim.Time
	// work runs one iteration; it must drain input queues via the Poller's
	// owner and report whether it did anything.
	work func() bool
	// core books the busy time of every iteration (occupancy accounting).
	core *sim.Pacer

	elapsed sim.Time // cost accumulated within the current iteration
	running bool     // an iteration (or its end event) is in flight
	wake    bool     // arrival while running; rerun at iteration end
	stopped bool
	did     bool // last iteration performed work (consumed at iteration end)

	// iterateFn/endFn are the loop callbacks bound once at construction, so
	// the per-iteration schedule sites allocate nothing; wakeFn is Wake,
	// bound once for owners that schedule wake-ups (WakeFn).
	iterateFn func()
	endFn     func()
	wakeFn    func()
}

// NewPoller creates a parked poller. Callers must set the work function via
// SetWork before the first Wake.
func NewPoller(eng *sim.Engine, pickup sim.Time) *Poller {
	p := &Poller{eng: eng, pickup: pickup, core: sim.NewPacer(1)}
	p.iterateFn = p.iterate
	p.endFn = p.iterationEnd
	p.wakeFn = p.Wake
	return p
}

// SetWork installs the per-iteration work function.
func (p *Poller) SetWork(fn func() bool) { p.work = fn }

// Core exposes the core's pacer: its Served time is the core's cumulative
// busy time.
func (p *Poller) Core() *sim.Pacer { return p.core }

// Stop parks the poller permanently (simulating a crashed or disabled
// core).
func (p *Poller) Stop() { p.stopped = true }

// Stopped reports whether Stop was called.
func (p *Poller) Stopped() bool { return p.stopped }

// Now returns the core's current instant within an iteration: the
// iteration's start time plus cost charged so far.
func (p *Poller) Now() sim.Time { return p.eng.Now() + p.elapsed }

// Charge adds d of compute cost to the current iteration.
func (p *Poller) Charge(d sim.Time) {
	if d < 0 {
		panic("nicrt: negative charge")
	}
	p.elapsed += d
}

// At schedules fn at the core's current instant plus d.
func (p *Poller) At(d sim.Time, fn func()) { p.eng.At(p.Now()+d, fn) }

// WakeFn returns Wake bound once, for scheduling a wake-up (At) without
// allocating a method value per call.
func (p *Poller) WakeFn() func() { return p.wakeFn }

// Wake schedules an iteration if the core is parked. Arrivals during a
// running iteration are picked up when it finishes.
func (p *Poller) Wake() {
	if p.stopped {
		return
	}
	if p.running {
		p.wake = true
		return
	}
	p.running = true
	p.eng.At(p.eng.Now()+p.pickup, p.iterateFn)
}

func (p *Poller) iterate() {
	if p.stopped {
		p.running = false
		return
	}
	p.elapsed = 0
	p.wake = false
	p.did = p.work()
	busy := p.elapsed
	if busy > 0 {
		p.core.Reserve(p.eng.Now(), busy)
	}
	// A loop pass always takes some time even when its work is free;
	// spacing zero-cost iterations by the poll period also keeps the
	// simulation free of zero-time event livelock.
	gap := busy
	if gap <= 0 {
		gap = p.pickup
	}
	p.eng.At(p.eng.Now()+gap, p.endFn)
}

// iterationEnd runs at the iteration's finish instant and decides whether
// the loop spins again or parks.
func (p *Poller) iterationEnd() {
	if p.stopped {
		p.running = false
		return
	}
	if p.did || p.wake {
		// More work arrived (or this burst did work and queues may still
		// hold entries): run again back to back.
		p.eng.Defer(p.iterateFn)
		return
	}
	p.running = false
}
