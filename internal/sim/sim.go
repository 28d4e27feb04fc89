// Package sim provides a deterministic discrete-event simulation engine.
//
// All Xenic experiments run on this engine: hosts, SmartNIC cores, PCIe DMA
// engines, RDMA NICs and Ethernet links are modeled as components that
// schedule callbacks at future points of simulated time. The clock has
// picosecond resolution so that serialization delays of small frames on
// 100Gbps links (a 64B frame lasts ~5.1ns) accumulate without rounding bias.
//
// Determinism: events firing at the same instant run in scheduling order
// (the event queue, a radix heap, keeps it by construction; see Engine), and
// all randomness used by simulations must come from PRNGs seeded through
// Engine.Rand.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Time is a point in simulated time, in picoseconds since the start of the
// run. It is also used for durations.
type Time int64

// Duration units, expressed in Time (picoseconds).
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Nanos converts t to floating-point nanoseconds.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanos())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// FromSeconds converts floating-point seconds to Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromNanos converts floating-point nanoseconds to Time.
func FromNanos(ns float64) Time { return Time(ns * float64(Nanosecond)) }

// node is one pending event in the radix heap: its time and the slab slot of
// its callback. It holds no pointer, so the collector never scans a bucket.
type node struct {
	at   Time
	slot int32
}

// payload is a scheduled callback. It carries either a plain closure (fn) or
// a monomorphic callback with its argument (fn1, arg); the latter lets hot
// paths schedule without allocating a closure per event: a package-level
// function or a method value stored once, plus a pointer-shaped argument,
// costs nothing to box.
type payload struct {
	fn  func()
	fn1 func(any)
	arg any
}

// Engine is a discrete-event simulation engine. The zero value is not usable;
// create engines with NewEngine.
//
// The queue is a monotone radix heap over event time. Nothing is scheduled
// before now, and last (the time of the last event settled) never passes
// now, so every pending event is at or after last. An event at t sits in
// bucket bits.Len64(t ^ last): bucket 0 holds the events at last, and bucket
// b > 0 those that first differ from last at bit b-1. Times are never
// negative, so 64 buckets cover them. When bucket 0 runs dry, settle moves
// last to the minimum of the lowest non-empty bucket and redistributes that
// bucket into the (empty) buckets below it.
//
// Ties need no sequence number. An event's bucket depends only on its time
// and last, so events at one instant always share a bucket. A bucket is
// refilled by a redistribution only while it is empty, and after that it
// only receives appends, in scheduling order; so every bucket is in
// scheduling order, and bucket 0, consumed from the front, runs
// same-instant events first in, first out. Callbacks live in a slab beside
// the buckets, its free slots reused last in, first out.
type Engine struct {
	now     Time
	last    Time
	buckets [64][]node
	mask    uint64 // bit b set: buckets[b] is non-empty
	head    int    // next unrun index of buckets[0]
	pending int
	slab    []payload
	free    []int32
	rng     *rand.Rand
	nRun    uint64 // events executed
	halted  bool
}

// NewEngine returns an engine whose clock starts at zero and whose PRNG is
// seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's PRNG. Components must derive all randomness from
// it (or from PRNGs seeded by it) to keep runs reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Events reports the number of events executed so far.
func (e *Engine) Events() uint64 { return e.nRun }

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now()) panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.push(t, payload{fn: fn})
}

// At1 schedules fn(arg) to run at absolute time t. It is the allocation-free
// variant of At for hot schedule sites: fn should be a function value that
// outlives the call (a package-level function or a method value stored once
// at construction) and arg should be pointer-shaped, so neither boxing nor a
// closure allocates. Semantics otherwise match At.
func (e *Engine) At1(t Time, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.push(t, payload{fn1: fn, arg: arg})
}

// push files an event at t >= now into its bucket and its callback into a
// slab slot.
func (e *Engine) push(t Time, p payload) {
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.slab[slot] = p
	} else {
		slot = int32(len(e.slab))
		e.slab = append(e.slab, p)
	}
	b := bits.Len64(uint64(t ^ e.last))
	e.buckets[b] = append(e.buckets[b], node{at: t, slot: slot})
	e.mask |= 1 << b
	e.pending++
}

// settle makes bucket 0 hold the earliest pending events if they are due by
// until, reporting whether it does. It leaves last alone when they are not:
// last must never pass the clock, or an event later scheduled between now
// and that minimum would land in a bucket above its rank.
func (e *Engine) settle(until Time) bool {
	if e.mask&1 != 0 {
		return e.last <= until
	}
	if e.mask == 0 {
		return false
	}
	i := bits.TrailingZeros64(e.mask)
	b := e.buckets[i]
	least := b[0].at
	for _, nd := range b[1:] {
		if nd.at < least {
			least = nd.at
		}
	}
	if least > until {
		return false
	}
	e.last = least
	for _, nd := range b {
		j := bits.Len64(uint64(nd.at ^ least))
		e.buckets[j] = append(e.buckets[j], nd)
		e.mask |= 1 << j
	}
	e.buckets[i] = b[:0]
	e.mask &^= 1 << i
	return true
}

// dispatch runs the first event of bucket 0, which settle has filled.
func (e *Engine) dispatch() {
	b := e.buckets[0]
	nd := b[e.head]
	if e.head++; e.head == len(b) {
		e.buckets[0] = b[:0]
		e.head = 0
		e.mask &^= 1
	}
	p := e.slab[nd.slot]
	e.slab[nd.slot] = payload{}
	e.free = append(e.free, nd.slot)
	e.pending--
	e.now = nd.at
	e.nRun++
	if p.fn1 != nil {
		p.fn1(p.arg)
	} else {
		p.fn()
	}
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Defer schedules fn to run at the current time, after all callbacks already
// scheduled for this instant.
func (e *Engine) Defer(fn func()) { e.At(e.now, fn) }

// Step executes the next pending event, advancing the clock to its time.
// It returns false if no events remain or the engine is halted.
func (e *Engine) Step() bool {
	if e.halted || !e.settle(math.MaxInt64) {
		return false
	}
	e.dispatch()
	return true
}

// Run executes events until the clock would pass `until`, no events remain,
// or Halt is called. Events scheduled exactly at `until` do run. The clock is
// left at min(until, time of last event).
func (e *Engine) Run(until Time) {
	for !e.halted && e.settle(until) {
		e.dispatch()
	}
	if !e.halted && e.now < until {
		e.now = until
	}
}

// RunAll executes events until none remain or Halt is called.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// Halt stops the engine: Run/RunAll/Step return immediately afterwards.
// Pending events remain queued; Resume allows stepping again.
func (e *Engine) Halt() { e.halted = true }

// Resume clears a previous Halt.
func (e *Engine) Resume() { e.halted = false }

// Halted reports whether Halt has been called without a matching Resume.
func (e *Engine) Halted() bool { return e.halted }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.pending }

// Ticker invokes fn every period until fn returns false. The first
// invocation happens one period from now.
func (e *Engine) Ticker(period Time, fn func() bool) {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	var tick func()
	tick = func() {
		if fn() {
			e.After(period, tick)
		}
	}
	e.After(period, tick)
}
