package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// refEvent and refQueue are the binary heap the engine used before its radix
// heap: a min-heap ordered by (at, seq), seq a strictly increasing
// scheduling number. refEngine drives it with the engine's public semantics,
// so TestEngineAgainstRef can hold the radix heap to the order it replaced.
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
	fn1 func(any)
	arg any
}

type refQueue []refEvent

func (h refQueue) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *refQueue) push(ev refEvent) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *refQueue) pop() refEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = refEvent{}
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n && s.less(r, l) {
			child = r
		}
		if !s.less(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return top
}

type refEngine struct {
	now    Time
	seq    uint64
	pq     refQueue
	halted bool
}

func (e *refEngine) Now() Time { return e.now }

func (e *refEngine) At(t Time, fn func()) {
	if t < e.now {
		panic("ref: scheduling in the past")
	}
	e.seq++
	e.pq.push(refEvent{at: t, seq: e.seq, fn: fn})
}

func (e *refEngine) At1(t Time, fn func(any), arg any) {
	if t < e.now {
		panic("ref: scheduling in the past")
	}
	e.seq++
	e.pq.push(refEvent{at: t, seq: e.seq, fn1: fn, arg: arg})
}

func (e *refEngine) Defer(fn func()) { e.At(e.now, fn) }

func (e *refEngine) run(ev refEvent) {
	e.now = ev.at
	if ev.fn1 != nil {
		ev.fn1(ev.arg)
	} else {
		ev.fn()
	}
}

func (e *refEngine) Step() bool {
	if e.halted || len(e.pq) == 0 {
		return false
	}
	e.run(e.pq.pop())
	return true
}

func (e *refEngine) Run(until Time) {
	for !e.halted && len(e.pq) > 0 && e.pq[0].at <= until {
		e.run(e.pq.pop())
	}
	if !e.halted && e.now < until {
		e.now = until
	}
}

func (e *refEngine) Halt()        { e.halted = true }
func (e *refEngine) Resume()      { e.halted = false }
func (e *refEngine) Halted() bool { return e.halted }
func (e *refEngine) Pending() int { return len(e.pq) }

// next and last return the earliest and the latest pending time.
func (e *refEngine) next() (Time, bool) {
	if len(e.pq) == 0 {
		return 0, false
	}
	return e.pq[0].at, true
}

func (e *refEngine) last() Time {
	var t Time
	for _, ev := range e.pq {
		t = max(t, ev.at)
	}
	return t
}

// queue is what the oracle calls on both engines.
type queue interface {
	Now() Time
	At(Time, func())
	At1(Time, func(any), any)
	Defer(func())
	Step() bool
	Run(Time)
	Halt()
	Resume()
	Halted() bool
	Pending() int
}

// fired is one callback as a side of the oracle saw it run.
type fired struct {
	id      int
	now     Time
	pending int
}

// side runs one engine through the oracle's program. Callbacks draw their
// follow-up work from the side's own PRNG, seeded alike on both sides, so
// the two sides schedule the same program exactly as long as their
// callbacks run in the same order.
type side struct {
	q    queue
	rng  *rand.Rand
	ids  int
	log  []fired
	fire func(any)
}

func newSide(q queue, seed int64) *side {
	s := &side{q: q, rng: rand.New(rand.NewSource(seed))}
	s.fire = func(arg any) { s.run(arg.(int)) }
	return s
}

// delta draws a scheduling distance: ties at now, the smallest step, the
// model's common latencies, and distances beyond 2^40 ps that land in high
// buckets.
func (s *side) delta() Time {
	switch s.rng.Intn(7) {
	case 0:
		return 0
	case 1:
		return Picosecond
	case 2:
		return 80 * Nanosecond
	case 3:
		return Microsecond
	case 4:
		return 64 * Microsecond
	case 5:
		return 1<<40 + Time(s.rng.Int63n(1<<40))
	default:
		return Time(s.rng.Int63n(int64(64 * Microsecond)))
	}
}

// schedule files one callback at t, through At or At1.
func (s *side) schedule(t Time) {
	id := s.ids
	s.ids++
	if s.rng.Intn(2) == 0 {
		s.q.At(t, func() { s.run(id) })
	} else {
		s.q.At1(t, s.fire, id)
	}
}

// run is every callback's body: it records what it saw, then may schedule
// a follow-up, start a Defer chain, or halt the engine.
func (s *side) run(id int) {
	s.log = append(s.log, fired{id: id, now: s.q.Now(), pending: s.q.Pending()})
	switch r := s.rng.Intn(20); {
	case r < 6:
		s.schedule(s.q.Now() + s.delta())
	case r < 10:
		next := s.ids
		s.ids++
		s.q.Defer(func() { s.run(next) })
	case r == 10:
		s.q.Halt()
	}
}

// TestEngineAgainstRef runs seeded random programs on the engine and on the
// binary heap it replaced, in lockstep, and requires the same callbacks in
// the same order, each seeing the same Now() and Pending(). The programs mix
// At and At1 at now and at short, long and very long distances, Defer chains
// from callbacks, Halt/Resume, Step, and Run(until) with until before,
// between and after the pending events — each Run followed by an At between
// now and the next pending event, which lands wrong if settle ever moves its
// cursor past the clock.
func TestEngineAgainstRef(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ref := &refEngine{}
		a, b := newSide(NewEngine(1), seed), newSide(ref, seed)
		drive := rand.New(rand.NewSource(-seed))
		for op := 0; op < 400; op++ {
			desc := ""
			switch drive.Intn(6) {
			case 0:
				n := 1 + drive.Intn(8)
				desc = fmt.Sprintf("schedule %d", n)
				for i := 0; i < n; i++ {
					for _, s := range []*side{a, b} {
						s.schedule(s.q.Now() + s.delta())
					}
				}
			case 1:
				desc = "step"
				if ga, gb := a.q.Step(), b.q.Step(); ga != gb {
					t.Fatalf("seed %d op %d: Step() = %v, ref %v", seed, op, ga, gb)
				}
			case 2, 3:
				until := ref.Now()
				if next, ok := ref.next(); ok {
					switch drive.Intn(4) {
					case 0: // before the next pending event
						until += Time(drive.Int63n(int64(next-ref.Now()) + 1))
						if until == next && next > ref.Now() {
							until--
						}
					case 1: // exactly at it
						until = next
					case 2: // between pending events
						until = next + Time(drive.Int63n(int64(64*Microsecond)))
					default: // after all of them
						until = ref.last() + 1
					}
				} else {
					until += Time(drive.Int63n(int64(Microsecond)))
				}
				desc = fmt.Sprintf("run until %d", until)
				a.q.Run(until)
				b.q.Run(until)
				// The trap: an event between the clock and the next pending one.
				at := ref.Now()
				if next, ok := ref.next(); ok && next > at {
					at += Time(drive.Int63n(int64(next - at)))
				}
				a.schedule(at)
				b.schedule(at)
			case 4:
				desc = "resume"
				a.q.Resume()
				b.q.Resume()
			case 5:
				desc = "defer"
				for _, s := range []*side{a, b} {
					next := s.ids
					s.ids++
					s.q.Defer(func() { s.run(next) })
				}
			}
			compareSides(t, fmt.Sprintf("seed %d op %d (%s)", seed, op, desc), a, b)
		}
		a.q.Resume()
		b.q.Resume()
		for a.q.Step() || a.q.Halted() {
			a.q.Resume()
		}
		for b.q.Step() || b.q.Halted() {
			b.q.Resume()
		}
		compareSides(t, fmt.Sprintf("seed %d drained", seed), a, b)
		if len(a.log) < 200 {
			t.Fatalf("seed %d: only %d callbacks ran", seed, len(a.log))
		}
	}
}

func compareSides(t *testing.T, where string, a, b *side) {
	t.Helper()
	if a.q.Now() != b.q.Now() || a.q.Pending() != b.q.Pending() || a.q.Halted() != b.q.Halted() {
		t.Fatalf("%s: now %d pending %d halted %v, ref now %d pending %d halted %v", where,
			a.q.Now(), a.q.Pending(), a.q.Halted(), b.q.Now(), b.q.Pending(), b.q.Halted())
	}
	if len(a.log) != len(b.log) {
		t.Fatalf("%s: %d callbacks ran, ref %d", where, len(a.log), len(b.log))
	}
	for i := range a.log {
		if a.log[i] != b.log[i] {
			t.Fatalf("%s: callback %d is %+v, ref %+v", where, i, a.log[i], b.log[i])
		}
	}
}
