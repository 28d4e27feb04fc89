package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// refLanes is the busy-horizon arithmetic the device models wrote inline
// before Pacer: simnet's pickLane over per-lane horizons with max(at, busy)
// starts, its cut-through ingress max(t0, busy+ser), pcie's Stall pushing
// horizons without counting them as busy, and the cumulative busy gauge.
type refLanes struct {
	busy   []Time
	served Time
}

func (r *refLanes) pickLane() int {
	best := 0
	for i := 1; i < len(r.busy); i++ {
		if r.busy[i] < r.busy[best] {
			best = i
		}
	}
	return best
}

func (r *refLanes) reserve(at, service Time) Time {
	lane := r.pickLane()
	start := at
	if r.busy[lane] > start {
		start = r.busy[lane]
	}
	r.busy[lane] = start + service
	r.served += service
	return start
}

func (r *refLanes) ingress(t0, ser Time) Time {
	lane := r.pickLane()
	arrive := t0
	if b := r.busy[lane] + ser; b > arrive {
		arrive = b
	}
	r.busy[lane] = arrive
	r.served += ser
	return arrive
}

func (r *refLanes) hold(edge Time) {
	for i := range r.busy {
		if r.busy[i] < edge {
			r.busy[i] = edge
		}
	}
}

func (r *refLanes) backlog(now Time) Time {
	b := r.busy[r.pickLane()] - now
	if b < 0 {
		return 0
	}
	return b
}

// TestPacerAgainstRef drives seeded random mixes of the four ways the device
// models use a pacer (a plain FIFO reservation, simnet's cut-through
// ingress, pcie's vector submission with its admission window read off the
// transfer horizon, and an injected stall) at 1, 2 and 3 lanes, and holds
// every start, lane horizon, backlog and served total to the inline
// arithmetic Pacer replaced. Times are coarse so lanes tie often.
func TestPacerAgainstRef(t *testing.T) {
	const queueWindow = 10 * Microsecond
	for lanes := 1; lanes <= 3; lanes++ {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(lanes)))
			p, admit := NewPacer(lanes), NewPacer(1)
			ref := &refLanes{busy: make([]Time, lanes)}
			var submitBusy Time
			var now Time
			dur := func() Time { return Time(1+rng.Intn(8)) * Microsecond }
			for op := 0; op < 500; op++ {
				now += Time(rng.Intn(4)) * Microsecond
				var got, want Time
				switch k := rng.Intn(10); {
				case k < 4:
					at := now + Time(rng.Intn(3))*Microsecond
					s := dur()
					got, want = p.Reserve(at, s), ref.reserve(at, s)
				case k < 7:
					ser := dur()
					t0 := now + ser + Time(rng.Intn(3))*Microsecond
					got, want = p.CutThrough(t0, ser), ref.ingress(t0, ser)
				case k < 9:
					gap := Time(1+rng.Intn(2)) * Microsecond
					start := admit.Reserve(max(now, p.Horizon()-queueWindow), gap)
					refStart := now
					if submitBusy > refStart {
						refStart = submitBusy
					}
					if b := ref.busy[ref.pickLane()] - queueWindow; b > refStart {
						refStart = b
					}
					submitBusy = refStart + gap
					got, want = start, refStart
					for e := rng.Intn(4); e >= 0; e-- {
						c := dur()
						got = p.Reserve(got, c) + c
						want = ref.reserve(want, c) + c
					}
				default:
					edge := now + dur()
					p.Hold(edge)
					admit.Hold(edge)
					ref.hold(edge)
					if submitBusy < edge {
						submitBusy = edge
					}
				}
				if got != want {
					t.Fatalf("lanes=%d seed=%d op %d: got %v, ref %v", lanes, seed, op, got, want)
				}
				if !slices.Equal(p.free, ref.busy) || admit.Horizon() != submitBusy {
					t.Fatalf("lanes=%d seed=%d op %d: horizons %v/%v, ref %v/%v",
						lanes, seed, op, p.free, admit.Horizon(), ref.busy, submitBusy)
				}
				if p.Backlog(now) != ref.backlog(now) || p.Served() != ref.served {
					t.Fatalf("lanes=%d seed=%d op %d: backlog %v served %v, ref %v %v",
						lanes, seed, op, p.Backlog(now), p.Served(), ref.backlog(now), ref.served)
				}
			}
		}
	}
}
