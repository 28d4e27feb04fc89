package sim

// Pacer is one capacity-limited FIFO resource of N identical lanes: a DMA
// engine's admission or transfer stage, a NIC's verb pipeline, a port's
// links, a core. Each lane is a busy horizon, the instant it next falls
// free; Reserve books service on the earliest-free lane. Every modelled
// capacity in the simulator is a Pacer, so occupancy and backlog read the
// same way on every device. Not safe for concurrent use.
type Pacer struct {
	free   []Time // per-lane busy horizon
	served Time   // cumulative reserved service time
}

// NewPacer returns an idle pacer of lanes lanes; lanes must be at least 1.
func NewPacer(lanes int) *Pacer { return &Pacer{free: make([]Time, lanes)} }

// lane returns the index of the earliest-free lane, the lowest on a tie.
func (p *Pacer) lane() int {
	best := 0
	for i := 1; i < len(p.free); i++ {
		if p.free[i] < p.free[best] {
			best = i
		}
	}
	return best
}

// Reserve books service on the earliest-free lane no earlier than at and
// returns the instant the service starts; the lane is busy until start +
// service.
func (p *Pacer) Reserve(at, service Time) (start Time) {
	i := p.lane()
	start = max(at, p.free[i])
	p.free[i] = start + service
	p.served += service
	return start
}

// CutThrough books service on the earliest-free lane so that it ends no
// sooner than end and no sooner than service after the lane frees (a
// cut-through stage: the last bit cannot leave before it arrives), and
// returns the instant the service ends.
func (p *Pacer) CutThrough(end, service Time) Time {
	return p.Reserve(end-service, service) + service
}

// Hold pushes every lane's horizon to at least edge (an injected stall).
// Held time is dead time: it is not counted as served.
func (p *Pacer) Hold(edge Time) {
	for i, f := range p.free {
		p.free[i] = max(f, edge)
	}
}

// Horizon reports the earliest-free lane's horizon: the first instant a new
// reservation could start.
func (p *Pacer) Horizon() Time { return p.free[p.lane()] }

// Backlog reports how far beyond now the earliest-free lane is committed:
// the time a reservation made now would wait. 0 when a lane is idle.
func (p *Pacer) Backlog(now Time) Time { return max(p.Horizon()-now, 0) }

// Served reports the cumulative service reserved across all lanes;
// telemetry samplers diff successive values to derive windowed occupancy.
func (p *Pacer) Served() Time { return p.served }

// Lanes reports the number of lanes.
func (p *Pacer) Lanes() int { return len(p.free) }
