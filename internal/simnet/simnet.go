// Package simnet models the Ethernet fabric connecting the testbed servers:
// per-node full-duplex ports with one or two ganged links (2x50GbE LiquidIO,
// §5), cut-through switching with a fixed propagation delay, per-frame wire
// overhead, and serialization on both the sender's egress and the receiver's
// ingress so that incast workloads (e.g. the §3.4 write microbenchmark with
// 5 sources and 1 target) are bottlenecked at the receiver as on hardware.
package simnet

import (
	"fmt"

	"xenic/internal/model"
	"xenic/internal/sim"
)

// Frame is one Ethernet frame in flight. A frame carries one or more
// application messages (aggregated transmission packs many, §4.3.2);
// PayloadBytes is their total encoded size, which together with the
// per-frame overhead determines wire occupancy.
type Frame struct {
	Src, Dst     int
	PayloadBytes int
	// Flow is an opaque flow label (e.g. source core); receivers' hardware
	// flow engines steer frames to cores by it (§4.3.2).
	Flow int
	// Seq is a per-(src,dst) sequence number stamped on fault-injection
	// runs; receivers use it to discard duplicated deliveries.
	Seq uint64
	// Epoch is the sender's membership view epoch at emission time
	// (fault-injection runs only). Receivers fence: frames stamped before an
	// endpoint's latest (re)join are stale and dropped, so a healed evictee
	// cannot serve stale reads or acquire locks. Retransmissions keep the
	// original stamp — exactly the fencing semantics we want.
	Epoch int
	Msgs  []any
}

// Handler receives frames delivered to a node, at the simulated instant the
// last bit arrives.
type Handler func(f *Frame)

// port is one node's attachment: N egress and N ingress lanes.
type port struct {
	egressBusy  []sim.Time
	ingressBusy []sim.Time
	handler     Handler
	txBytes     int64
	rxBytes     int64
	txFrames    int64
	txBusy      sim.Time // cumulative egress serialization time (occupancy gauge)
}

// Network is the fabric. It is not safe for concurrent use; all access must
// happen from simulation callbacks.
type Network struct {
	eng   *sim.Engine
	p     model.Params
	ports []port

	// deliverFn is the delivery callback bound once at construction so frame
	// delivery schedules without allocating a closure per frame.
	deliverFn func(any)

	// free is the frame freelist. Frames delivered exactly once (fault-free
	// runs) are recycled by receivers via Recycle; with a fault hook
	// installed, duplicate deliveries and retransmissions alias frames, so
	// recycling is disabled.
	free []*Frame

	// Fault injection (nil on fault-free runs; see SetFault).
	fate func(src, dst int) (drop, dup bool, delay sim.Time)
	live func(node int) bool
	seq  [][]uint64 // per-(src,dst) frame sequence numbers
	retx int64      // transport retransmissions of dropped frames
	lost int64      // frames abandoned because an endpoint died
}

// Retransmission backoff for frames the fault hook drops. The model is a
// reliable transport (RoCE RC-style ARQ): the simulator knows the frame was
// lost and re-runs the transmission after a deterministic capped-exponential
// delay, re-consulting the fault hook each attempt — so a partition blocks
// frames until it heals (or an endpoint dies) rather than losing them.
const (
	retxBase = 8 * sim.Microsecond
	retxMax  = 100 * sim.Microsecond
)

func retxBackoff(attempt int) sim.Time {
	d := retxBase
	for i := 0; i < attempt && d < retxMax; i++ {
		d *= 2
	}
	if d > retxMax {
		d = retxMax
	}
	return d
}

// SetFault installs the frame-fault hook (and a liveness oracle used to
// abandon retransmissions to or from dead nodes). Must be called before any
// traffic; enables per-frame Seq stamping.
func (n *Network) SetFault(fate func(src, dst int) (drop, dup bool, delay sim.Time), live func(node int) bool) {
	n.fate = fate
	n.live = live
	n.seq = make([][]uint64, len(n.ports))
	for i := range n.seq {
		n.seq[i] = make([]uint64, len(n.ports))
	}
}

// FaultCounters reports transport-level retransmissions and abandoned
// frames on fault-injection runs.
func (n *Network) FaultCounters() (retx, lost int64) { return n.retx, n.lost }

// New creates a fabric with n node ports using parameters p.
func New(eng *sim.Engine, p model.Params, n int) *Network {
	nw := &Network{eng: eng, p: p, ports: make([]port, n)}
	for i := range nw.ports {
		nw.ports[i].egressBusy = make([]sim.Time, p.LinksPerNode)
		nw.ports[i].ingressBusy = make([]sim.Time, p.LinksPerNode)
	}
	nw.deliverFn = nw.deliver
	return nw
}

// deliver hands an arrived frame to its destination handler (the At1 target
// for frame-arrival events).
func (n *Network) deliver(arg any) {
	f := arg.(*Frame)
	h := n.ports[f.Dst].handler
	if h == nil {
		panic(fmt.Sprintf("simnet: no handler attached at node %d", f.Dst))
	}
	h(f)
}

// NewFrame returns a zeroed frame, reusing a recycled one when available.
// The returned frame's Msgs slice keeps its capacity so senders can append
// into it without reallocating.
func (n *Network) NewFrame() *Frame {
	if len(n.free) == 0 {
		return &Frame{}
	}
	f := n.free[len(n.free)-1]
	n.free = n.free[:len(n.free)-1]
	return f
}

// Recycle returns a delivered frame to the freelist. Receivers call it after
// consuming the frame's messages; the frame must not be referenced
// afterwards. On fault runs this is a no-op: retransmission and duplicate
// delivery keep frames alive past their first arrival.
func (n *Network) Recycle(f *Frame) {
	if n.fate != nil {
		return
	}
	for i := range f.Msgs {
		f.Msgs[i] = nil
	}
	*f = Frame{Msgs: f.Msgs[:0]}
	n.free = append(n.free, f)
}

// Nodes returns the number of attached ports.
func (n *Network) Nodes() int { return len(n.ports) }

// Attach installs the frame handler for node id. It must be called before
// any frame is sent to that node.
func (n *Network) Attach(id int, h Handler) { n.ports[id].handler = h }

// pickLane returns the index of the earliest-free lane.
func pickLane(busy []sim.Time) int {
	best := 0
	for i := 1; i < len(busy); i++ {
		if busy[i] < busy[best] {
			best = i
		}
	}
	return best
}

// Send transmits f from f.Src to f.Dst. The frame is serialized on the
// sender's least-busy egress lane, propagates, is serialized on the
// receiver's least-busy ingress lane, and is delivered to the destination
// handler when its last bit arrives. Send panics on malformed frames so
// protocol bugs surface immediately.
func (n *Network) Send(f *Frame) {
	if f.Src == f.Dst {
		panic(fmt.Sprintf("simnet: self-send at node %d", f.Src))
	}
	if f.Dst < 0 || f.Dst >= len(n.ports) {
		panic(fmt.Sprintf("simnet: bad destination %d", f.Dst))
	}
	if f.PayloadBytes <= 0 {
		panic("simnet: frame with non-positive payload")
	}
	if f.PayloadBytes > n.p.MTU {
		panic(fmt.Sprintf("simnet: frame payload %dB exceeds MTU %dB", f.PayloadBytes, n.p.MTU))
	}
	if n.fate != nil {
		n.seq[f.Src][f.Dst]++
		f.Seq = n.seq[f.Src][f.Dst]
	}
	n.transmit(f, 0)
}

// transmit runs one transmission attempt of f (attempt > 0 marks transport
// retransmissions of frames the fault hook dropped). Each attempt charges
// the sender's egress lane — retransmitted frames occupy the wire again.
func (n *Network) transmit(f *Frame, attempt int) {
	src, dst := &n.ports[f.Src], &n.ports[f.Dst]
	now := n.eng.Now()
	if n.fate != nil && n.live != nil && (!n.live(f.Src) || !n.live(f.Dst)) {
		// A dead endpoint stops retransmitting (or acking); the transport
		// abandons the frame.
		n.lost++
		return
	}
	ser := n.p.SerializationDelay(n.p.WireBytes(f.PayloadBytes))

	lane := pickLane(src.egressBusy)
	start := now
	if src.egressBusy[lane] > start {
		start = src.egressBusy[lane]
	}
	egressDone := start + ser
	src.egressBusy[lane] = egressDone
	src.txBytes += int64(n.p.WireBytes(f.PayloadBytes))
	src.txFrames++
	src.txBusy += ser

	var dupFrame bool
	var extraDelay sim.Time
	if n.fate != nil {
		var drop bool
		drop, dupFrame, extraDelay = n.fate(f.Src, f.Dst)
		if drop {
			n.retx++
			n.eng.At(egressDone+retxBackoff(attempt), func() { n.transmit(f, attempt+1) })
			return
		}
	}

	inLane := pickLane(dst.ingressBusy)
	arrive := egressDone + n.p.PropDelay + extraDelay
	if b := dst.ingressBusy[inLane] + ser; b > arrive {
		arrive = b
	}
	dst.ingressBusy[inLane] = arrive
	dst.rxBytes += int64(n.p.WireBytes(f.PayloadBytes))

	if dst.handler == nil {
		panic(fmt.Sprintf("simnet: no handler attached at node %d", f.Dst))
	}
	n.eng.At1(arrive, n.deliverFn, f)
	if dupFrame {
		// Duplicate delivery of the same frame; receivers suppress it by Seq.
		n.eng.At1(arrive, n.deliverFn, f)
	}
}

// TxBytes reports total wire bytes transmitted by node id.
func (n *Network) TxBytes(id int) int64 { return n.ports[id].txBytes }

// RxBytes reports total wire bytes received by node id.
func (n *Network) RxBytes(id int) int64 { return n.ports[id].rxBytes }

// TxFrames reports total frames transmitted by node id.
func (n *Network) TxFrames(id int) int64 { return n.ports[id].txFrames }

// TxBusy reports node id's cumulative egress serialization time across its
// lanes (retransmitted frames occupy the wire again and count again);
// telemetry samplers diff successive values to derive windowed link
// utilization.
func (n *Network) TxBusy(id int) sim.Time { return n.ports[id].txBusy }

// Lanes reports the number of egress lanes per port.
func (n *Network) Lanes() int { return n.p.LinksPerNode }

// EgressBacklog reports how far beyond now the node's least-busy egress lane
// is committed; runtimes use it for backpressure.
func (n *Network) EgressBacklog(id int) sim.Time {
	lane := pickLane(n.ports[id].egressBusy)
	b := n.ports[id].egressBusy[lane] - n.eng.Now()
	if b < 0 {
		return 0
	}
	return b
}
