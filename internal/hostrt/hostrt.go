// Package hostrt models host-side DPDK threads: coordinator application
// threads that initiate transactions and run execution logic, Robinhood
// worker threads that apply logged write sets (§4.2 step 7), and — for the
// RPC baselines — host RPC handler threads. Each thread is a nicrt.Poller
// over simulated time with an inbox, an outbox batched per iteration, and a
// pluggable idle-poll hook for background work.
package hostrt

import (
	"fmt"
	"math/rand"

	"xenic/internal/model"
	"xenic/internal/nicrt"
	"xenic/internal/sim"
	"xenic/internal/wire"
)

// Handler processes one message delivered to a host thread.
type Handler func(t *Thread, src int, m wire.Msg)

// Host is one server's set of host threads.
type Host struct {
	eng     *sim.Engine
	p       model.Params
	node    int
	threads []*Thread
	rng     *rand.Rand

	handler  Handler
	idle     func(t *Thread) bool
	transmit func(t *Thread, ms []wire.Msg)
	router   func(m wire.Msg) int

	// outFree holds outbox arrays handed back through Recycle, so a thread's
	// next batch need not grow a new one.
	outFree [][]wire.Msg
}

// New creates a host with n threads at the given node. seed is the cluster
// seed; the host PRNG derives from (seed, node) so distinct cluster seeds
// explore distinct random streams on every node.
func New(eng *sim.Engine, p model.Params, node, n int, seed int64) *Host {
	if n <= 0 {
		panic("hostrt: no threads")
	}
	h := &Host{
		eng: eng, p: p, node: node,
		rng: rand.New(rand.NewSource(seed*1000003 + int64(node)*104729 + 7)),
	}
	for i := 0; i < n; i++ {
		t := &Thread{host: h, id: i}
		t.poller = nicrt.NewPoller(eng, p.NICLoopIdle)
		t.poller.SetWork(t.iteration)
		h.threads = append(h.threads, t)
	}
	return h
}

// Node returns the host's node id.
func (h *Host) Node() int { return h.node }

// Threads returns the thread count.
func (h *Host) Threads() int { return len(h.threads) }

// Thread returns thread i.
func (h *Host) Thread(i int) *Thread { return h.threads[i] }

// Rand returns the host's PRNG.
func (h *Host) Rand() *rand.Rand { return h.rng }

// Busy reports the threads' summed busy time; telemetry samplers diff
// successive values to derive windowed occupancy.
func (h *Host) Busy() sim.Time {
	var b sim.Time
	for _, t := range h.threads {
		b += t.poller.Core().Served()
	}
	return b
}

// QueueDepth reports the messages queued at the host's thread inboxes right
// now. A telemetry gauge; O(threads) and read-only.
func (h *Host) QueueDepth() int {
	d := 0
	for _, t := range h.threads {
		d += len(t.in)
	}
	return d
}

// OnMessage installs the message handler.
func (h *Host) OnMessage(fn Handler) { h.handler = fn }

// OnIdle installs the per-iteration background hook (log applying, load
// generation); it reports whether it did work.
func (h *Host) OnIdle(fn func(t *Thread) bool) { h.idle = fn }

// OnTransmit installs the outbox flush function (e.g. post a PCIe packet to
// the local SmartNIC, or RDMA sends for the baselines). fn owns ms; whoever
// consumes the batch may hand the array back with Recycle.
func (h *Host) OnTransmit(fn func(t *Thread, ms []wire.Msg)) { h.transmit = fn }

// Recycle returns a transmitted batch's array to the host once its last
// message has been consumed; the caller must not touch ms afterwards.
func (h *Host) Recycle(ms []wire.Msg) {
	clear(ms)
	h.outFree = append(h.outFree, ms[:0])
}

// SetRouter installs the inbound routing function mapping a message to the
// owning thread index. Default: steer by transaction id.
func (h *Host) SetRouter(fn func(m wire.Msg) int) { h.router = fn }

// Deliver routes inbound messages (e.g. a PCIe packet from the NIC) to
// their owning threads. src is the originating node.
func (h *Host) Deliver(src int, ms []wire.Msg) {
	for _, m := range ms {
		var ti int
		if h.router != nil {
			ti = h.router(m)
		} else {
			ti = int(m.(interface{ GetTxnID() uint64 }).GetTxnID() % uint64(len(h.threads)))
		}
		t := h.threads[ti%len(h.threads)]
		t.in = append(t.in, inMsg{src: src, m: m})
		t.poller.Wake()
	}
}

// WakeAll kicks every thread (used at startup to begin load generation).
func (h *Host) WakeAll() {
	for _, t := range h.threads {
		t.poller.Wake()
	}
}

// StopThread parks thread i permanently.
func (h *Host) StopThread(i int) { h.threads[i].poller.Stop() }

type inMsg struct {
	src int
	m   wire.Msg
}

// Thread is one host core's polling loop.
type Thread struct {
	host    *Host
	id      int
	poller  *nicrt.Poller
	in      []inMsg
	inSpare []inMsg // ping-ponged with in each iteration, like the NIC queues
	out     []wire.Msg
}

// ID returns the thread index.
func (t *Thread) ID() int { return t.id }

// Host returns the owning host.
func (t *Thread) Host() *Host { return t.host }

// Node returns the node id.
func (t *Thread) Node() int { return t.host.node }

// Charge adds compute cost to the current iteration.
func (t *Thread) Charge(d sim.Time) { t.poller.Charge(d) }

// Now returns the thread's current instant.
func (t *Thread) Now() sim.Time { return t.poller.Now() }

// At schedules fn at the thread's current instant plus d.
func (t *Thread) At(d sim.Time, fn func()) { t.poller.At(d, fn) }

// Rand returns the host PRNG.
func (t *Thread) Rand() *rand.Rand { return t.host.rng }

// Send queues m on the outbox, flushed as one batch at iteration end.
func (t *Thread) Send(m wire.Msg) { t.out = append(t.out, m) }

// Deliver places m directly in this thread's inbox, bypassing the router
// (e.g. an RDMA completion owned by this thread).
func (t *Thread) Deliver(src int, m wire.Msg) {
	t.in = append(t.in, inMsg{src: src, m: m})
	t.poller.Wake()
}

// Wake schedules an iteration if the thread is parked.
func (t *Thread) Wake() { t.poller.Wake() }

// WakeFn returns Wake bound once: pass it to At to schedule a wake-up, where
// the method value t.Wake would allocate a closure per call.
func (t *Thread) WakeFn() func() { return t.poller.WakeFn() }

func (t *Thread) iteration() bool {
	did := false
	msgs := t.in
	t.in = t.inSpare[:0]
	for i, im := range msgs {
		did = true
		t.Charge(t.host.p.HostMsgProc)
		if t.host.handler == nil {
			panic(fmt.Sprintf("hostrt: node %d has no handler", t.host.node))
		}
		t.host.handler(t, im.src, im.m)
		msgs[i] = inMsg{}
	}
	t.inSpare = msgs[:0]
	if t.host.idle != nil {
		if t.host.idle(t) {
			did = true
		}
	}
	if len(t.out) > 0 {
		ms := t.out
		t.out = nil
		if k := len(t.host.outFree); k > 0 {
			t.out = t.host.outFree[k-1]
			t.host.outFree[k-1] = nil
			t.host.outFree = t.host.outFree[:k-1]
		}
		t.Charge(t.host.p.HostSendCost)
		if t.host.transmit == nil {
			panic(fmt.Sprintf("hostrt: node %d has no transmit function", t.host.node))
		}
		t.host.transmit(t, ms)
	}
	return did
}
