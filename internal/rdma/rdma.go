// Package rdma models the Mellanox CX5 RDMA NIC used by the baseline
// systems (DrTM+H, DrTM+H-NC, FaSST, DrTM+R): one-sided READ / WRITE /
// ATOMIC verbs handled entirely by NIC hardware, and two-sided SEND/RECV
// message passing whose receive path consumes host CPU (§2.1).
//
// Timing follows the §3 characterization: one-sided verbs complete in
// ~3.5us for 256B payloads (§3.2), and small-verb throughput is capped at
// 13.5-15Mops/s per NIC even with doorbell batching (§3.4). Because the
// simulation is single-address-space, one-sided verbs take a closure that
// runs at the simulated instant the target NIC touches host memory — this
// is how baseline protocols read objects and CAS lock words "without
// involving the remote CPU".
//
// Each verb is one record, from issue to completion: the request that
// crosses the fabric also carries the response back and is the Completion
// the issuing thread runs, and its schedule sites are method values bound
// when the record is first built. The initiator NIC keeps used records on a
// free list, so a verb whose callbacks the caller built once allocates
// nothing. Fault mode (SetFaultTimeout) reuses no record.
package rdma

import (
	"fmt"

	"xenic/internal/hostrt"
	"xenic/internal/model"
	"xenic/internal/sim"
	"xenic/internal/simnet"
	"xenic/internal/wire"
)

// verbHeader approximates RoCE/IB transport headers beyond the Ethernet
// frame overhead already charged by the fabric.
const verbHeader = 30

// Completion is delivered into a host thread's inbox when a verb finishes;
// the thread runs Fn during its polling loop, charging completion-handling
// cost like any other message. It implements wire.Msg but is never
// marshaled.
type Completion struct {
	wire.Header
	Fn func()
}

// Type implements wire.Msg.
func (c *Completion) Type() wire.Type { return wire.TInvalid }

// WireSize implements wire.Msg; completions never cross the wire.
func (c *Completion) WireSize() int { return 0 }

// Marshal implements wire.Msg; completions never cross the wire.
func (c *Completion) Marshal(b []byte) []byte {
	panic("rdma: completion marshaled")
}

// kind distinguishes verb requests on the wire.
type kind uint8

const (
	kRead kind = iota
	kWrite
	kAtomic
	kSend
)

// request is one verb, from the initiator's issue to its completion: it
// rides the fabric to the target NIC, carries the target's response back
// (resp) and is delivered to the issuing thread as its Completion (comp).
// The initiator NIC owns it: verbs take records from NIC.reqFree, and a
// record goes back at one place per verb kind — after the Completion's Fn
// returned (READ, WRITE, ATOMIC), or after the host delivery at the target
// (SEND). Under SetFaultTimeout no record is reused, because retransmission,
// outstanding and duplicate requests can still hold one.
type request struct {
	kind    kind
	payload int // write payload or read length

	// The caller's callbacks, one of each pair per verb. sample0 (Read, may
	// be nil) and sampleN (ReadDyn, returns the response size) run at the
	// target-NIC host-memory access instant, and so do apply0 (Write, may be
	// nil) and applyB (Atomic, whose result reaches doneB). done0 and doneB
	// run on the issuing thread.
	sample0 func()
	sampleN func() int
	apply0  func()
	applyB  func() bool
	done0   func()
	doneB   func(ok bool)
	msg     wire.Msg // two-sided SEND payload

	owner  *NIC // the initiator
	target *NIC // the NIC executing the verb, set on arrival
	thread *hostrt.Thread

	// id is a per-initiator sequence number; under fault injection the
	// target suppresses re-executions and the initiator matches responses
	// to outstanding requests by it.
	id        uint64
	dst       int
	wireBytes int

	resp response
	comp Completion

	// The record's schedule sites, bound once when it is built (comp.Fn is
	// the fourth, finish).
	issueFn, atTargetFn, completeFn func()
}

// response rides back to the initiator NIC; its size is charged on the
// wire, not carried.
type response struct {
	ok  bool
	req *request
}

// Stats counts verbs by type, plus fault-mode transport events.
type Stats struct {
	Reads, Writes, Atomics, Sends int64
	BytesOut                      int64
	// Fault-mode counters: RC-transport timeouts that retransmitted a verb,
	// and duplicate requests/responses suppressed by sequence matching.
	VerbTimeouts, DupRequests, DupResponses int64
}

// NIC is one server's RDMA NIC.
type NIC struct {
	eng  *sim.Engine
	p    model.Params
	node int
	nw   *simnet.Network
	host *hostrt.Host

	issue *sim.Pacer // initiator-side verb pacing (doorbell-batched cap)
	proc  *sim.Pacer // target-side verb pacing

	// Fault-mode state (nil/zero unless SetFaultTimeout was called): the
	// verbs' RC transport times out one-sided requests and retransmits them
	// with capped exponential backoff; the target deduplicates executions
	// by request id and the initiator matches responses to outstanding
	// requests so no verb side effect runs twice.
	verbTimeout sim.Time
	nextID      uint64
	outstanding map[uint64]*request
	seen        []map[uint64]struct{} // executed request ids, per source
	maxID       []uint64

	reqFree []*request  // verb records to reuse (never under fault mode)
	sendBuf [1]wire.Msg // a SEND's delivery to the host

	stats Stats
}

// New attaches an RDMA NIC for node to the fabric. host receives two-sided
// SENDs and verb completions.
func New(eng *sim.Engine, p model.Params, nw *simnet.Network, node int, host *hostrt.Host) *NIC {
	n := &NIC{eng: eng, p: p, node: node, nw: nw, host: host, issue: sim.NewPacer(1), proc: sim.NewPacer(1)}
	nw.Attach(node, n.onFrame)
	return n
}

// Node returns the NIC's node id.
func (n *NIC) Node() int { return n.node }

// SetFaultTimeout enables fault-mode operation with verb timeout d: the NIC
// deduplicates requests and responses and retransmits timed-out one-sided
// verbs with capped exponential backoff (doubling from d, capped at 8d).
// Two-sided SENDs are never retransmitted — the fabric's reliable transport
// delivers them exactly once.
func (n *NIC) SetFaultTimeout(d sim.Time) {
	n.verbTimeout = d
	n.outstanding = map[uint64]*request{}
	n.seen = make([]map[uint64]struct{}, n.nw.Nodes())
	n.maxID = make([]uint64, n.nw.Nodes())
}

// Stats returns a copy of the verb counters.
func (n *NIC) Stats() Stats { return n.stats }

// gap is the minimum inter-verb spacing from the small-verb rate cap.
func (n *NIC) gap() sim.Time { return sim.Time(1e12 / n.p.RDMAMsgRate) }

// newRequest takes a verb record of kind k from the free list, or builds one.
func (n *NIC) newRequest(k kind) *request {
	var r *request
	if last := len(n.reqFree) - 1; last >= 0 {
		r = n.reqFree[last]
		n.reqFree[last] = nil
		n.reqFree = n.reqFree[:last]
	} else {
		r = &request{owner: n}
		r.resp.req = r
		r.issueFn, r.atTargetFn, r.completeFn = r.issue, r.atTarget, r.complete
		r.comp.Fn = r.finish
	}
	r.kind = k
	r.payload = 0
	return r
}

// release returns r to its initiator's free list once nothing can still
// hold it, dropping the caller's callbacks and message.
func (r *request) release() {
	n := r.owner
	if n.verbTimeout > 0 {
		return
	}
	r.sample0, r.sampleN, r.apply0, r.applyB, r.done0, r.doneB = nil, nil, nil, nil, nil, nil
	r.msg, r.target, r.thread = nil, nil, nil
	n.reqFree = append(n.reqFree, r)
}

// Read issues a one-sided READ of bytes from dst's host memory. sample runs
// at the target access instant (so the caller snapshots remote state);
// done is delivered to the issuing thread's inbox afterwards.
func (n *NIC) Read(t *hostrt.Thread, dst, bytes int, sample func(), done func()) {
	n.stats.Reads++
	r := n.newRequest(kRead)
	r.payload, r.sample0, r.done0 = bytes, sample, done
	n.verb(t, dst, r)
}

// ReadDyn issues a one-sided READ whose response size is determined at the
// target access instant (sample returns the byte count — e.g. the object
// found in a hash bucket). done is delivered to the issuing thread.
func (n *NIC) ReadDyn(t *hostrt.Thread, dst int, sample func() int, done func()) {
	n.stats.Reads++
	r := n.newRequest(kRead)
	r.sampleN, r.done0 = sample, done
	n.verb(t, dst, r)
}

// Write issues a one-sided WRITE of bytes into dst's host memory. apply
// runs at the target access instant; done is delivered after the ack.
func (n *NIC) Write(t *hostrt.Thread, dst, bytes int, apply func(), done func()) {
	n.stats.Writes++
	r := n.newRequest(kWrite)
	r.payload, r.apply0, r.done0 = bytes, apply, done
	n.verb(t, dst, r)
}

// Atomic issues a one-sided compare-and-swap style verb; apply runs at the
// target access instant and its result reaches done. DrTM+R uses this for
// remote locking.
func (n *NIC) Atomic(t *hostrt.Thread, dst int, apply func() bool, done func(ok bool)) {
	n.stats.Atomics++
	r := n.newRequest(kAtomic)
	r.payload, r.applyB, r.doneB = 8, apply, done
	n.verb(t, dst, r)
}

// Send issues a two-sided SEND delivering m into dst's host inbox (FaSST
// RPCs). No completion is delivered to the sender; RPC responses are
// application-level Sends in the other direction.
func (n *NIC) Send(t *hostrt.Thread, dst int, m wire.Msg) {
	n.stats.Sends++
	r := n.newRequest(kSend)
	r.payload, r.msg = m.WireSize(), m
	n.verb(t, dst, r)
}

func (n *NIC) verb(t *hostrt.Thread, dst int, r *request) {
	if dst == n.node {
		panic("rdma: verb to self")
	}
	p := n.p
	t.Charge(p.RDMAIssue)
	r.thread = t
	n.nextID++
	r.id = n.nextID
	r.dst = dst
	start := n.issue.Reserve(t.Now(), n.gap())
	wireBytes := verbHeader
	if r.kind == kWrite || r.kind == kSend {
		wireBytes += r.payload
	}
	r.wireBytes = wireBytes
	n.stats.BytesOut += int64(wireBytes)
	n.eng.At(start+p.RDMANICProc, r.issueFn)
}

// issue puts r on the wire once the initiator NIC has processed it.
func (r *request) issue() {
	n := r.owner
	n.sendFrames(r.dst, r.wireBytes, r)
	if n.verbTimeout > 0 && r.kind != kSend {
		n.outstanding[r.id] = r
		n.armVerbTimer(r, 0)
	}
}

// armVerbTimer retransmits r if no response arrived within the timeout
// doubled attempt times, capped at 8x the base timeout. The fabric's reliable
// transport guarantees eventual delivery between live endpoints, so the
// timer only fires on long tails (fault delays, transport backoff); the
// target suppresses duplicate executions by request id.
func (n *NIC) armVerbTimer(r *request, attempt int) {
	n.eng.After(sim.Doubled(n.verbTimeout, 8*n.verbTimeout, attempt), func() {
		if _, ok := n.outstanding[r.id]; !ok {
			return
		}
		n.stats.VerbTimeouts++
		n.stats.BytesOut += int64(r.wireBytes)
		n.sendFrames(r.dst, r.wireBytes, r)
		n.armVerbTimer(r, attempt+1)
	})
}

// sendFrames transmits bytes to dst, fragmenting at the MTU; the payload
// object rides the final fragment (last-bit delivery).
func (n *NIC) sendFrames(dst, bytes int, payload any) {
	for bytes > n.p.MTU {
		frag := n.nw.NewFrame()
		frag.Src, frag.Dst, frag.PayloadBytes, frag.Flow = n.node, dst, n.p.MTU, n.node
		n.nw.Send(frag)
		bytes -= n.p.MTU
	}
	f := n.nw.NewFrame()
	f.Src, f.Dst, f.PayloadBytes, f.Flow = n.node, dst, bytes, n.node
	if payload != nil {
		f.Msgs = append(f.Msgs, payload)
	}
	n.nw.Send(f)
}

// onFrame handles arriving verb requests and responses at NIC hardware.
func (n *NIC) onFrame(f *simnet.Frame) {
	for _, raw := range f.Msgs {
		switch v := raw.(type) {
		case *request:
			n.handleRequest(v)
		case *response:
			n.handleResponse(v)
		default:
			panic(fmt.Sprintf("rdma: unexpected frame content %T", raw))
		}
	}
	n.nw.Recycle(f)
}

func (n *NIC) handleRequest(r *request) {
	if n.seen != nil && n.dupRequest(r) {
		n.stats.DupRequests++
		return
	}
	p := n.p
	at := n.proc.Reserve(n.eng.Now(), n.gap()) + p.RDMANICProc
	switch r.kind {
	case kSend, kWrite:
		at += p.RDMAHostWrite
	case kRead:
		at += p.RDMAHostRead
	case kAtomic:
		at += p.RDMAHostRead + p.RDMAAtomicExtra
	}
	r.target = n
	n.eng.At(at, r.atTargetFn)
}

// atTarget runs at the instant the target NIC touches host memory.
func (r *request) atTarget() {
	n := r.target
	switch r.kind {
	case kSend:
		// Two-sided: the NIC DMA-writes the message into a receive buffer
		// in host memory; the host polls it out.
		n.sendBuf[0] = r.msg
		n.host.Deliver(r.owner.node, n.sendBuf[:])
		n.sendBuf[0] = nil
		r.release()
	case kRead:
		bytes := r.payload
		if r.sampleN != nil {
			bytes = r.sampleN()
		} else if r.sample0 != nil {
			r.sample0()
		}
		r.resp.ok = true
		n.respond(r, verbHeader+bytes)
	case kWrite:
		if r.apply0 != nil {
			r.apply0()
		}
		r.resp.ok = true
		n.respond(r, verbHeader)
	case kAtomic:
		r.resp.ok = r.applyB()
		n.respond(r, verbHeader+8)
	}
}

func (n *NIC) respond(r *request, wireBytes int) {
	n.stats.BytesOut += int64(wireBytes)
	n.sendFrames(r.owner.node, wireBytes, &r.resp)
}

// dupRequest records r as executed, reporting whether it already was. The
// per-source seen set is pruned by id window once it grows large.
func (n *NIC) dupRequest(r *request) bool {
	src := r.owner.node
	s := n.seen[src]
	if s == nil {
		s = map[uint64]struct{}{}
		n.seen[src] = s
	}
	if _, ok := s[r.id]; ok {
		return true
	}
	s[r.id] = struct{}{}
	if r.id > n.maxID[src] {
		n.maxID[src] = r.id
	}
	if len(s) > 8192 {
		floor := n.maxID[src] - 4096
		for id := range s {
			if id < floor {
				delete(s, id)
			}
		}
	}
	return false
}

func (n *NIC) handleResponse(resp *response) {
	p := n.p
	r := resp.req
	if n.outstanding != nil {
		if _, ok := n.outstanding[r.id]; !ok {
			n.stats.DupResponses++
			return
		}
		delete(n.outstanding, r.id)
	}
	n.eng.After(p.RDMANICProc+p.RDMACompletion, r.completeFn)
}

// complete delivers r's completion to the issuing thread.
func (r *request) complete() { r.thread.Deliver(r.owner.node, &r.comp) }

// finish is the Completion's Fn: it runs the caller's done on the issuing
// thread, the verb record's last reader.
func (r *request) finish() {
	if r.doneB != nil {
		r.doneB(r.resp.ok)
	} else if r.done0 != nil {
		r.done0()
	}
	r.release()
}
