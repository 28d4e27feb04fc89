package nicrt

import (
	"fmt"
	"math/rand"

	"xenic/internal/metrics"
	"xenic/internal/model"
	"xenic/internal/pcie"
	"xenic/internal/sim"
	"xenic/internal/simnet"
	"xenic/internal/trace"
	"xenic/internal/wire"
)

// Features toggles the runtime-level optimizations evaluated in §5.7
// (Figure 9). Protocol-level toggles live in the core package.
type Features struct {
	// EthAggregation packs many messages per Ethernet frame / PCIe packet
	// via per-destination gather lists (§4.3.2). Off: one frame per message.
	EthAggregation bool
	// AsyncDMA accumulates DMAs in per-core vectors with continuation
	// callbacks (§4.3.1). Off: every DMA is a blocking single-element
	// submission.
	AsyncDMA bool
}

// AllFeatures enables the full Xenic runtime.
func AllFeatures() Features { return Features{EthAggregation: true, AsyncDMA: true} }

// Handler processes one protocol message on a NIC core. src is the sending
// node (the local node for messages from the host).
type Handler func(c *Core, src int, m wire.Msg)

// Stats counts NIC-level events.
type Stats struct {
	RxFrames, RxMsgs    int64
	TxFrames, TxMsgs    int64
	HostRxMsgs          int64 // messages received from the local host
	HostTxMsgs          int64 // messages sent to the local host
	DMAReads, DMAWrites int64
	DupFrames           int64 // duplicate frames suppressed by Seq (fault runs)
	DeadDrops           int64 // frames dropped because no core is alive
	DMARetries          int64 // DMA vectors resubmitted after injected errors
}

// NIC is one server's on-path SmartNIC: a set of polling cores over the
// fabric port, the DMA engine, and the host packet interface.
type NIC struct {
	eng   *sim.Engine
	p     model.Params
	node  int
	nw    *simnet.Network
	dma   *pcie.Engine
	feat  Features
	cores []*Core
	rng   *rand.Rand

	// Duplicate-frame suppression state, allocated lazily on fault-injection
	// runs (the network stamps Frame.Seq per source).
	seen   []map[uint64]struct{}
	maxSeq []uint64

	// epoch is the membership view epoch stamped on every emitted frame;
	// receivers use it to fence traffic from before a node's (re)join.
	epoch int

	handler     Handler
	hostDeliver func(ms []wire.Msg)
	hostPktDone func(ms []wire.Msg)

	// sendFn hands a frame to the fabric and deliverFn a packet to the host
	// (the At1 targets of the flushes, bound once so they schedule without
	// closures).
	sendFn    func(any)
	deliverFn func(any)

	util  *metrics.Utilization
	stats Stats
	tr    *trace.Tracer

	// Always-on batching distributions (§4.3): recording is two array
	// increments, cheap enough for the NIC hot paths.
	batchSizes metrics.IntHist // messages per transmitted frame
	gatherLens metrics.IntHist // gather-list length per destination flush
	dmaVecOcc  metrics.IntHist // elements per submitted DMA vector
}

// New creates a NIC with ncores active cores attached to nw at node. seed is
// the cluster seed; each NIC derives its PRNG from (seed, node) so distinct
// cluster seeds explore distinct random streams on every node.
func New(eng *sim.Engine, p model.Params, nw *simnet.Network, node, ncores int, seed int64, feat Features) *NIC {
	if ncores <= 0 || ncores > p.NICCores {
		panic(fmt.Sprintf("nicrt: %d cores outside 1..%d", ncores, p.NICCores))
	}
	n := &NIC{
		eng: eng, p: p, node: node, nw: nw,
		dma:  pcie.New(eng, p),
		feat: feat,
		rng:  rand.New(rand.NewSource(seed*1000003 + int64(node)*7919 + 1)),
		util: metrics.NewUtilization(ncores),
	}
	for i := 0; i < ncores; i++ {
		c := &Core{nic: n, id: i, outNet: map[int]*[]wire.Msg{}}
		c.poller = NewPoller(eng, p.NICLoopIdle)
		c.poller.SetWork(c.iteration)
		i := i
		c.poller.SetOnBusy(func(d sim.Time) { n.util.Add(i, d) })
		n.cores = append(n.cores, c)
	}
	n.sendFn = n.sendFrame
	n.deliverFn = n.deliverHostBatch
	nw.Attach(node, n.dispatchFrame)
	return n
}

// sendFrame transmits a flushed frame at its scheduled handoff instant.
func (n *NIC) sendFrame(arg any) { n.nw.Send(arg.(*simnet.Frame)) }

// Node returns this NIC's node id.
func (n *NIC) Node() int { return n.node }

// Cores returns the number of active cores.
func (n *NIC) Cores() int { return len(n.cores) }

// DMA exposes the NIC's DMA engine (for stats).
func (n *NIC) DMA() *pcie.Engine { return n.dma }

// Stats returns a copy of the counters.
func (n *NIC) Stats() Stats { return n.stats }

// Utilization returns the per-core busy accounting.
func (n *NIC) Utilization() *metrics.Utilization { return n.util }

// QueueDepth reports the total work queued at the NIC's cores right now:
// undelivered frames, host packets, DMA completion batches, and injected
// jobs. A telemetry gauge; O(cores) and read-only.
func (n *NIC) QueueDepth() int {
	d := 0
	for _, c := range n.cores {
		d += len(c.inFrames) + len(c.inHost) + len(c.dmaDone) + len(c.jobs)
	}
	return d
}

// SetTracer attaches tr (nil disables tracing).
func (n *NIC) SetTracer(tr *trace.Tracer) { n.tr = tr }

// RegisterMetrics registers the NIC's counters, batching distributions, and
// DMA-engine byte counters under reg's scope.
func (n *NIC) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterFunc("frames", func() any {
		s := n.stats
		return map[string]any{
			"rx_frames":    s.RxFrames,
			"rx_msgs":      s.RxMsgs,
			"tx_frames":    s.TxFrames,
			"tx_msgs":      s.TxMsgs,
			"host_rx_msgs": s.HostRxMsgs,
			"host_tx_msgs": s.HostTxMsgs,
			"dma_reads":    s.DMAReads,
			"dma_writes":   s.DMAWrites,
			"dup_frames":   s.DupFrames,
			"dead_drops":   s.DeadDrops,
			"dma_retries":  s.DMARetries,
		}
	})
	reg.RegisterIntHist("batch_msgs_per_frame", &n.batchSizes)
	reg.RegisterIntHist("gather_list_len", &n.gatherLens)
	reg.RegisterIntHist("dma_vector_occupancy", &n.dmaVecOcc)
	reg.RegisterFunc("pcie", func() any { return n.dma.Snapshot() })
}

// SetEpoch updates the view epoch stamped on emitted frames; the protocol
// layer calls it when a new membership view lands.
func (n *NIC) SetEpoch(e int) { n.epoch = e }

// Epoch returns the view epoch currently stamped on emitted frames.
func (n *NIC) Epoch() int { return n.epoch }

// Reset wipes the NIC's soft state for a node restart: the duplicate-frame
// suppression window and the frame epoch. Forgetting seen sequence numbers
// is safe because every pre-restart frame carries a stale epoch and is
// fenced by the protocol layer before it can act.
func (n *NIC) Reset() {
	n.seen = nil
	n.maxSeq = nil
	n.epoch = 0
}

// OnMessage installs the protocol handler; must be set before traffic flows.
func (n *NIC) OnMessage(h Handler) { n.handler = h }

// OnHostDeliver installs the host-side receive function for NIC->host
// messages (the host runtime's dispatcher). fn must not retain ms: the
// backing array returns to the sending core's freelist when fn returns.
func (n *NIC) OnHostDeliver(fn func(ms []wire.Msg)) { n.hostDeliver = fn }

// OnHostPacketDone installs a function that takes back a FromHost batch once
// a core has handled its last message (the host runtime's Recycle).
func (n *NIC) OnHostPacketDone(fn func(ms []wire.Msg)) { n.hostPktDone = fn }

// dispatchFrame steers an arriving frame to a core by its flow label. Frames
// whose hashed core is stopped fall through to the next live core (the
// hardware flow engine is reprogrammed around dead cores); when no core is
// alive the frame is counted and dropped. On fault runs, duplicate deliveries
// of the same frame (Frame.Seq already seen from that source) are suppressed.
func (n *NIC) dispatchFrame(f *simnet.Frame) {
	if f.Seq != 0 && n.dupFrame(f) {
		n.stats.DupFrames++
		return
	}
	c := n.liveCoreFrom(int(hash64(uint64(f.Flow)) % uint64(len(n.cores))))
	if c == nil {
		n.stats.DeadDrops++
		return
	}
	c.inFrames = append(c.inFrames, f)
	c.poller.Wake()
}

// dupFrame records f's sequence number and reports whether it was already
// delivered from this source. The seen-set is pruned by window: delayed
// frames arrive out of order, so a bounded set of recent seqs is kept.
func (n *NIC) dupFrame(f *simnet.Frame) bool {
	if n.seen == nil {
		n.seen = make([]map[uint64]struct{}, n.nw.Nodes())
		n.maxSeq = make([]uint64, n.nw.Nodes())
	}
	m := n.seen[f.Src]
	if m == nil {
		m = map[uint64]struct{}{}
		n.seen[f.Src] = m
	}
	if _, dup := m[f.Seq]; dup {
		return true
	}
	m[f.Seq] = struct{}{}
	if f.Seq > n.maxSeq[f.Src] {
		n.maxSeq[f.Src] = f.Seq
	}
	if len(m) > 8192 {
		floor := n.maxSeq[f.Src] - 4096
		for s := range m {
			if s < floor {
				delete(m, s)
			}
		}
	}
	return false
}

// liveCoreFrom returns the first live core scanning from idx, or nil when
// every core is stopped.
func (n *NIC) liveCoreFrom(idx int) *Core {
	for i := 0; i < len(n.cores); i++ {
		c := n.cores[(idx+i)%len(n.cores)]
		if !c.poller.Stopped() {
			return c
		}
	}
	return nil
}

// FromHost delivers a batch of host-originated messages (one PCIe packet)
// to a NIC core, chosen by hashing the first message's transaction id.
// Called by the host runtime after the HostToNIC delay. The NIC owns ms from
// here on and releases it through OnHostPacketDone. Like dispatchFrame, it
// routes around stopped cores and counts the batch as dropped if none remain.
func (n *NIC) FromHost(ms []wire.Msg) {
	if len(ms) == 0 {
		return
	}
	c := n.liveCoreFrom(int(hash64(txnOf(ms[0])) % uint64(len(n.cores))))
	if c == nil {
		n.stats.DeadDrops++
		return
	}
	c.inHost = append(c.inHost, ms)
	c.poller.Wake()
}

func txnOf(m wire.Msg) uint64 {
	type txnIDer interface{ GetTxnID() uint64 }
	if t, ok := m.(txnIDer); ok {
		return t.GetTxnID()
	}
	return 0
}

func hash64(v uint64) uint64 {
	z := v + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return z ^ (z >> 31)
}

// StopCore parks core i permanently (failure injection / thread scaling).
func (n *NIC) StopCore(i int) { n.cores[i].poller.Stop() }

// StallCore freezes core i for dur: its next loop iteration is charged the
// whole stall as dead time, delaying everything queued behind it. Finite
// stalls model firmware hiccups without the liveness hazards of StopCore.
func (n *NIC) StallCore(i int, dur sim.Time) {
	n.Inject(i, func(c *Core) { c.poller.Charge(dur) })
}

// LiveCore returns the index of a live core (0 when every core is stopped,
// so existing Inject(0) semantics degrade gracefully).
func (n *NIC) LiveCore() int {
	for i, c := range n.cores {
		if !c.poller.Stopped() {
			return i
		}
	}
	return 0
}

// CoreFor returns a live core index for flow key k: the deterministic hash
// choice, falling through to the next live core when that one is stopped.
func (n *NIC) CoreFor(k uint64) int {
	idx := int(hash64(k) % uint64(len(n.cores)))
	for i := 0; i < len(n.cores); i++ {
		j := (idx + i) % len(n.cores)
		if !n.cores[j].poller.Stopped() {
			return j
		}
	}
	return idx
}

// SetDMAFault installs the DMA completion-error decision hook (fault runs).
func (n *NIC) SetDMAFault(fn func() bool) { n.dma.SetFaultHook(fn) }

// StallDMA freezes the DMA engine for dur.
func (n *NIC) StallDMA(dur sim.Time) { n.dma.Stall(dur) }

// InjectRx delivers one message to the protocol handler on a live core as
// if it had arrived from src in a frame stamped with the given view epoch;
// tests exercise the receive-side epoch fence with it.
func (n *NIC) InjectRx(epoch, src int, m wire.Msg) {
	n.Inject(n.LiveCore(), func(c *Core) {
		c.rxEpoch = epoch
		c.nic.handler(c, src, m)
		c.rxEpoch = 0
	})
}

// Inject schedules fn to run on core i's next loop iteration; protocol
// timers and NIC-originated microbenchmarks use it.
func (n *NIC) Inject(i int, fn func(c *Core)) {
	c := n.cores[i%len(n.cores)]
	c.jobs = append(c.jobs, fn)
	c.poller.Wake()
}

// Core is one NIC core plus its aggregation state. Protocol handlers
// receive a *Core and use it to charge compute time, issue DMAs, and send
// messages; everything they emit is aggregated at iteration end (§4.3.2).
type Core struct {
	nic    *NIC
	id     int
	poller *Poller

	inFrames []*simnet.Frame
	inHost   [][]wire.Msg
	dmaDone  []*dmaVec // completed vectors whose continuations have yet to run
	jobs     []func(c *Core)

	// Spare backing arrays ping-ponged with the input queues each iteration,
	// so draining a queue does not force the next arrivals to reallocate it.
	frameSpare []*simnet.Frame
	hostSpare  [][]wire.Msg
	doneSpare  []*dmaVec
	jobSpare   []func(c *Core)

	// pendRead/pendWrite accumulate the next vector of each direction (nil
	// until the first element arrives); vecFree is this core's freelist of
	// vector records, refilled when a completed vector's continuations have
	// run. A plain LIFO owned by the core: no other core or goroutine sees it.
	pendRead  *dmaVec
	pendWrite *dmaVec
	vecFree   []*dmaVec

	outNet  map[int]*[]wire.Msg
	outDsts []int
	outHost []wire.Msg
	// hostFree is the freelist of NIC->host packets: flushHost swaps the
	// filled outHost array into one, deliverHostBatch returns it.
	hostFree []*hostBatch

	// rxEpoch is the view epoch stamped on the frame whose messages are being
	// handled right now (0 for host-, DMA-, and job-context work).
	rxEpoch int
}

// RxEpoch returns the view epoch of the frame currently being handled, or 0
// when the handler is running in a host/DMA/job context.
func (c *Core) RxEpoch() int { return c.rxEpoch }

// iteration is one burst loop pass: handle a burst of Ethernet and host
// traffic and a burst of DMA completions, then flush DMA vectors and
// aggregated transmissions.
func (c *Core) iteration() bool {
	did := false
	p := c.nic.p

	frames := c.inFrames
	c.inFrames = c.frameSpare[:0]
	for i, f := range frames {
		did = true
		c.poller.Charge(p.NICFrameRx)
		c.nic.stats.RxFrames++
		if tr := c.nic.tr; tr.Enabled() {
			tr.Instant("net", "frame-rx", c.nic.node, c.id, c.nic.eng.Now(),
				trace.Args{"src": f.Src, "bytes": f.PayloadBytes, "msgs": len(f.Msgs)})
		}
		c.rxEpoch = f.Epoch
		for _, raw := range f.Msgs {
			m := raw.(wire.Msg)
			c.nic.stats.RxMsgs++
			c.poller.Charge(p.NICMsgHandle)
			c.nic.handler(c, f.Src, m)
		}
		frames[i] = nil
		c.nic.nw.Recycle(f)
	}
	c.rxEpoch = 0
	c.frameSpare = frames[:0]

	hostPkts := c.inHost
	c.inHost = c.hostSpare[:0]
	for i, pkt := range hostPkts {
		did = true
		c.poller.Charge(p.NICFrameRx) // PCIe packet descriptor handling
		for _, m := range pkt {
			c.nic.stats.HostRxMsgs++
			c.poller.Charge(p.NICMsgHandle)
			c.nic.handler(c, c.nic.node, m)
		}
		hostPkts[i] = nil
		if done := c.nic.hostPktDone; done != nil {
			done(pkt)
		}
	}
	c.hostSpare = hostPkts[:0]

	done := c.dmaDone
	c.dmaDone = c.doneSpare[:0]
	for i, v := range done {
		did = true
		for j, cb := range v.cbs {
			cb()
			v.cbs[j] = nil
		}
		c.releaseVec(v)
		done[i] = nil
	}
	c.doneSpare = done[:0]

	jobs := c.jobs
	c.jobs = c.jobSpare[:0]
	for i, j := range jobs {
		did = true
		j(c)
		jobs[i] = nil
	}
	c.jobSpare = jobs[:0]

	c.flushDMA()
	c.flushNet()
	c.flushHost()
	return did
}

// Charge adds compute cost to the current iteration.
func (c *Core) Charge(d sim.Time) { c.poller.Charge(d) }

// Now returns the core's current instant.
func (c *Core) Now() sim.Time { return c.poller.Now() }

// Node returns the local node id.
func (c *Core) Node() int { return c.nic.node }

// Rand returns the NIC's PRNG.
func (c *Core) Rand() *rand.Rand { return c.nic.rng }

// Send queues m for transmission to node dst, aggregated with other
// messages to the same destination at iteration end.
func (c *Core) Send(dst int, m wire.Msg) {
	if dst == c.nic.node {
		panic("nicrt: self-send; local work must not use the fabric")
	}
	q, ok := c.outNet[dst]
	if !ok {
		q = new([]wire.Msg)
		c.outNet[dst] = q
	}
	if len(*q) == 0 {
		// First message for dst since the last flush: (re-)enter it in the
		// deterministic flush order.
		c.outDsts = append(c.outDsts, dst)
	}
	*q = append(*q, m)
}

// SendHost queues m for delivery to the local host over PCIe.
func (c *Core) SendHost(m wire.Msg) { c.outHost = append(c.outHost, m) }

// DMARead issues an asynchronous host-memory read of bytes; cb runs (on this
// core, in a later iteration) once the data is in NIC memory. With AsyncDMA
// disabled the core blocks for the completion.
func (c *Core) DMARead(bytes int, cb func()) { c.dmaOp(false, bytes, cb) }

// DMAWrite issues an asynchronous host-memory write of bytes; cb runs once
// the completion status lands (e.g. to send a LOG acknowledgement).
func (c *Core) DMAWrite(bytes int, cb func()) { c.dmaOp(true, bytes, cb) }

func (c *Core) dmaOp(write bool, bytes int, cb func()) {
	p := c.nic.p
	if write {
		c.nic.stats.DMAWrites++
	} else {
		c.nic.stats.DMAReads++
	}
	if !c.nic.feat.AsyncDMA {
		// Blocking mode (ablation baseline): submit immediately as its own
		// vector and stall the core until completion.
		c.Charge(p.DMASubmit)
		c.nic.dmaVecOcc.Record(1)
		if tr := c.nic.tr; tr.Enabled() {
			tr.Instant("dma", "dma-vec", c.nic.node, c.id, c.nic.eng.Now(),
				trace.Args{"n": 1, "write": write})
		}
		lat := p.DMAReadLatency
		if write {
			lat = p.DMAWriteLatency
		}
		c.nic.dma.Submit(c.id%p.DMAQueues, &pcie.Vector{Write: write, Sizes: []int{bytes}})
		c.Charge(lat)
		if cb != nil {
			cb()
		}
		return
	}
	pend := c.pendSlot(write)
	v := *pend
	if v == nil {
		v = c.grabVec(write)
		*pend = v
	}
	v.vec.Sizes = append(v.vec.Sizes, bytes)
	if cb != nil {
		v.cbs = append(v.cbs, cb)
	}
	if len(v.vec.Sizes) == p.DMAVectorMax {
		c.submitVector(write)
	}
}

// pendSlot returns the pending-vector slot of one direction.
func (c *Core) pendSlot(write bool) **dmaVec {
	if write {
		return &c.pendWrite
	}
	return &c.pendRead
}

// dmaVec is one pooled vectored DMA submission: the engine's vector, the
// continuations to run once it completes, and the retry state. The three
// callbacks are bound once, when the record is first created, so a
// steady-state submit -> complete -> continuation cycle allocates nothing.
// A record is owned by exactly one place at a time: a core's pending slot,
// the DMA engine (between submit and completion), the core's dmaDone queue,
// or the core's freelist; releaseVec is the single point it returns there.
type dmaVec struct {
	core    *Core
	vec     pcie.Vector
	cbs     []func()
	attempt int    // failed completions so far (fault runs)
	submit  func() // hands vec to the DMA engine
}

// grabVec takes a vector record off the freelist, or creates one with
// room for a full vector.
func (c *Core) grabVec(write bool) *dmaVec {
	var v *dmaVec
	if n := len(c.vecFree); n > 0 {
		v = c.vecFree[n-1]
		c.vecFree[n-1] = nil
		c.vecFree = c.vecFree[:n-1]
	} else {
		vmax := c.nic.p.DMAVectorMax
		v = &dmaVec{core: c, cbs: make([]func(), 0, vmax)}
		v.vec.Sizes = make([]int, 0, vmax)
		v.vec.Complete = v.complete
		v.vec.Failed = v.failed
		v.submit = v.submitNow
	}
	v.vec.Write = write
	return v
}

// releaseVec returns a vector whose continuations have all run (and been
// cleared) to the freelist.
func (c *Core) releaseVec(v *dmaVec) {
	v.vec.Sizes = v.vec.Sizes[:0]
	v.cbs = v.cbs[:0]
	v.attempt = 0
	c.vecFree = append(c.vecFree, v)
}

func (v *dmaVec) submitNow() {
	c := v.core
	c.nic.dma.Submit(c.id%c.nic.p.DMAQueues, &v.vec)
}

// complete runs at the vector's completion instant: queue its continuations
// for the core's next iteration.
func (v *dmaVec) complete() {
	c := v.core
	if len(v.cbs) > 0 {
		c.dmaDone = append(c.dmaDone, v)
	} else {
		c.releaseVec(v)
	}
	c.poller.Wake()
}

// failed runs instead of complete when a fault run fails the completion: the
// runtime retries the same vector after a deterministic capped-exponential
// backoff, so a burst of injected errors delays the continuations instead of
// losing them.
func (v *dmaVec) failed() {
	c := v.core
	v.attempt++
	c.nic.stats.DMARetries++
	if tr := c.nic.tr; tr.Enabled() {
		tr.Instant("fault", "dma-retry", c.nic.node, c.id, c.nic.eng.Now(),
			trace.Args{"attempt": v.attempt, "write": v.vec.Write})
	}
	c.nic.eng.After(dmaRetryBackoff(v.attempt), v.submit)
}

// submitVector submits the pending read or write vector, amortizing the
// submission cost over its elements.
func (c *Core) submitVector(write bool) {
	pend := c.pendSlot(write)
	v := *pend
	if v == nil {
		return
	}
	*pend = nil
	c.Charge(c.nic.p.DMASubmit)
	c.nic.dmaVecOcc.Record(len(v.vec.Sizes))
	if tr := c.nic.tr; tr.Enabled() {
		tr.Instant("dma", "dma-vec", c.nic.node, c.id, c.nic.eng.Now(),
			trace.Args{"n": len(v.vec.Sizes), "write": write})
	}
	// Submit at the core's current instant so engine admission sees the
	// true submission time, not the iteration's start.
	c.poller.At(0, v.submit)
}

// DMA resubmission backoff: deterministic capped doubling, mirroring the
// transport-level retransmission policy in simnet.
const (
	dmaRetryBase = 2 * sim.Microsecond
	dmaRetryMax  = 50 * sim.Microsecond
)

func dmaRetryBackoff(attempt int) sim.Time {
	d := dmaRetryBase
	for i := 1; i < attempt && d < dmaRetryMax; i++ {
		d *= 2
	}
	if d > dmaRetryMax {
		d = dmaRetryMax
	}
	return d
}

// flushDMA submits any partial vectors at iteration end ("when a NIC core
// is idle, or when the DMA vector fills" — §4.3.1).
func (c *Core) flushDMA() {
	c.submitVector(false)
	c.submitVector(true)
}

// flushNet transmits each destination's gather list, packing messages into
// MTU-bounded frames when aggregation is enabled. Frames come from the
// fabric's freelist and carry their messages in the frame's own (recycled)
// Msgs array, and handoff is scheduled closure-free, so a flush of an
// already-warm core allocates nothing.
func (c *Core) flushNet() {
	p := c.nic.p
	flow := c.nic.node*64 + c.id
	for _, dst := range c.outDsts {
		q := c.outNet[dst]
		ms := *q
		if len(ms) == 0 {
			continue
		}
		c.nic.gatherLens.Record(len(ms))
		if !c.nic.feat.EthAggregation {
			for i, m := range ms {
				c.nic.stats.TxMsgs++
				f := c.nic.nw.NewFrame()
				f.Msgs = append(f.Msgs, m)
				c.emitFrame(dst, flow, m.WireSize(), f)
				ms[i] = nil
			}
			*q = ms[:0]
			continue
		}
		f := c.nic.nw.NewFrame()
		batchBytes := 0
		for i, m := range ms {
			sz := m.WireSize()
			c.nic.stats.TxMsgs++
			if batchBytes > 0 && batchBytes+sz > p.MTU {
				c.emitFrame(dst, flow, batchBytes, f)
				f = c.nic.nw.NewFrame()
				batchBytes = 0
			}
			f.Msgs = append(f.Msgs, m)
			batchBytes += sz
			ms[i] = nil
		}
		c.emitFrame(dst, flow, batchBytes, f)
		*q = ms[:0]
	}
	c.outDsts = c.outDsts[:0]
}

// emitFrame stamps and transmits one gathered frame carrying bytes of
// payload. Messages larger than the MTU are fragmented; the payload rides
// the leading frames and the messages are delivered with the final fragment
// (last-bit arrival).
func (c *Core) emitFrame(dst, flow, bytes int, f *simnet.Frame) {
	p := c.nic.p
	for bytes > p.MTU {
		c.Charge(p.NICFrameTx)
		c.nic.stats.TxFrames++
		frag := c.nic.nw.NewFrame()
		frag.Src, frag.Dst, frag.PayloadBytes, frag.Flow = c.nic.node, dst, p.MTU, flow
		frag.Epoch = c.nic.epoch
		c.nic.eng.At1(c.poller.Now(), c.nic.sendFn, frag)
		bytes -= p.MTU
	}
	c.Charge(p.NICFrameTx)
	c.nic.stats.TxFrames++
	c.nic.batchSizes.Record(len(f.Msgs))
	if tr := c.nic.tr; tr.Enabled() {
		tr.Instant("net", "frame-tx", c.nic.node, c.id, c.nic.eng.Now(),
			trace.Args{"dst": dst, "bytes": bytes, "msgs": len(f.Msgs)})
	}
	f.Src, f.Dst, f.PayloadBytes, f.Flow = c.nic.node, dst, bytes, flow
	f.Epoch = c.nic.epoch
	// Transmit at the core's current instant so link serialization starts
	// when the core actually hands off the frame.
	c.nic.eng.At1(c.poller.Now(), c.nic.sendFn, f)
}

// hostBatch is one NIC->host PCIe packet in flight, pooled per core.
type hostBatch struct {
	core *Core
	ms   []wire.Msg
}

// flushHost delivers queued NIC->host messages as one PCIe packet.
func (c *Core) flushHost() {
	if len(c.outHost) == 0 {
		return
	}
	var b *hostBatch
	if n := len(c.hostFree); n > 0 {
		b = c.hostFree[n-1]
		c.hostFree[n-1] = nil
		c.hostFree = c.hostFree[:n-1]
	} else {
		b = &hostBatch{core: c}
	}
	b.ms, c.outHost = c.outHost, b.ms
	c.nic.stats.HostTxMsgs += int64(len(b.ms))
	c.Charge(c.nic.p.NICFrameTx)
	if tr := c.nic.tr; tr.Enabled() {
		tr.Instant("pcie", "host-tx", c.nic.node, c.id, c.nic.eng.Now(),
			trace.Args{"msgs": len(b.ms)})
	}
	if c.nic.hostDeliver == nil {
		panic("nicrt: no host delivery function installed")
	}
	c.nic.eng.At1(c.poller.Now()+c.nic.p.NICToHost, c.nic.deliverFn, b)
}

// deliverHostBatch hands a packet to the host at its arrival instant and
// recycles it.
func (n *NIC) deliverHostBatch(arg any) {
	b := arg.(*hostBatch)
	n.hostDeliver(b.ms)
	clear(b.ms)
	b.ms = b.ms[:0]
	b.core.hostFree = append(b.core.hostFree, b)
}
