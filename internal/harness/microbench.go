package harness

import (
	"fmt"

	"xenic/internal/hostrt"
	"xenic/internal/metrics"
	"xenic/internal/model"
	"xenic/internal/nicrt"
	"xenic/internal/pcie"
	"xenic/internal/rdma"
	"xenic/internal/sim"
	"xenic/internal/simnet"
	"xenic/internal/wire"
)

// This file regenerates the §3 characterization: Figure 2 (roundtrip
// latencies), Figure 3 (remote write throughput with and without batching),
// and Figure 4 (DMA engine throughput and latency).

func init() {
	register(&Experiment{
		ID:       "fig2",
		Title:    "Roundtrip latency of remote operations (256B)",
		PaperRef: "Figure 2: RDMA ~3.5us; NIC-sourced LiquidIO ops beat two-sided RDMA RPC",
		Run:      runFig2,
	})
	register(&Experiment{
		ID:       "fig3",
		Title:    "Remote write throughput vs buffer size, batched and single",
		PaperRef: "Figure 3: batching gains up to 22.2x (NIC DRAM) / 7.0x (host DRAM); CX5 13.5-15Mops",
		Run:      runFig3,
	})
	register(&Experiment{
		ID:       "fig4",
		Title:    "DMA engine throughput and latency, single vs 15-element vectors",
		PaperRef: "Figure 4: vectored submission reaches the 8.7Mops/s engine cap; completion <=1295ns",
		Run:      runFig4,
	})
}

// lioOp is a Figure 2a operation type, encoded in the request TxnID.
type lioOp uint64

const (
	opNICRPC lioOp = iota
	opDMARead
	opDMAWrite
	opHostRPC
)

// lioRTT measures the median roundtrip for one LiquidIO operation type,
// sourced from the host or the NIC.
func lioRTT(op lioOp, fromNIC bool, iters int, seed int64) sim.Time {
	eng := sim.NewEngine(seed)
	p := model.Default()
	nw := simnet.New(eng, p, 2)
	src := nicrt.New(eng, p, nw, 0, 2, seed, nicrt.AllFeatures())
	dst := nicrt.New(eng, p, nw, 1, 2, seed, nicrt.AllFeatures())
	srcHost := hostrt.New(eng, p, 0, 1, seed)
	dstHost := hostrt.New(eng, p, 1, 1, seed)

	payload := make([]byte, 256)
	req := func(seq uint64) wire.Msg {
		return &wire.Commit{Header: wire.Header{TxnID: uint64(op)<<32 | seq, Src: 0},
			Writes: []wire.KV{{Key: 1, Value: payload}}}
	}
	// Target-side handling per op type. Host-RPC replies arriving back
	// from the target host are forwarded onto the wire.
	dst.OnMessage(func(c *nicrt.Core, from int, m wire.Msg) {
		if resp, ok := m.(*wire.CommitResp); ok {
			c.Send(0, resp)
			return
		}
		cm := m.(*wire.Commit)
		reply := func() {
			resp := &wire.CommitResp{Header: wire.Header{TxnID: cm.TxnID, Src: 1}}
			c.Send(from, resp)
		}
		switch lioOp(cm.TxnID >> 32) {
		case opNICRPC:
			c.Charge(model.NICNopHandler)
			reply()
		case opDMARead:
			c.DMARead(256, reply)
		case opDMAWrite:
			c.DMAWrite(256, reply)
		case opHostRPC:
			c.SendHost(cm)
		}
	})
	dst.OnHostDeliver(func(ms []wire.Msg) { dstHost.Deliver(1, ms) })
	dstHost.OnMessage(func(t *hostrt.Thread, from int, m wire.Msg) {
		t.Charge(p.HostRPCHandle)
		t.Send(&wire.CommitResp{Header: wire.Header{TxnID: m.(*wire.Commit).TxnID, Src: 1}})
	})
	dstHost.OnIdle(func(t *hostrt.Thread) bool { return false })
	dstHost.OnTransmit(func(t *hostrt.Thread, ms []wire.Msg) {
		t.At(p.HostToNIC, func() { dst.FromHost(ms) })
	})
	hist := metrics.NewHistogram()
	var start sim.Time
	done := 0
	var issue func()

	if fromNIC {
		srcHost.OnMessage(func(t *hostrt.Thread, from int, m wire.Msg) {})
		srcHost.OnIdle(func(t *hostrt.Thread) bool { return false })
		srcHost.OnTransmit(func(t *hostrt.Thread, ms []wire.Msg) {})
		src.OnHostDeliver(func(ms []wire.Msg) {})
		src.OnMessage(func(c *nicrt.Core, from int, m wire.Msg) {
			if _, ok := m.(*wire.CommitResp); !ok {
				return
			}
			hist.Record(c.Now() - start)
			done++
			if done < iters {
				issue()
			}
		})
		issue = func() {
			src.Inject(0, func(c *nicrt.Core) {
				start = c.Now()
				c.Send(1, req(uint64(done)))
			})
		}
	} else {
		// Host-sourced: the source NIC forwards between its host and the
		// wire.
		src.OnHostDeliver(func(ms []wire.Msg) { srcHost.Deliver(0, ms) })
		src.OnMessage(func(c *nicrt.Core, from int, m wire.Msg) {
			switch m.(type) {
			case *wire.Commit:
				c.Send(1, m) // outbound from host
			case *wire.CommitResp:
				c.SendHost(m)
			}
		})
		srcHost.OnTransmit(func(t *hostrt.Thread, ms []wire.Msg) {
			t.At(p.HostToNIC, func() { src.FromHost(ms) })
		})
		srcHost.OnMessage(func(t *hostrt.Thread, from int, m wire.Msg) {
			if _, ok := m.(*wire.CommitResp); !ok {
				return
			}
			hist.Record(t.Now() - start)
			done++
			if done < iters {
				issue()
			}
		})
		srcHost.OnIdle(func(t *hostrt.Thread) bool { return false })
		th := srcHost.Thread(0)
		issue = func() {
			start = th.Now()
			th.Send(req(uint64(done)))
			th.Wake()
		}
	}
	eng.Defer(issue)
	eng.Run(sim.Second)
	return hist.Median()
}

func runFig2(opt Options) *Report {
	iters := 200
	if opt.Quick {
		iters = 50
	}
	r := &Report{ID: "fig2", Title: "Roundtrip latency, 256B payloads",
		Header: []string{"device", "operation", "from host", "from NIC"}}

	ops := []struct {
		name string
		op   lioOp
	}{
		{"NIC RPC", opNICRPC},
		{"Read", opDMARead},
		{"Write", opDMAWrite},
		{"Host RPC", opHostRPC},
	}
	// Eight LiquidIO cells (four ops x host/NIC source) plus the three CX5
	// modes, as one flat pool.
	lats := runCells(opt, 2*len(ops)+3, func(i int, o Options) sim.Time {
		if i < 2*len(ops) {
			return lioRTT(ops[i/2].op, i%2 == 1, iters, o.Seed)
		}
		return cx5RTT(i-2*len(ops), iters, o.Seed)
	})
	for i, o := range ops {
		r.AddCells(Text("LiquidIO"), Text(o.name), Micros(lats[2*i]), Micros(lats[2*i+1]))
	}
	read, write, rpc := lats[2*len(ops)], lats[2*len(ops)+1], lats[2*len(ops)+2]
	r.AddCells(Text("CX5"), Text("READ"), Micros(read), Text("n/a"))
	r.AddCells(Text("CX5"), Text("WRITE"), Micros(write), Text("n/a"))
	r.AddCells(Text("CX5"), Text("Host RPC"), Micros(rpc), Text("n/a"))
	r.AddNote("paper: CX5 WRITE ~3.5us median; LiquidIO NIC-sourced ops beat two-sided RDMA RPCs (§3.2)")
	return r
}

// cx5RTT measures one RDMA roundtrip mode: 0 = READ, 1 = WRITE, 2 =
// two-sided RPC.
func cx5RTT(mode, iters int, seed int64) sim.Time {
	eng := sim.NewEngine(seed)
	p := model.Default()
	nw := simnet.New(eng, p, 2)
	h0 := hostrt.New(eng, p, 0, 1, seed)
	h1 := hostrt.New(eng, p, 1, 1, seed)
	n0 := rdma.New(eng, p, nw, 0, h0)
	n1 := rdma.New(eng, p, nw, 1, h1)
	hist := metrics.NewHistogram()
	var start sim.Time
	done := 0
	var issue func(t *hostrt.Thread)
	finish := func(t *hostrt.Thread) {
		hist.Record(t.Now() - start)
		done++
		if done < iters {
			issue(t)
		}
	}
	issue = func(t *hostrt.Thread) {
		start = t.Now()
		switch mode {
		case 0:
			n0.Read(t, 1, 256, nil, func() { finish(t) })
		case 1:
			n0.Write(t, 1, 256, nil, func() { finish(t) })
		case 2:
			n0.Send(t, 1, &wire.Execute{Header: wire.Header{TxnID: uint64(done), Src: 0}})
		}
	}
	h1.OnMessage(func(t *hostrt.Thread, from int, m wire.Msg) {
		if c, ok := m.(*rdma.Completion); ok {
			c.Fn()
			return
		}
		t.Charge(p.HostRPCHandle)
		n1.Send(t, 0, &wire.ExecuteResp{Header: wire.Header{TxnID: 0, Src: 1}})
	})
	h1.OnIdle(func(t *hostrt.Thread) bool { return false })
	h1.OnTransmit(func(t *hostrt.Thread, ms []wire.Msg) {})
	h0.OnMessage(func(t *hostrt.Thread, from int, m wire.Msg) {
		if c, ok := m.(*rdma.Completion); ok {
			c.Fn()
			return
		}
		if _, ok := m.(*wire.ExecuteResp); ok {
			finish(t)
		}
	})
	h0.OnTransmit(func(t *hostrt.Thread, ms []wire.Msg) {})
	started := false
	h0.OnIdle(func(t *hostrt.Thread) bool {
		if started {
			return false
		}
		started = true
		issue(t)
		return true
	})
	h0.WakeAll()
	eng.Run(sim.Second)
	return hist.Median()
}

// runFig3 sweeps remote write throughput across buffer sizes.
func runFig3(opt Options) *Report {
	sizes := []int{16, 32, 64, 128, 256}
	window := 4 * sim.Millisecond
	if opt.Quick {
		sizes = []int{16, 64, 256}
		window = 1 * sim.Millisecond
	}
	r := &Report{ID: "fig3", Title: "Remote write throughput [ops/s]",
		Header: []string{"size", "LIO batched NIC-mem", "LIO single NIC-mem",
			"LIO batched host-mem", "LIO single host-mem", "CX5 RDMA"}}
	// Five measurements per size — the four LiquidIO batched/memory
	// combinations plus CX5 — as one flat pool, size-major.
	const kinds = 5
	tputs := runCells(opt, len(sizes)*kinds, func(i int, o Options) float64 {
		sz := sizes[i/kinds]
		switch i % kinds {
		case 0:
			return lioWriteTput(sz, true, false, window, o.Seed)
		case 1:
			return lioWriteTput(sz, false, false, window, o.Seed)
		case 2:
			return lioWriteTput(sz, true, true, window, o.Seed)
		case 3:
			return lioWriteTput(sz, false, true, window, o.Seed)
		default:
			return cx5WriteTput(sz, window, o.Seed)
		}
	})
	for i, sz := range sizes {
		t := tputs[i*kinds : (i+1)*kinds]
		r.AddCells(Text(fmt.Sprintf("%dB", sz)),
			Mops(t[0]), Mops(t[1]), Mops(t[2]), Mops(t[3]), Mops(t[4]))
	}
	r.AddNote("paper: single ~9.0-10.4M flat; batched NIC-mem scales to wire bandwidth; batched host-mem DMA-bound below 64B; CX5 13.5-15M flat")
	return r
}

// lioWriteTput measures remote write throughput to node 0 from 5 sources.
func lioWriteTput(size int, batched, hostMem bool, window sim.Time, seed int64) float64 {
	eng := sim.NewEngine(seed)
	p := model.Default()
	const nodes = 6
	nw := simnet.New(eng, p, nodes)
	feat := nicrt.Features{EthAggregation: batched, AsyncDMA: batched}
	var nics []*nicrt.NIC
	for i := 0; i < nodes; i++ {
		nics = append(nics, nicrt.New(eng, p, nw, i, 16, seed, feat))
	}
	completed := 0
	payload := make([]byte, size)

	// Target: ack each write; host-memory targets DMA first.
	nics[0].OnMessage(func(c *nicrt.Core, from int, m wire.Msg) {
		cm := m.(*wire.Commit)
		reply := func() {
			c.Send(from, &wire.CommitResp{Header: wire.Header{TxnID: cm.TxnID, Src: 0}})
		}
		if hostMem {
			c.DMAWrite(size, reply)
			return
		}
		c.Charge(p.NICCacheObjCopy)
		reply()
	})
	nics[0].OnHostDeliver(func(ms []wire.Msg) {})

	// Sources: closed loop; batched mode keeps deep windows per core,
	// single mode paces each op by the host-side issue cost (the §3.4
	// unbatched bottleneck).
	perSource := 256
	if !batched {
		perSource = 8
	}
	for s := 1; s < nodes; s++ {
		s := s
		nics[s].OnHostDeliver(func(ms []wire.Msg) {})
		outstanding := 0
		seq := uint64(0)
		var pump func(c *nicrt.Core)
		pump = func(c *nicrt.Core) {
			for outstanding < perSource {
				outstanding++
				seq++
				if !batched {
					c.Charge(p.HostSendCost)
				}
				c.Send(0, &wire.Commit{
					Header: wire.Header{TxnID: uint64(s)<<32 | seq, Src: uint8(s)},
					Writes: []wire.KV{{Key: seq, Value: payload}},
				})
			}
		}
		nics[s].OnMessage(func(c *nicrt.Core, from int, m wire.Msg) {
			if _, ok := m.(*wire.CommitResp); ok {
				completed++
				outstanding--
				pump(c)
			}
		})
		nics[s].Inject(0, pump)
	}
	warm := window / 4
	eng.Run(warm)
	base := completed
	eng.Run(warm + window)
	return float64(completed-base) / window.Seconds()
}

// cx5WriteTput measures doorbell-batched RDMA WRITE throughput.
func cx5WriteTput(size int, window sim.Time, seed int64) float64 {
	eng := sim.NewEngine(seed)
	p := model.Default()
	const nodes = 6
	nw := simnet.New(eng, p, nodes)
	var hosts []*hostrt.Host
	var rnics []*rdma.NIC
	for i := 0; i < nodes; i++ {
		h := hostrt.New(eng, p, i, 8, seed)
		hosts = append(hosts, h)
		rnics = append(rnics, rdma.New(eng, p, nw, i, h))
	}
	completed := 0
	for i, h := range hosts {
		i := i
		h.OnMessage(func(t *hostrt.Thread, from int, m wire.Msg) {
			if c, ok := m.(*rdma.Completion); ok {
				c.Fn()
			}
		})
		h.OnTransmit(func(t *hostrt.Thread, ms []wire.Msg) {})
		if i == 0 {
			h.OnIdle(func(t *hostrt.Thread) bool { return false })
			continue
		}
		out := make([]int, 8)
		h.OnIdle(func(t *hostrt.Thread) bool {
			did := false
			for out[t.ID()] < 64 {
				out[t.ID()]++
				did = true
				id := t.ID()
				rnics[i].Write(t, 0, size, nil, func() { completed++; out[id]-- })
			}
			return did
		})
		h.WakeAll()
	}
	warm := window / 4
	eng.Run(warm)
	base := completed
	eng.Run(warm + window)
	return float64(completed-base) / window.Seconds()
}

// runFig4 measures the DMA engine directly.
func runFig4(opt Options) *Report {
	sizes := []int{16, 64, 256, 1024}
	window := 4 * sim.Millisecond
	if opt.Quick {
		sizes = []int{16, 256}
		window = 1 * sim.Millisecond
	}
	r := &Report{ID: "fig4", Title: "DMA engine throughput and latency",
		Header: []string{"size", "tput x1", "tput x15", "write lat", "read lat"}}
	p := model.Default()
	elems := []int{1, 15}
	tputs := runCells(opt, len(sizes)*len(elems), func(i int, o Options) float64 {
		return dmaTput(sizes[i/2], elems[i%2], window, o.Seed)
	})
	for i, sz := range sizes {
		r.AddCells(Text(fmt.Sprintf("%dB", sz)), Mops(tputs[2*i]), Mops(tputs[2*i+1]),
			Micros(p.DMAWriteLatency), Micros(p.DMAReadLatency))
	}
	r.AddNote("paper: vectored submission reaches the 8.7M submissions/s hardware max; full vectors do not lengthen completion latency (§3.5)")
	return r
}

func dmaTput(size, elems int, window sim.Time, seed int64) float64 {
	eng := sim.NewEngine(seed)
	p := model.Default()
	d := pcie.New(eng, p)
	sizes := make([]int, elems)
	for i := range sizes {
		sizes[i] = size
	}
	done := 0
	var pump func()
	pump = func() {
		if eng.Now() >= 2*window {
			return
		}
		for i := 0; i < 8; i++ {
			d.Submit(i, &pcie.Vector{Write: true, Sizes: sizes, Complete: func() { done += elems }})
		}
		eng.After(sim.Microsecond, pump)
	}
	eng.Defer(pump)
	eng.Run(window / 2)
	base := done
	eng.Run(window/2 + window)
	return float64(done-base) / window.Seconds()
}
