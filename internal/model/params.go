// Package model holds the calibrated hardware parameters for the simulated
// testbed: 6 servers, each with a Marvell LiquidIO 3 SmartNIC (24 ARM cores,
// 16GB DRAM, PCIe 3.0 x8, 2x50GbE) and a Mellanox CX5 100GbE RDMA NIC, as in
// the paper's evaluation (§5). Every constant cites the paper measurement it
// was calibrated against. EXPERIMENTS.md records how well the calibrated
// model reproduces the paper's §3 microbenchmarks before it is used to
// predict the §5 results.
package model

import "xenic/internal/sim"

// Params is the full set of device/timing parameters for one cluster.
// Defaults() returns the calibrated testbed; experiments mutate copies
// (e.g. the §5.3 one-link 50Gbps configuration).
type Params struct {
	// ---- Ethernet fabric ----

	// LinkBandwidth is the usable bandwidth of one Ethernet link in
	// bytes/second. The LiquidIO has 2x50GbE; the CX5 one 100GbE port.
	LinkBandwidth float64
	// LinksPerNode is the number of links ganged per server (2 for the
	// default testbed, 1 for the §5.3 DrTM+R comparison).
	LinksPerNode int
	// PropDelay is the one-way propagation + switching delay between any
	// two servers. Calibrated so a 256B CX5 RDMA WRITE round trip lands at
	// ~3.5us (§3.2).
	PropDelay sim.Time
	// FrameOverhead is the per-Ethernet-frame byte cost on the wire:
	// preamble+SFD (8) + Ethernet header+FCS (18) + IFG (12) + IP/UDP (28).
	FrameOverhead int
	// MTU is the maximum Ethernet payload per frame. Aggregated
	// transmissions (§4.3.2) pack messages up to this size.
	MTU int

	// ---- LiquidIO SmartNIC SoC ----

	// NICCores is the number of SmartNIC cores (24 on the LiquidIO 3).
	NICCores int
	// NICCoreSpeed is NIC per-thread compute speed relative to a host
	// thread, from the Coremark normalization in §5.6 (0.31x multi-thread).
	NICCoreSpeed float64
	// NICFrameRx/NICFrameTx are NIC-core costs to receive/transmit one
	// Ethernet frame (descriptor + buffer management). With NICMsgHandle
	// they calibrate the 71.8Mops/s 16-thread NIC echo-RPC result (§3.3):
	// 16 threads / 71.8M = 223ns per packet total.
	NICFrameRx sim.Time
	NICFrameTx sim.Time
	// NICMsgHandle is the NIC-core cost to dispatch one application message
	// (header parse + handler entry), charged per message even when many
	// messages share a frame. It bounds aggregated small-op throughput:
	// ~75ns/msg * 16 cores ~= 210Mops/s, matching the 22.2x batched NIC-DRAM
	// write gain over the ~9.5M unbatched baseline (§3.4).
	NICMsgHandle sim.Time
	// NICIndexOp is the NIC-core cost of one NIC hash-index operation
	// (lookup/lock/version check) in SmartNIC DRAM (§4.1.3).
	NICIndexOp sim.Time
	// NICCacheObjCopy is the per-256B NIC-core cost to copy a cached object
	// into an outgoing message.
	NICCacheObjCopy sim.Time
	// NICLoopIdle is the cost of one empty polling-loop iteration; it sets
	// the latency floor for request pickup by a NIC core (§4.3.2).
	NICLoopIdle sim.Time

	// ---- Host <-> SmartNIC PCIe packet interface ----

	// HostToNIC is the latency for a message posted by host DPDK to become
	// visible to a NIC core (doorbell + descriptor fetch + payload DMA +
	// NIC poll). Calibrated with NICToHost against the gap between
	// host-sourced and NIC-sourced operations in Figure 2a.
	HostToNIC sim.Time
	// NICToHost is the latency for a NIC-written message to be observed by
	// a polling host DPDK thread (DMA write + host poll).
	NICToHost sim.Time
	// HostSendCost is host-CPU time to build and post one unbatched packet
	// via DPDK. Calibrated so 5 source servers sustain the 9.0-10.4Mops/s
	// unbatched remote-write rate of §3.4 (~2Mops/s per source thread).
	HostSendCost sim.Time
	// HostRPCHandle is host-CPU time to handle one RPC (poll + parse +
	// reply), calibrated to the 23.0Mops/s 16-thread host echo result
	// (§3.3): 16/23.0M = 696ns.
	HostRPCHandle sim.Time
	// HostMsgProc is host-CPU time for a coordinator application thread to
	// consume one message from its local NIC (lighter than a full RPC:
	// no network descriptor handling).
	HostMsgProc sim.Time
	// HostStoreOp is host-CPU time for one local hash-table operation
	// (lookup/insert probe work is charged separately per element).
	HostStoreOp sim.Time
	// HostBTreeOp is host-CPU time for one B+tree operation on TPC-C's
	// coordinator-local tables; these dominate TPC-C host usage (§5.6).
	HostBTreeOp sim.Time

	// ---- LiquidIO PCIe DMA engine (§3.5) ----

	// DMAQueues is the number of hardware DMA request queues (8).
	DMAQueues int
	// DMAVectorMax is the maximum reads/writes per vectored submission (15).
	DMAVectorMax int
	// DMASubmit is the NIC-core submission cost per vector, "up to 190ns",
	// amortized across up to 15 elements (§3.5).
	DMASubmit sim.Time
	// DMAReadLatency / DMAWriteLatency are completion latencies for one
	// element: "typically up to 1295ns for reads and 570ns for writes".
	DMAReadLatency  sim.Time
	DMAWriteLatency sim.Time
	// DMAEngineRate is the engine-wide cap on vector submissions per
	// second: "up to the hardware maximum of 8.7Mops/s" (§3.5).
	DMAEngineRate float64
	// DMAElementRate is the engine-wide cap on vector *elements* per second
	// for small (<=64B) elements; beyond 64B the PCIe bandwidth governs.
	// Calibrated to the 7.0x batched host-DRAM write gain of §3.4.
	DMAElementRate float64
	// PCIeBandwidth is usable PCIe 3.0 x8 bandwidth in bytes/second.
	PCIeBandwidth float64

	// ---- Mellanox CX5 RDMA NIC (§2.1, §3.2, §3.4) ----

	// RDMAIssue is initiator-side cost (doorbell + WQE fetch) per verb.
	RDMAIssue sim.Time
	// RDMANICProc is the CX5 hardware processing time per verb per side.
	RDMANICProc sim.Time
	// RDMAHostRead / RDMAHostWrite are target-side PCIe access times for
	// one-sided verbs (the CX5's own DMA to host DRAM).
	RDMAHostRead  sim.Time
	RDMAHostWrite sim.Time
	// RDMACompletion is initiator-side completion delivery + host poll.
	RDMACompletion sim.Time
	// RDMAMsgRate is the per-NIC small-verb message rate cap with doorbell
	// batching: "13.5-15.0Mops/s across the range of buffer sizes" (§3.4).
	RDMAMsgRate float64
	// RDMAAtomicExtra is added target-side latency for ATOMIC verbs
	// (internal read-modify-write locking on the NIC).
	RDMAAtomicExtra sim.Time
}

// Default returns the calibrated parameters for the paper's testbed.
func Default() Params {
	return Params{
		LinkBandwidth: 6.25e9, // 50 Gbit/s
		LinksPerNode:  2,
		PropDelay:     700 * sim.Nanosecond,
		FrameOverhead: 66,
		MTU:           1500,

		NICCores:        24,
		NICCoreSpeed:    0.31,
		NICFrameRx:      70 * sim.Nanosecond,
		NICFrameTx:      90 * sim.Nanosecond,
		NICMsgHandle:    63 * sim.Nanosecond,
		NICIndexOp:      60 * sim.Nanosecond,
		NICCacheObjCopy: 40 * sim.Nanosecond,
		NICLoopIdle:     80 * sim.Nanosecond,

		HostToNIC:     1200 * sim.Nanosecond,
		NICToHost:     900 * sim.Nanosecond,
		HostSendCost:  480 * sim.Nanosecond,
		HostRPCHandle: 696 * sim.Nanosecond,
		HostMsgProc:   250 * sim.Nanosecond,
		HostStoreOp:   120 * sim.Nanosecond,
		HostBTreeOp:   950 * sim.Nanosecond,

		DMAQueues:       8,
		DMAVectorMax:    15,
		DMASubmit:       190 * sim.Nanosecond,
		DMAReadLatency:  1295 * sim.Nanosecond,
		DMAWriteLatency: 570 * sim.Nanosecond,
		DMAEngineRate:   8.7e6,
		DMAElementRate:  65e6,
		PCIeBandwidth:   6.5e9,

		RDMAIssue:       250 * sim.Nanosecond,
		RDMANICProc:     275 * sim.Nanosecond,
		RDMAHostRead:    800 * sim.Nanosecond,
		RDMAHostWrite:   570 * sim.Nanosecond,
		RDMACompletion:  300 * sim.Nanosecond,
		RDMAMsgRate:     14.5e6,
		RDMAAtomicExtra: 260 * sim.Nanosecond,
	}
}

// OneLink returns a copy of p with a single 50GbE link per node, matching
// the §5.3 configuration used to compare against DrTM+R's published numbers.
func (p Params) OneLink() Params {
	p.LinksPerNode = 1
	return p
}

// TotalBandwidth is the per-server usable network bandwidth in bytes/second.
func (p Params) TotalBandwidth() float64 {
	return p.LinkBandwidth * float64(p.LinksPerNode)
}

// HostScaled scales a host-core cost by the NIC/host speed ratio, i.e. the
// time the same work takes on a NIC core.
func (p Params) HostScaled(hostCost sim.Time) sim.Time {
	return sim.Time(float64(hostCost) / p.NICCoreSpeed)
}

// WireBytes is the on-wire size of a frame carrying payload bytes.
func (p Params) WireBytes(payload int) int { return payload + p.FrameOverhead }

// SerializationDelay is the time to push n bytes through one link.
func (p Params) SerializationDelay(n int) sim.Time {
	return sim.Time(float64(n) / p.LinkBandwidth * 1e12)
}
