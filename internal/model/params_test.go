package model

import (
	"testing"

	"xenic/internal/sim"
)

func TestDefaultsMatchTestbed(t *testing.T) {
	p := Default()
	if p.LinksPerNode != 2 || p.LinkBandwidth != 6.25e9 {
		t.Fatalf("links: %d x %.2e", p.LinksPerNode, p.LinkBandwidth)
	}
	if p.NICCores != 24 {
		t.Fatalf("NIC cores %d, LiquidIO 3 has 24", p.NICCores)
	}
	if p.DMAVectorMax != 15 || p.DMAQueues != 8 {
		t.Fatalf("DMA geometry %d/%d, §3.5 says 15-element vectors, 8 queues", p.DMAVectorMax, p.DMAQueues)
	}
	// §3.5 measured values.
	if p.DMAReadLatency != 1295*sim.Nanosecond || p.DMAWriteLatency != 570*sim.Nanosecond {
		t.Fatal("DMA completion latencies drifted from §3.5")
	}
	if p.DMAEngineRate != 8.7e6 {
		t.Fatal("DMA engine rate drifted from §3.5")
	}
	// §3.4: CX5 13.5-15Mops.
	if p.RDMAMsgRate < 13.5e6 || p.RDMAMsgRate > 15e6 {
		t.Fatalf("RDMA message rate %.1fM outside §3.4 range", p.RDMAMsgRate/1e6)
	}
	// §5.6: 0.31x per-thread ratio.
	if p.NICCoreSpeed != 0.31 {
		t.Fatalf("NIC core speed %.2f, §5.6 says 0.31", p.NICCoreSpeed)
	}
}

func TestOneLink(t *testing.T) {
	p := Default().OneLink()
	if p.LinksPerNode != 1 {
		t.Fatal("OneLink did not reduce links")
	}
	if p.TotalBandwidth() != 6.25e9 {
		t.Fatalf("one-link bandwidth %.2e", p.TotalBandwidth())
	}
	if Default().TotalBandwidth() != 12.5e9 {
		t.Fatalf("two-link bandwidth %.2e", Default().TotalBandwidth())
	}
}

func TestHostScaled(t *testing.T) {
	p := Default()
	got := p.HostScaled(310 * sim.Nanosecond)
	if got != 1000*sim.Nanosecond {
		t.Fatalf("HostScaled(310ns) = %v, want 1us at 0.31x", got)
	}
}

func TestSerialization(t *testing.T) {
	p := Default()
	if p.WireBytes(100) != 100+p.FrameOverhead {
		t.Fatal("WireBytes")
	}
	// 1250 bytes at 6.25GB/s per link = 200ns.
	if d := p.SerializationDelay(1250); d != 200*sim.Nanosecond {
		t.Fatalf("SerializationDelay(1250) = %v", d)
	}
	// §3.3 calibration: 16 NIC threads at the echo costs ~= 71.8Mops/s.
	perOp := p.NICFrameRx + p.NICMsgHandle + p.NICFrameTx
	rate := 16.0 / perOp.Seconds()
	if rate < 65e6 || rate > 78e6 {
		t.Fatalf("NIC echo model gives %.1fM ops/s, §3.3 measured 71.8M", rate/1e6)
	}
	// Host: 16 threads / HostRPCHandle ~= 23Mops/s.
	hostRate := 16.0 / p.HostRPCHandle.Seconds()
	if hostRate < 21e6 || hostRate > 25e6 {
		t.Fatalf("host echo model gives %.1fM ops/s, §3.3 measured 23.0M", hostRate/1e6)
	}
}
