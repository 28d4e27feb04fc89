package core

import (
	"testing"

	"xenic/internal/check"
	"xenic/internal/sim"
	"xenic/internal/workload/tpcc"
)

// TestTPCCBlindWriteSerializable pins the blind-write validation bug the
// checksweep surfaced: B+tree blind writes (TPC-C district updates and
// order inserts) used to validate their generation-time host-observed
// versions only against the NIC index, which forgets a key's version once
// the host applies the logged write. Two transactions observing the same
// stale version then both committed, installing duplicate versions — lost
// updates visible as mutual ww cycles on district rows. The fix DMA-reads
// the authoritative row header when the index no longer tracks the key.
// Seed 1 with 2 warehouses/server reproduced the cycle before the fix.
func TestTPCCBlindWriteSerializable(t *testing.T) {
	g := tpcc.New()
	g.WarehousesPerServer = 2
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Replication = 3
	cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = 2, 2, 4
	cfg.Outstanding = 4
	cfg.Seed = 1
	h := check.NewHistory()
	cl, err := New(cfg, g, Observers{History: h})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(3 * sim.Millisecond)
	if !cl.Drain(100 * sim.Millisecond) {
		t.Fatal("cluster did not drain")
	}
	if h.Len() == 0 {
		t.Fatal("history recorded nothing")
	}
	if rep := h.Check(); !rep.Ok() {
		t.Fatalf("TPC-C blind writes broke serializability:\n%s", rep.String())
	}
	if err := cl.AuditHistory(); err != nil {
		t.Fatal(err)
	}
}
