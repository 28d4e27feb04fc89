package core

import (
	"testing"

	"xenic/internal/check"
	"xenic/internal/sim"
	"xenic/internal/workload/tpcc"
)

// blindWriteCases are TPC-C runs that reach both callers of checkKey. The
// standard mix commits mostly through the host-local path (coordLocalCommit,
// every key checked); the new-order variant draws its items uniformly, so
// its new-orders are distributed and their district and order rows are
// locked and checked in lockBlindBTree.
var blindWriteCases = []struct {
	name string
	gen  func() *tpcc.Gen
	seed int64
}{
	{"mix", tpcc.New, 1},
	{"neworder", tpcc.NewOrderVariant, 4},
}

// blindWriteRun runs g for 3 ms on a 4-node cluster with 2 warehouses per
// server and a history attached, drains it and returns it with the
// checker's report.
func blindWriteRun(t *testing.T, g *tpcc.Gen, seed int64) (*Cluster, *check.Report) {
	t.Helper()
	g.WarehousesPerServer = 2
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Replication = 3
	cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = 2, 2, 4
	cfg.Outstanding = 4
	cfg.Seed = seed
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
	return cl, h.Check()
}

// TestTPCCBlindWriteSerializable pins the blind-write validation bug the
// checksweep surfaced: B+tree blind writes (TPC-C district updates and
// order inserts) used to validate their generation-time host-observed
// versions only against the NIC index, which forgets a key's version once
// the host applies the logged write. Two transactions observing the same
// stale version then both committed, installing duplicate versions — lost
// updates visible as mutual ww cycles on district rows. The fix DMA-reads
// the authoritative row header when the index no longer tracks the key.
// The mix at seed 1 reproduced the cycle before the fix; both cases are the
// controls of TestCheckerCatchesTrustObserved.
func TestTPCCBlindWriteSerializable(t *testing.T) {
	for _, tc := range blindWriteCases {
		t.Run(tc.name, func(t *testing.T) {
			cl, rep := blindWriteRun(t, tc.gen(), tc.seed)
			if !rep.Ok() {
				t.Fatalf("TPC-C blind writes broke serializability:\n%s", rep.String())
			}
			if err := cl.AuditHistory(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
