package core

import (
	"cmp"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"xenic/internal/sim"
	"xenic/internal/store/btree"
	"xenic/internal/workload/tpcc"
)

// span is the address range of one slice's backing array, capacity
// included.
type span struct{ lo, hi uintptr }

func spanOf(v []byte) span {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
	return span{p, p + uintptr(cap(v))}
}

// heldValues returns the backing arrays of every value the cluster keeps:
// each node's primary and backup replicas (hash table and B+tree), its MVCC
// chains and its host-log records, live or not.
func heldValues(cl *Cluster) []span {
	var held []span
	add := func(v []byte) {
		if cap(v) > 0 {
			held = append(held, spanOf(v))
		}
	}
	addStore := func(s *ShardData) {
		s.Hash.ForEach(func(_, _ uint64, v []byte) bool { add(v); return true })
		s.BTree.AscendRange(0, ^uint64(0), func(it btree.Item) bool { add(it.Value); return true })
		for _, c := range s.mv {
			add(c.vals)
		}
	}
	for _, n := range cl.nodes {
		for _, p := range n.prims {
			addStore(p.data)
		}
		for _, b := range n.backups {
			addStore(b)
		}
		for r := range n.log.records() {
			for _, kv := range r.writes {
				add(kv.Value)
			}
		}
	}
	return held
}

// freeRowsHeld counts the rows on the nodes' Rows free lists, and those of
// them that share a backing array with a value the cluster keeps.
func freeRowsHeld(cl *Cluster) (free, held int) {
	spans := heldValues(cl)
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	// maxHi[i] is the highest end among spans[:i+1]: a row [lo, hi) overlaps
	// some span iff one starting below hi ends above lo.
	maxHi := make([]uintptr, len(spans))
	for i, s := range spans {
		maxHi[i] = s.hi
		if i > 0 {
			maxHi[i] = max(maxHi[i], maxHi[i-1])
		}
	}
	for _, n := range cl.nodes {
		n.rows.EachFree(func(row []byte) {
			free++
			r := spanOf(row)
			if i := sort.Search(len(spans), func(i int) bool { return spans[i].lo >= r.hi }); i > 0 && maxHi[i-1] > r.lo {
				held++
			}
		})
	}
	return free, held
}

// rowsRun runs TPC-C on Xenic at a small, contended population — most
// transactions local, most attempts aborting — killing node victim's
// primary part-way unless victim < 0, and drains it. Every 500us, and after
// the drain, it counts the free rows and those a kept value shares (see
// freeRowsHeld), summed over the checks.
func rowsRun(t *testing.T, victim int) (cl *Cluster, free, held int) {
	t.Helper()
	g := tpcc.New()
	g.WarehousesPerServer, g.ItemsPerWarehouse, g.CustomersPerDistrict = 1, 60, 6
	cfg := testConfig(4, AllFeatures())
	cfg.MVCC = true
	cfg.MaxRetries = 1 << 20
	cl, err := New(cfg, g, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		f, h := freeRowsHeld(cl)
		free, held = free+f, held+h
	}
	cl.Start()
	for step := 0; step < 8; step++ {
		if step == 4 && victim >= 0 {
			cl.Kill(victim)
		}
		cl.Run(500 * sim.Microsecond)
		check()
	}
	if !cl.Drain(800 * sim.Millisecond) {
		t.Fatal("cluster did not quiesce")
	}
	check()
	return cl, free, held
}

// TestFreeRowsNeverHeld is the ownership oracle of the host-local path's
// execution rows (DESIGN.md §16): a row goes back to its node's Rows only
// from an attempt that never reached the log, so no row on any free list
// backs a value a store replica, a host-log record or a version chain
// holds — during the run and after the drain, with and without a primary
// killed mid-run (which keeps every log record). Under
// mutRecycleLoggedRows, which also gives back the rows of attempts that
// reached the log, the same runs must fail it.
func TestFreeRowsNeverHeld(t *testing.T) {
	for _, tc := range []struct {
		name   string
		victim int
	}{{"fault-free", -1}, {"primary-kill", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			cl, free, held := rowsRun(t, tc.victim)
			if err := cl.ReplicasConsistent(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d free rows checked", free)
			if free == 0 {
				t.Fatal("no free rows at any check: no local attempt aborted, so nothing was checked")
			}
			if held > 0 {
				t.Fatalf("%d of %d free rows back a value a replica, log record or version chain keeps", held, free)
			}
		})
		t.Run(tc.name+"/mutant", func(t *testing.T) {
			mutRecycleLoggedRows = true
			defer func() { mutRecycleLoggedRows = false }()
			if _, free, held := rowsRun(t, tc.victim); held == 0 {
				t.Fatalf("the oracle missed mutRecycleLoggedRows: none of %d free rows is held", free)
			}
		})
	}
}
