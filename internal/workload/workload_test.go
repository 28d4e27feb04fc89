// Package workload_test runs each benchmark end to end on small clusters of
// both the Xenic system and a baseline, checking that transactions commit,
// the cluster quiesces, and replicas converge.
package workload_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"xenic/internal/baseline"
	"xenic/internal/core"
	"xenic/internal/sim"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
	"xenic/internal/workload/retwis"
	"xenic/internal/workload/smallbank"
	"xenic/internal/workload/tpcc"
)

func smallTPCC(newOrderOnly bool) *tpcc.Gen {
	var g *tpcc.Gen
	if newOrderOnly {
		g = tpcc.NewOrderVariant()
	} else {
		g = tpcc.New()
	}
	g.WarehousesPerServer = 4
	g.ItemsPerWarehouse = 400
	g.CustomersPerDistrict = 20
	return g
}

func smallRetwis() *retwis.Gen {
	g := retwis.New()
	g.KeysPerServer = 20000
	return g
}

func smallSmallbank() *smallbank.Gen {
	g := smallbank.New()
	g.AccountsPerServer = 20000
	return g
}

func runXenic(t *testing.T, gen txnmodel.Generator, dur sim.Time) *core.Cluster {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Nodes = 4
	cfg.AppThreads = 2
	cfg.WorkerThreads = 2
	cfg.NICCores = 6
	cfg.Outstanding = 4
	cl, err := core.New(cfg, gen, core.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(dur)
	if !cl.Drain(time500()) {
		t.Fatalf("%s did not quiesce", gen.Name())
	}
	var committed int64
	for i := 0; i < cl.Nodes(); i++ {
		committed += cl.Node(i).Stats().Committed
	}
	if committed == 0 {
		t.Fatalf("%s committed nothing", gen.Name())
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := cl.ReplicasConsistent(); err != nil {
		t.Fatal(err)
	}
	return cl
}

func time500() sim.Time { return 500 * sim.Millisecond }

func runBaseline(t *testing.T, sys baseline.System, gen txnmodel.Generator, dur sim.Time) {
	t.Helper()
	cfg := baseline.DefaultConfig(sys)
	cfg.Nodes = 4
	cfg.Threads = 4
	cfg.Outstanding = 4
	cl, err := baseline.New(cfg, gen, baseline.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(dur)
	if !cl.Drain(time500()) {
		t.Fatalf("%v/%s did not quiesce", sys, gen.Name())
	}
	if err := cl.ReplicasConsistent(); err != nil {
		t.Fatal(err)
	}
	var committed int64
	for i := 0; i < 4; i++ {
		committed += cl.Node(i).Stats().Committed
	}
	if committed == 0 {
		t.Fatalf("%v/%s committed nothing", sys, gen.Name())
	}
}

func TestSmallbankXenic(t *testing.T) {
	cl := runXenic(t, smallSmallbank(), 10*sim.Millisecond)
	// Money conservation: total balance is invariant under every
	// Smallbank transaction except WriteCheck's overdraft fee and
	// deposits; instead verify commit accounting matched writes.
	var aborts int64
	for i := 0; i < cl.Nodes(); i++ {
		aborts += cl.Node(i).Stats().Aborts
	}
	t.Logf("smallbank aborts: %d", aborts)
}

func TestRetwisXenic(t *testing.T) {
	runXenic(t, smallRetwis(), 10*sim.Millisecond)
}

func TestTPCCNewOrderXenic(t *testing.T) {
	cl := runXenic(t, smallTPCC(true), 10*sim.Millisecond)
	var measured int64
	for i := 0; i < cl.Nodes(); i++ {
		measured += cl.Node(i).Stats().Measured
	}
	if measured == 0 {
		t.Fatal("no new orders measured")
	}
}

func TestTPCCFullXenic(t *testing.T) {
	cl := runXenic(t, smallTPCC(false), 10*sim.Millisecond)
	var measured, committed int64
	for i := 0; i < cl.Nodes(); i++ {
		measured += cl.Node(i).Stats().Measured
		committed += cl.Node(i).Stats().Committed
	}
	if measured == 0 {
		t.Fatal("no new orders measured")
	}
	// New orders are ~45% of the mix.
	frac := float64(measured) / float64(committed)
	if frac < 0.3 || frac > 0.6 {
		t.Fatalf("new-order fraction %.2f out of range", frac)
	}
}

func TestSmallbankBaselines(t *testing.T) {
	for _, sys := range []baseline.System{baseline.DrTMH, baseline.FaSST} {
		runBaseline(t, sys, smallSmallbank(), 5*sim.Millisecond)
	}
}

func TestRetwisBaselines(t *testing.T) {
	for _, sys := range []baseline.System{baseline.DrTMH, baseline.DrTMHNC} {
		runBaseline(t, sys, smallRetwis(), 5*sim.Millisecond)
	}
}

func TestTPCCBaseline(t *testing.T) {
	runBaseline(t, baseline.DrTMH, smallTPCC(true), 5*sim.Millisecond)
	runBaseline(t, baseline.DrTMR, smallTPCC(false), 5*sim.Millisecond)
}

func TestGeneratorShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := smallTPCC(false)
	g.Placement(4, 3)
	counts := map[uint16]int{}
	for i := 0; i < 5000; i++ {
		d := g.Next(0, 0, rng)
		counts[d.FnID]++
		if len(d.UpdateKeys) == 0 && len(d.BlindWrites) == 0 && len(d.ReadKeys) == 0 {
			t.Fatal("empty transaction")
		}
	}
	// New-order (fn 1) ~45%, payment (fn 2) ~43%.
	if counts[1] < 2000 || counts[1] > 2600 {
		t.Fatalf("new-order count %d out of range", counts[1])
	}
	if counts[2] < 1900 || counts[2] > 2500 {
		t.Fatalf("payment count %d out of range", counts[2])
	}

	rw := smallRetwis()
	rw.Placement(4, 3)
	readOnly := 0
	for i := 0; i < 5000; i++ {
		d := rw.Next(0, 0, rng)
		n := len(d.ReadKeys) + len(d.UpdateKeys)
		if n < 1 || n > 10 {
			t.Fatalf("retwis txn with %d keys", n)
		}
		if d.ReadOnly() {
			readOnly++
		}
	}
	if readOnly < 2200 || readOnly > 2800 {
		t.Fatalf("retwis read-only fraction %d/5000", readOnly)
	}

	sb := smallSmallbank()
	sb.Placement(4, 3)
	readOnly = 0
	for i := 0; i < 5000; i++ {
		d := sb.Next(0, 0, rng)
		if len(d.ReadKeys)+len(d.UpdateKeys) > 3 {
			t.Fatalf("smallbank txn with >3 keys")
		}
		if d.ReadOnly() {
			readOnly++
		}
	}
	if readOnly < 550 || readOnly > 950 {
		t.Fatalf("smallbank read-only %d/5000, want ~15%%", readOnly)
	}
}

func TestTPCCKeyEncoding(t *testing.T) {
	g := smallTPCC(false)
	p := g.Placement(6, 3)
	// All district/order keys of a warehouse share its shard and are
	// B+tree keys; stock/customer are hash keys.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		d := g.Next(3, 0, rng)
		for _, kv := range d.BlindWrites {
			if !p.IsBTree(kv.Key) && (kv.Key>>56) != 1 && (kv.Key>>56) != 3 && (kv.Key>>56) != 9 {
				t.Fatalf("blind write to unexpected table %d", kv.Key>>56)
			}
			if p.IsBTree(kv.Key) && p.ShardOf(kv.Key) != 3 {
				t.Fatalf("B+tree blind write to remote shard %d", p.ShardOf(kv.Key))
			}
		}
		for _, k := range d.UpdateKeys {
			if p.IsBTree(k) {
				t.Fatal("B+tree key in UpdateKeys")
			}
		}
	}
}

// overlaps reports whether a's and b's backing arrays share a byte, counting
// each slice's capacity: a write must not even be able to grow into a read.
func overlaps(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	pb := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}

// TestExecWritesNeverAliasReads audits every registered execution function
// of TPC-C, Smallbank and Retwis against the ownership rule the stores rely
// on: each write's value is a slice no read's backing array overlaps, and
// the function leaves its reads' bytes alone. Read values can be the NIC
// index's own cell buffers, which it overwrites in place for the same key; a
// write aliasing one would hand that buffer to three host tables.
//
// Each function then runs again with a Rows whose free list holds one row
// per write, every byte 0xFF, the way an aborted attempt leaves them on the
// host-local path: the output must equal the nil-Rows call's byte for byte
// (the function writes every byte of a reused row), and every write value
// must be a distinct one of those rows (it builds each write in a row it is
// lent, so a release never hands a template or a read to the next writer).
func TestExecWritesNeverAliasReads(t *testing.T) {
	for _, g := range []txnmodel.Generator{smallTPCC(false), smallSmallbank(), smallRetwis()} {
		t.Run(g.Name(), func(t *testing.T) {
			g.Placement(4, 3)
			reg := txnmodel.NewRegistry()
			g.Register(reg)
			rng := rand.New(rand.NewSource(5))
			ran := 0
			for i := 0; i < 3000; i++ {
				d := g.Next(i%4, 0, rng)
				fn, ok := reg.Get(d.FnID)
				if d.FnID == 0 || !ok {
					continue
				}
				// Reads arrive as ReadKeys, UpdateKeys, then the blind-write
				// keys; each gets its own buffer, of 8 bytes up to the largest
				// row, so a row built from a shorter read shows whether the
				// function writes the rest of it.
				var reads []wire.KV
				for k := 0; k < d.NumKeys(); k++ {
					v := make([]byte, 8+rng.Intn(693))
					rng.Read(v)
					reads = append(reads, wire.KV{Key: d.Key(k), Version: uint64(1 + rng.Intn(9)), Value: v})
				}
				was := make([][]byte, len(reads))
				for j, r := range reads {
					was[j] = bytes.Clone(r.Value)
				}
				res := fn.Run(d.State, reads, nil)
				ran++
				for _, w := range res.Writes {
					for _, r := range reads {
						if overlaps(w.Value, r.Value) {
							t.Fatalf("fn %d: the write of key %d aliases the read of key %d", d.FnID, w.Key, r.Key)
						}
					}
				}
				rows := &txnmodel.Rows{}
				lent := map[*byte]bool{}
				for _, w := range res.Writes {
					p := bytes.Repeat([]byte{0xFF}, len(w.Value))
					rows.Release(p)
					lent[&p[0]] = true
				}
				got := fn.Run(d.State, reads, rows)
				if got.Abort != res.Abort || !slices.Equal(got.MoreReads, res.MoreReads) || len(got.Writes) != len(res.Writes) {
					t.Fatalf("fn %d: with reused rows the result differs: %+v, want %+v", d.FnID, got, res)
				}
				for j, w := range got.Writes {
					want := res.Writes[j]
					if w.Key != want.Key || w.Version != want.Version || !bytes.Equal(w.Value, want.Value) {
						t.Fatalf("fn %d: with reused rows write %d is %d=%x, want %d=%x",
							d.FnID, j, w.Key, w.Value, want.Key, want.Value)
					}
					if !lent[&w.Value[0]] {
						t.Fatalf("fn %d: write %d (key %d) is not a distinct row its Rows lent", d.FnID, j, w.Key)
					}
					delete(lent, &w.Value[0])
				}
				for j, r := range reads {
					if !bytes.Equal(r.Value, was[j]) {
						t.Fatalf("fn %d wrote into the read of key %d", d.FnID, r.Key)
					}
				}
			}
			if ran == 0 {
				t.Fatal("no transaction ran an execution function")
			}
		})
	}
}
