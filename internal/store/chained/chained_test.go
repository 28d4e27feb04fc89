package chained

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"xenic/internal/raceflag"
)

func TestInsertLookupDelete(t *testing.T) {
	tb := New(64, 4)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 300) // forces chains: >B keys per root on average
	for i := range keys {
		keys[i] = rng.Uint64()
		tb.Insert(keys[i], []byte{byte(i)}, uint64(i+1))
	}
	if tb.Len() != 300 {
		t.Fatalf("len = %d", tb.Len())
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	multiRT := 0
	for i, k := range keys {
		r := tb.Lookup(k)
		if !r.Found || r.Version != uint64(i+1) {
			t.Fatalf("lookup %d: %+v", k, r)
		}
		if r.ObjectsRead != r.Roundtrips*tb.B() {
			t.Fatalf("cost mismatch: %+v", r)
		}
		if r.Roundtrips > 1 {
			multiRT++
		}
	}
	if multiRT == 0 {
		t.Fatal("no chained lookups despite 300 keys in 64x4 roots")
	}
	for _, k := range keys {
		if !tb.Delete(k) {
			t.Fatalf("delete %d", k)
		}
		if err := tb.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Len() != 0 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestUpdateInPlace(t *testing.T) {
	tb := New(16, 4)
	tb.Insert(9, []byte("a"), 1)
	tb.Insert(9, []byte("b"), 2)
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
	if r := tb.Lookup(9); string(r.Value) != "b" {
		t.Fatalf("%+v", r)
	}
}

func TestMissCost(t *testing.T) {
	tb := New(16, 8)
	r := tb.Lookup(77)
	if r.Found || r.ObjectsRead != 8 || r.Roundtrips != 1 {
		t.Fatalf("%+v", r)
	}
}

func TestDeleteCompactsFromChainTail(t *testing.T) {
	tb := New(1, 2) // single root bucket, B=2: keys chain deterministically
	for k := uint64(1); k <= 6; k++ {
		tb.Insert(k, []byte("v"), k)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Delete a root-bucket key; the tail entry must fill the hole.
	if !tb.Delete(1) {
		t.Fatal("delete failed")
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(2); k <= 6; k++ {
		if !tb.Lookup(k).Found {
			t.Fatalf("lost %d", k)
		}
	}
	// Chain should have shrunk by one entry's roundtrip cost for the tail key.
	if tb.Len() != 5 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestBadBucketSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(16, 0)
}

func TestModelEquivalence(t *testing.T) {
	f := func(ops []uint16) bool {
		tb := New(16, 4)
		model := map[uint64]uint64{}
		v := uint64(0)
		for _, op := range ops {
			k := uint64(op % 41)
			if op%3 == 0 {
				_, in := model[k]
				if tb.Delete(k) != in {
					return false
				}
				delete(model, k)
			} else {
				v++
				tb.Insert(k, []byte{1}, v)
				model[k] = v
			}
			if tb.CheckInvariants() != nil {
				return false
			}
		}
		for k, ver := range model {
			r := tb.Lookup(k)
			if !r.Found || r.Version != ver {
				return false
			}
		}
		return len(model) == tb.Len()
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// modelRow is the oracle's record of one key.
type modelRow struct {
	v   []byte
	ver uint64
}

// checkAgainstModel compares the whole table with the oracle: invariants
// (which include one value cell per stored entry), Len, and ForEach as a set.
func checkAgainstModel(t *testing.T, tb *Table, model map[uint64]modelRow) {
	t.Helper()
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != len(model) {
		t.Fatalf("len %d, oracle %d", tb.Len(), len(model))
	}
	seen := 0
	tb.ForEach(func(key, version uint64, value []byte) bool {
		want, ok := model[key]
		if !ok || want.ver != version || !bytes.Equal(want.v, value) {
			t.Fatalf("ForEach key %d: version %d, %dB value; oracle has it %v at version %d with %dB",
				key, version, len(value), ok, want.ver, len(want.v))
		}
		seen++
		return true
	})
	if seen != len(model) {
		t.Fatalf("ForEach visited %d keys, oracle holds %d", seen, len(model))
	}
}

// TestTableAgainstModel drives seeded random Insert / Delete / Lookup
// sequences against a plain map, over a key range small enough that chains
// grow, drain to empty linked buckets and refill. The one-root B=2 shape is
// a single long chain, so every delete compacts across buckets.
func TestTableAgainstModel(t *testing.T) {
	const ops = 20_000
	shapes := []struct {
		name           string
		roots, b, keys int
	}{
		{"roots=1,B=2", 1, 2, 24},
		{"roots=16,B=4", 16, 4, 200},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sh.name, seed), func(t *testing.T) {
				tb := New(sh.roots, sh.b)
				rng := rand.New(rand.NewSource(seed))
				model := map[uint64]modelRow{}
				chained := 0
				for op := 1; op <= ops; op++ {
					key := uint64(rng.Intn(sh.keys))
					want, present := model[key]
					switch x := rng.Intn(100); {
					case x < 45:
						v := make([]byte, rng.Intn(20))
						rng.Read(v)
						tb.Insert(key, v, uint64(op))
						model[key] = modelRow{v, uint64(op)}
					case x < 75:
						if got := tb.Delete(key); got != present {
							t.Fatalf("op %d: delete %d = %v, oracle has it: %v", op, key, got, present)
						}
						delete(model, key)
					default:
						r := tb.Lookup(key)
						if r.Found != present || r.Version != want.ver || !bytes.Equal(r.Value, want.v) {
							t.Fatalf("op %d: lookup %d = %+v, oracle %v %+v", op, key, r, present, want)
						}
						if r.Roundtrips < 1 || r.ObjectsRead != r.Roundtrips*sh.b {
							t.Fatalf("op %d: lookup cost %+v with B=%d", op, r, sh.b)
						}
						if r.Roundtrips > 1 {
							chained++
						}
					}
					if op%250 == 0 {
						checkAgainstModel(t, tb, model)
					}
				}
				checkAgainstModel(t, tb, model)
				if chained == 0 {
					t.Fatal("no lookup followed a chain link")
				}
			})
		}
	}
}

// TestLookupValueImmutable pins install-by-pointing: a slice Lookup returned
// keeps its bytes through any number of later updates, deletes and
// re-inserts of that key and its neighbours (callers hold such slices in
// in-flight RDMA read results).
func TestLookupValueImmutable(t *testing.T) {
	tb := New(4, 2)
	rng := rand.New(rand.NewSource(12))
	const keys = 32
	for k := uint64(0); k < keys; k++ {
		v := make([]byte, 12)
		rng.Read(v)
		tb.Insert(k, v, 1)
	}
	type held struct {
		key       uint64
		got, want []byte
	}
	var handed []held
	hold := func(k uint64) {
		if r := tb.Lookup(k); r.Found {
			handed = append(handed, held{k, r.Value, append([]byte(nil), r.Value...)})
		}
	}
	for k := uint64(0); k < keys; k += 5 {
		hold(k)
	}
	for op := 0; op < 1000; op++ {
		k := (uint64(rng.Intn(keys/5+1))*5 + uint64(rng.Intn(3))) % keys
		if rng.Intn(3) == 0 {
			tb.Delete(k)
		} else {
			v := make([]byte, 12)
			rng.Read(v)
			tb.Insert(k, v, uint64(op+2))
		}
		if op%100 == 0 {
			hold(k)
		}
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, h := range handed {
		if !bytes.Equal(h.got, h.want) {
			t.Fatalf("key %d: a value handed out by Lookup changed under later writes: %x, was %x", h.key, h.got, h.want)
		}
	}
}

// TestStoreAdoptsValue pins the ownership rule: Insert keeps the slice it
// is handed, capacity clipped, instead of copying it, so rewriting a present
// key allocates nothing, and a value an earlier Lookup returned keeps its
// bytes after the key is rewritten.
func TestStoreAdoptsValue(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tb := New(4, 2)
	row := []byte("row")
	for k := uint64(0); k < 32; k++ {
		tb.Insert(k, row, 1)
	}
	// Spare capacity behind a value must not be reachable from the table.
	var vals [2][]byte
	for i := range vals {
		vals[i] = make([]byte, 12, 20)
		for j := range vals[i] {
			vals[i][j] = byte('a' + i)
		}
	}
	tb.Insert(7, vals[0], 2)
	held := tb.Lookup(7)
	if &held.Value[0] != &vals[0][0] || cap(held.Value) != len(vals[0]) {
		t.Fatal("Insert copied the value instead of adopting it, or kept its spare capacity")
	}
	was := bytes.Clone(held.Value)
	i := 0
	rewrite := func() {
		i++
		tb.Insert(7, vals[i%2], uint64(2+i))
	}
	if n := testing.AllocsPerRun(100, rewrite); n != 0 {
		t.Fatalf("rewriting a present key allocates %v objects, want 0", n)
	}
	if !bytes.Equal(held.Value, was) {
		t.Fatalf("a value Lookup returned changed after its key was rewritten: %q, was %q", held.Value, was)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSmallbankTableFootprint holds the baselines' Smallbank table — 32 768
// roots of 8, 18 of them per cluster — to its flat layout: a 24-byte
// pointer-free entry and no per-bucket allocation (13 MiB live when each
// root was a header plus its own []Entry).
func TestSmallbankTableFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow memory is part of the heap")
	}
	if got := unsafe.Sizeof(entry{}); got != 24 {
		t.Fatalf("entry is %d bytes, want 24", got)
	}
	liveHeap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	before := liveHeap()
	tb := New(16_666, 8)
	row := make([]byte, 12)
	for k := uint64(0); k < 80_000; k++ {
		tb.Insert(k, row, 1)
	}
	mib := liveHeap() - before
	runtime.KeepAlive(tb)
	t.Logf("%d roots of %d, %d rows: %.1f MiB live", tb.Roots(), tb.B(), tb.Len(), mib)
	if mib > 10.6 {
		t.Fatalf("Smallbank table holds %.1f MiB live, want at most 10.6", mib)
	}
}
