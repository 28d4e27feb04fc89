package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"xenic/internal/raceflag"
)

func TestInsertGet(t *testing.T) {
	tr := New()
	for k := uint64(0); k < 5000; k++ {
		tr.Insert(k*7919%5000, []byte{byte(k)}, k)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 5000; k++ {
		if _, ok := tr.Get(k); !ok {
			t.Fatalf("missing key %d", k)
		}
	}
	if _, ok := tr.Get(99999); ok {
		t.Fatal("found absent key")
	}
}

func TestInsertReplaces(t *testing.T) {
	tr := New()
	tr.Insert(5, []byte("a"), 1)
	tr.Insert(5, []byte("b"), 2)
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
	it, ok := tr.Get(5)
	if !ok || string(it.Value) != "b" || it.Version != 2 {
		t.Fatalf("%+v", it)
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	keys := map[uint64]bool{}
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(10000))
		tr.Insert(k, []byte("v"), 1)
		keys[k] = true
	}
	for k := range keys {
		if !tr.Delete(k) {
			t.Fatalf("delete %d failed", k)
		}
		delete(keys, k)
		if len(keys)%500 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("len = %d after deleting all", tr.Len())
	}
	if tr.Delete(42) {
		t.Fatal("deleted absent key")
	}
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for k := uint64(0); k < 1000; k += 2 {
		tr.Insert(k, []byte("v"), k)
	}
	var got []uint64
	tr.AscendRange(100, 120, func(it Item) bool {
		got = append(got, it.Key)
		return true
	})
	want := []uint64{100, 102, 104, 106, 108, 110, 112, 114, 116, 118}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	tr.AscendRange(0, 1000, func(it Item) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
	// Empty range.
	n = 0
	tr.AscendRange(500, 500, func(Item) bool { n++; return true })
	if n != 0 {
		t.Fatal("empty range visited items")
	}
}

func TestOrderedIterationMatchesSort(t *testing.T) {
	f := func(keys []uint64) bool {
		tr := New()
		uniq := map[uint64]bool{}
		for _, k := range keys {
			tr.Insert(k, []byte("v"), 1)
			uniq[k] = true
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		var want []uint64
		for k := range uniq {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []uint64
		tr.AscendRange(0, ^uint64(0), func(it Item) bool {
			got = append(got, it.Key)
			return true
		})
		// ^uint64(0) as hi excludes MaxUint64 itself; add it back if present.
		if uniq[^uint64(0)] {
			got = append(got, ^uint64(0))
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMapModelEquivalence(t *testing.T) {
	f := func(ops []uint16) bool {
		tr := New()
		model := map[uint64]uint64{}
		v := uint64(0)
		for _, op := range ops {
			k := uint64(op % 211)
			if op%4 == 0 {
				_, in := model[k]
				if tr.Delete(k) != in {
					return false
				}
				delete(model, k)
			} else {
				v++
				tr.Insert(k, []byte{byte(v)}, v)
				model[k] = v
			}
		}
		if tr.CheckInvariants() != nil || tr.Len() != len(model) {
			return false
		}
		for k, ver := range model {
			it, ok := tr.Get(k)
			if !ok || it.Version != ver {
				return false
			}
		}
		return true
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

// checkAgainstModel compares the whole tree with the oracle: invariants,
// Len, and a full ascending scan against the sorted oracle keys, values and
// versions included.
func checkAgainstModel(t *testing.T, tr *Tree, model map[uint64]modelRow) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(model) {
		t.Fatalf("len %d, oracle %d", tr.Len(), len(model))
	}
	want := make([]uint64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	slices.Sort(want)
	i := 0
	tr.AscendRange(0, ^uint64(0), func(it Item) bool {
		if i >= len(want) || it.Key != want[i] {
			t.Fatalf("scan position %d: key %d, oracle has %v", i, it.Key, want[min(i, len(want)-1):])
		}
		if m := model[it.Key]; it.Version != m.ver || !bytes.Equal(it.Value, m.v) {
			t.Fatalf("scan key %d: version %d value %x, oracle version %d value %x", it.Key, it.Version, it.Value, m.ver, m.v)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("scan visited %d keys, oracle holds %d", i, len(want))
	}
}

// modelDriver applies one seeded operation mix to a tree and to its map
// oracle, comparing every answer.
type modelDriver struct {
	t       *testing.T
	tr      *Tree
	rng     *rand.Rand
	model   map[uint64]modelRow
	present []uint64 // keys ever inserted, for rewrites and deletes
}

func newModelDriver(t *testing.T, seed int64) *modelDriver {
	return &modelDriver{t: t, tr: New(), rng: rand.New(rand.NewSource(seed)), model: map[uint64]modelRow{}}
}

// step applies operation op to key k: 60 % Insert, 15 % Delete, 20 % Get
// and 5 % a bounded AscendRange from k.
func (d *modelDriver) step(op int, k uint64) {
	t, tr, rng := d.t, d.tr, d.rng
	want, in := d.model[k]
	switch x := rng.Intn(100); {
	case x < 60:
		v := make([]byte, 1+rng.Intn(24))
		rng.Read(v)
		tr.Insert(k, v, uint64(op))
		d.model[k] = modelRow{v, uint64(op)}
		if !in {
			d.present = append(d.present, k)
		}
	case x < 75:
		d.delete(op, k)
	case x < 95:
		it, ok := tr.Get(k)
		if ok != in || ok && (it.Key != k || it.Version != want.ver || !bytes.Equal(it.Value, want.v)) {
			t.Fatalf("op %d: get %d = %+v %v, oracle %v %+v", op, k, it, ok, in, want)
		}
	default:
		lo := k
		hi := lo + uint64(rng.Intn(400))
		limit := 1 + rng.Intn(40)
		var got []uint64
		tr.AscendRange(lo, hi, func(it Item) bool {
			got = append(got, it.Key)
			return len(got) < limit
		})
		var exp []uint64
		for key := range d.model {
			if key >= lo && key < hi {
				exp = append(exp, key)
			}
		}
		slices.Sort(exp)
		exp = exp[:min(len(exp), limit)]
		if !slices.Equal(got, exp) {
			t.Fatalf("op %d: AscendRange[%d,%d) limit %d = %v, oracle %v", op, lo, hi, limit, got, exp)
		}
	}
}

func (d *modelDriver) delete(op int, k uint64) {
	_, in := d.model[k]
	if got := d.tr.Delete(k); got != in {
		d.t.Fatalf("op %d: delete %d = %v, oracle has it: %v", op, k, got, in)
	}
	delete(d.model, k)
}

// TestTreeAgainstModel drives seeded random Insert / Delete / Get /
// AscendRange sequences against a map plus its sorted keys, comparing
// values, versions and scan order. The key range is wide enough for three
// levels, so interior nodes split on the insert path too, and half the keys
// drawn were inserted before, so many inserts rewrite a present key (as
// TPC-C's district and order rows do).
//
// The appends case has TPC-C's insert shape: 120 append points (a district's
// order ids), each taking increasing keys in an order shuffled within a
// window of 16, since most attempts abort and ids commit out of order, and
// half the operations at a point go to one of its 64 newest ids. So full
// leaves shift their lowest items into a left sibling, move the separator
// and send smaller keys left. A delivery now and then deletes a point's 64
// oldest keys, emptying leaves that a shift later refills.
func TestTreeAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d := newModelDriver(t, seed)
			for op := 1; op <= 30_000; op++ {
				var k uint64
				if len(d.present) > 0 && d.rng.Intn(2) == 0 {
					k = d.present[d.rng.Intn(len(d.present))]
				} else {
					k = uint64(d.rng.Intn(20_000))
				}
				d.step(op, k)
				if op%3_000 == 0 {
					checkAgainstModel(t, d.tr, d.model)
				}
			}
			checkAgainstModel(t, d.tr, d.model)
		})
	}
	t.Run("appends", func(t *testing.T) {
		const points, window = 120, 16
		d := newModelDriver(t, 4)
		var next [points]uint64
		for op := 1; op <= 60_000; op++ {
			p := uint64(d.rng.Intn(points))
			base := p << 32
			switch x := d.rng.Intn(151); {
			case x == 0:
				var oldest []uint64
				d.tr.AscendRange(base, base+1<<32, func(it Item) bool {
					oldest = append(oldest, it.Key)
					return len(oldest) < 64
				})
				for _, k := range oldest {
					d.delete(op, k)
				}
			case x%2 == 0:
				d.step(op, base+next[p]-min(next[p], uint64(d.rng.Intn(4*window))))
			default:
				d.step(op, base+next[p]+uint64(d.rng.Intn(window)))
				next[p]++
			}
			if op%6_000 == 0 {
				checkAgainstModel(t, d.tr, d.model)
			}
		}
		checkAgainstModel(t, d.tr, d.model)
	})
}

// TestRewriteAtSplittingSeparator rewrites a present key that is the middle
// separator of a full interior node on its insert path: the split moves that
// key up, and the rewrite must land on its right, where the key lives and
// where Get looks. Routed left, it used to add a second, unreachable copy
// while Get kept returning the old one.
func TestRewriteAtSplittingSeparator(t *testing.T) {
	tr := New()
	var full *node
	for k := uint64(0); full == nil; k++ {
		tr.Insert(k, []byte("old"), 1)
		if tr.root.leaf {
			continue
		}
		for _, c := range tr.root.children {
			if !c.leaf && len(c.items) == 2*degree-1 {
				full = c
			}
		}
	}
	sep := full.items[len(full.items)/2].Key
	n := tr.Len()
	tr.Insert(sep, []byte("new"), 2)
	if it, ok := tr.Get(sep); !ok || string(it.Value) != "new" || it.Version != 2 {
		t.Fatalf("rewrite of separator key %d lost: Get = %+v, %v", sep, it, ok)
	}
	if tr.Len() != n {
		t.Fatalf("rewrite of a present key changed Len from %d to %d", n, tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreAdoptsValue pins the ownership rule: Insert keeps the slice it is
// handed, capacity clipped, instead of copying it, so rewriting a present key
// allocates nothing, and a value an earlier Get returned keeps its bytes
// after the key is rewritten.
func TestStoreAdoptsValue(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tr := New()
	for k := uint64(0); k < 500; k++ {
		tr.Insert(k, []byte("row"), 1)
	}
	// Spare capacity behind a value must not be reachable from the tree.
	vals := [2][]byte{make([]byte, 54, 64), make([]byte, 54, 64)}
	for i, c := range []byte{'a', 'b'} {
		copy(vals[i], bytes.Repeat([]byte{c}, 54))
	}
	tr.Insert(250, vals[0], 3)
	held, _ := tr.Get(250)
	if &held.Value[0] != &vals[0][0] || cap(held.Value) != len(vals[0]) {
		t.Fatal("Insert copied the value instead of adopting it, or kept its spare capacity")
	}
	was := bytes.Clone(held.Value)
	i := 0
	rewrite := func() {
		i++
		tr.Insert(250, vals[i%2], uint64(3+i))
	}
	if n := testing.AllocsPerRun(100, rewrite); n != 0 {
		t.Fatalf("rewriting a present key allocates %v objects, want 0", n)
	}
	if !bytes.Equal(held.Value, was) {
		t.Fatalf("a value Get returned changed after its key was rewritten: %q, was %q", held.Value, was)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTPCCTreeFootprint holds a tree shaped like TPC-C's order tables to its
// live bytes per item: 300 000 inserts of one shared 54-byte row at 120
// append points, each taking increasing keys drawn from a sliding window of
// the next 1, 8 or 64 ids (most attempts abort, so order ids commit out of
// order). An Item is 40 bytes; leaves that shift into their left sibling
// before splitting hold 48-60 B per item here, where 50/50 splits with
// regrown arrays held 73-103.
func TestTPCCTreeFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow memory is part of the heap")
	}
	const points, items, bound = 120, 300_000, 64
	row := make([]byte, 54)
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, jitter := range []int{1, 8, 64} {
		t.Run(fmt.Sprintf("jitter=%d", jitter), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			// window[p] holds point p's next jitter ids, drawn from at random
			// and refilled with the id after the largest one handed out.
			window := make([][]uint64, points)
			next := make([]uint64, points)
			for p := range window {
				for next[p] = 0; next[p] < uint64(jitter); next[p]++ {
					window[p] = append(window[p], uint64(p)<<32|next[p])
				}
			}
			before := liveHeap()
			tr := New()
			for i := 0; i < items; i++ {
				p := rng.Intn(points)
				w := rng.Intn(jitter)
				tr.Insert(window[p][w], row, 1)
				window[p][w] = uint64(p)<<32 | next[p]
				next[p]++
			}
			perItem := float64(liveHeap()-before) / items
			runtime.KeepAlive(tr)
			if tr.Len() != items {
				t.Fatalf("tree holds %d items, want %d", tr.Len(), items)
			}
			t.Logf("%.1f live bytes per item", perItem)
			if perItem > bound {
				t.Fatalf("%.1f live bytes per item, want at most %d", perItem, bound)
			}
		})
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		tr.Insert(rng.Uint64(), []byte("order-line-payload"), uint64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 100000)
	for i := range keys {
		keys[i] = rng.Uint64()
		tr.Insert(keys[i], []byte("v"), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[i%len(keys)])
	}
}
