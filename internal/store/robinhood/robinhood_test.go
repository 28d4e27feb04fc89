package robinhood

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

func cfg(slots, dm int) Config {
	c := DefaultConfig(slots)
	c.MaxDisplacement = dm
	return c
}

func TestInsertLookup(t *testing.T) {
	tb := New(cfg(1024, 16))
	for k := uint64(1); k <= 500; k++ {
		if err := tb.Insert(k, []byte(fmt.Sprintf("v%d", k)), k); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if tb.Len() != 500 {
		t.Fatalf("len = %d", tb.Len())
	}
	for k := uint64(1); k <= 500; k++ {
		r := tb.Lookup(k)
		if !r.Found || string(r.Value) != fmt.Sprintf("v%d", k) || r.Version != k {
			t.Fatalf("lookup %d: %+v", k, r)
		}
	}
	if tb.Lookup(9999).Found {
		t.Fatal("found absent key")
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertExistingUpdates(t *testing.T) {
	tb := New(cfg(64, 8))
	check := func() {
		r := tb.Lookup(7)
		if !r.Found || string(r.Value) != "new" || r.Version != 2 {
			t.Fatalf("lookup: %+v", r)
		}
		if tb.Len() != 1 {
			t.Fatalf("len = %d", tb.Len())
		}
	}
	tb.Insert(7, []byte("old"), 1)
	tb.Insert(7, []byte("new"), 2)
	check()
}

func TestUpdate(t *testing.T) {
	tb := New(cfg(64, 8))
	if tb.Update(1, []byte("x"), 1) {
		t.Fatal("updated absent key")
	}
	tb.Insert(1, []byte("a"), 1)
	if !tb.Update(1, []byte("b"), 2) {
		t.Fatal("update failed")
	}
	r := tb.Lookup(1)
	if string(r.Value) != "b" || r.Version != 2 {
		t.Fatalf("after update: %+v", r)
	}
}

func TestDisplacementLimitSendsToOverflow(t *testing.T) {
	c := cfg(1024, 4)
	tb := New(c)
	rng := rand.New(rand.NewSource(3))
	// Fill to 90%: with Dm=4 many keys must overflow.
	n := 1024 * 9 / 10
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := rng.Uint64()
		if err := tb.Insert(k, []byte("v"), 1); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if tb.Stats().Overflows == 0 {
		t.Fatal("no overflows at Dm=4, 90% occupancy")
	}
	for _, k := range keys {
		if !tb.Lookup(k).Found {
			t.Fatalf("lost key %d", k)
		}
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnlimitedDisplacementNeverOverflows(t *testing.T) {
	tb := New(cfg(1024, 0))
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		if err := tb.Insert(rng.Uint64(), []byte("v"), 1); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Stats().Overflows != 0 {
		t.Fatalf("unlimited table overflowed %d times", tb.Stats().Overflows)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	tb := New(cfg(256, 8))
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = rng.Uint64()
		tb.Insert(keys[i], []byte("v"), 1)
	}
	for i, k := range keys {
		if !tb.Delete(k) {
			t.Fatalf("delete %d failed", k)
		}
		if tb.Lookup(k).Found {
			t.Fatalf("key %d survives deletion", k)
		}
		if err := tb.CheckInvariants(); err != nil {
			t.Fatalf("after delete %d: %v", i, err)
		}
		// All remaining keys still reachable.
		for _, k2 := range keys[i+1:] {
			if !tb.Lookup(k2).Found {
				t.Fatalf("deleting %d lost %d", k, k2)
			}
		}
	}
	if tb.Len() != 0 {
		t.Fatalf("len = %d after deleting all", tb.Len())
	}
	if tb.Delete(12345) {
		t.Fatal("deleted absent key")
	}
}

func TestDeletePullsFromOverflow(t *testing.T) {
	tb := New(cfg(256, 4))
	rng := rand.New(rand.NewSource(6))
	keys := make([]uint64, 230) // 90% of 256
	for i := range keys {
		keys[i] = rng.Uint64()
		tb.Insert(keys[i], []byte("v"), 1)
	}
	if tb.Stats().Overflows == 0 {
		t.Skip("seed produced no overflow")
	}
	for _, k := range keys {
		tb.Delete(k)
	}
	if tb.Stats().OverflowSwapsIn == 0 {
		t.Fatal("no deletion reused an overflow element")
	}
}

func TestLargeObjectIndirection(t *testing.T) {
	tb := New(cfg(64, 8))
	big := make([]byte, 660) // TPC-C max object size
	for i := range big {
		big[i] = byte(i)
	}
	tb.Insert(42, big, 1)
	r := tb.Lookup(42)
	if !r.Found || len(r.Value) != 660 {
		t.Fatalf("large lookup: found=%v len=%d", r.Found, len(r.Value))
	}
	// The slot itself must be a pointer, not the payload.
	s := tb.ReadRegion(tb.Home(42), 1)[0]
	if !s.Indirect || s.Value != nil {
		t.Fatalf("large object stored inline: %+v", s)
	}
	if v, ok := tb.LargeValue(42); !ok || len(v) != 660 {
		t.Fatal("LargeValue missing")
	}
	// Shrinking below threshold moves it back inline.
	tb.Update(42, []byte("small"), 2)
	s = tb.ReadRegion(tb.Home(42), 1)[0]
	if s.Indirect {
		t.Fatal("small value left indirect")
	}
	if _, ok := tb.LargeValue(42); ok {
		t.Fatal("stale large value")
	}
}

func TestOversizedInlineValuePanics(t *testing.T) {
	c := cfg(64, 8)
	c.InlineValueSize = 16
	c.LargeThreshold = 64
	tb := New(c)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 32B value with 16B slots and 64B threshold")
		}
	}()
	tb.Insert(1, make([]byte, 32), 1)
}

func TestSegmentMaxDispTracksInserts(t *testing.T) {
	tb := New(cfg(1024, 16))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 900; i++ {
		tb.Insert(rng.Uint64(), []byte("v"), 1)
		if err := tb.CheckInvariants(); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Exact recomputation must match the incrementally maintained values.
	for seg := 0; seg < tb.Segments(); seg++ {
		got := tb.SegmentMaxDisp(seg)
		tb.recomputeSegMax(seg)
		if tb.SegmentMaxDisp(seg) != got {
			t.Fatalf("segment %d: incremental %d != exact %d", seg, got, tb.SegmentMaxDisp(seg))
		}
	}
}

func TestReadRegionWraps(t *testing.T) {
	tb := New(cfg(64, 8))
	out := tb.ReadRegion(62, 4)
	if len(out) != 4 {
		t.Fatalf("region len %d", len(out))
	}
}

func TestHashIsStable(t *testing.T) {
	if Hash(1) == Hash(2) {
		t.Fatal("trivial collision")
	}
	if Hash(42) != Hash(42) {
		t.Fatal("hash not deterministic")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Slots: 64, SegmentSlots: 7}, // does not divide
		{Slots: 64, SegmentSlots: 0}, // zero
		{Slots: 64, SegmentSlots: 8, MaxDisplacement: -1},
	}
	for i, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d: no panic", i)
				}
			}()
			New(c)
		}()
	}
}

// Property: a random interleaving of inserts, updates and deletes matches a
// map model, and invariants hold throughout.
func TestTableMatchesMapModel(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		tb := New(cfg(256, 8))
		model := map[uint64]uint64{} // key -> version
		rng := rand.New(rand.NewSource(seed))
		version := uint64(1)
		for _, op := range ops {
			key := uint64(op % 97) // small key space forces collisions
			switch rng.Intn(3) {
			case 0:
				if tb.Len() < 220 {
					version++
					if tb.Insert(key, []byte{byte(version)}, version) != nil {
						return false
					}
					model[key] = version
				}
			case 1:
				version++
				ok := tb.Update(key, []byte{byte(version)}, version)
				if _, want := model[key]; ok != want {
					return false
				}
				if ok {
					model[key] = version
				}
			case 2:
				ok := tb.Delete(key)
				if _, want := model[key]; ok != want {
					return false
				}
				delete(model, key)
			}
			if err := tb.CheckInvariants(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		if tb.Len() != len(model) {
			return false
		}
		for k, v := range model {
			r := tb.Lookup(k)
			if !r.Found || r.Version != v {
				return false
			}
		}
		return true
	}
	c := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, c); err != nil {
		t.Fatal(err)
	}
}

// Property: displacement never exceeds the limit for any insertion order.
func TestDisplacementBoundProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		tb := New(cfg(128, 8))
		for i, k := range keys {
			if i >= 115 { // stay near but below capacity
				break
			}
			if tb.Insert(k, []byte("v"), 1) != nil {
				return false
			}
		}
		return tb.CheckInvariants() == nil
	}
	c := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, c); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert90Percent(b *testing.B) {
	tb := New(cfg(1<<20, 16))
	rng := rand.New(rand.NewSource(1))
	n := (1 << 20) * 9 / 10
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			b.StopTimer()
			tb = New(cfg(1<<20, 16))
			b.StartTimer()
		}
		tb.Insert(keys[i%n], []byte("valuevalue"), 1)
	}
}

func BenchmarkLookup90Percent(b *testing.B) {
	tb := New(cfg(1<<20, 16))
	rng := rand.New(rand.NewSource(1))
	n := (1 << 20) * 9 / 10
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		tb.Insert(keys[i], []byte("valuevalue"), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(keys[i%n])
	}
}

// keysHomedAt finds n distinct keys whose home slot is exactly home.
func keysHomedAt(t *testing.T, tb *Table, home, n int) []uint64 {
	t.Helper()
	var keys []uint64
	for v := uint64(1); len(keys) < n; v++ {
		if tb.Home(v) == home {
			keys = append(keys, v)
		}
		if v > 1<<24 {
			t.Fatalf("could not find %d keys homed at slot %d", n, home)
		}
	}
	return keys
}

// TestDeleteBackwardShiftWrapAround deletes the head of a probe run that
// wraps past the last slot, and asserts the survivors' probe distances —
// not just their presence — after the backward shift crosses the boundary.
func TestDeleteBackwardShiftWrapAround(t *testing.T) {
	tb := New(cfg(16, 8))
	home := tb.Slots() - 2 // run occupies slots 14, 15, 0
	keys := keysHomedAt(t, tb, home, 3)
	for i, k := range keys {
		if err := tb.Insert(k, []byte{byte(i)}, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
		if got := tb.Lookup(k).Disp; got != i {
			t.Fatalf("key %d inserted at disp %d, want %d", k, got, i)
		}
	}
	if !tb.Delete(keys[0]) {
		t.Fatal("delete failed")
	}
	// The shift must pull both survivors one slot back across the wrap.
	for i, k := range keys[1:] {
		r := tb.Lookup(k)
		if !r.Found || r.Disp != i {
			t.Fatalf("after delete: key %d at disp %d (found=%v), want disp %d", k, r.Disp, r.Found, i)
		}
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteRecomputesShiftedSegmentHints pins the stale-hint bug: a
// backward shift that lowers the displacement of an element homed in a
// DIFFERENT segment than the deleted key must update that segment's
// max-displacement hint too, or every later DMA probe of the segment reads
// more slots than needed.
func TestDeleteRecomputesShiftedSegmentHints(t *testing.T) {
	tb := New(cfg(32, 16))
	// a, b homed at slot 7 (last of segment 1); c homed at slot 8
	// (segment 2). Layout: a@7(d0) b@8(d1) c@9(d1).
	ab := keysHomedAt(t, tb, 7, 2)
	c := keysHomedAt(t, tb, 8, 1)[0]
	for _, k := range []uint64{ab[0], ab[1], c} {
		if err := tb.Insert(k, []byte("v"), 1); err != nil {
			t.Fatal(err)
		}
	}
	if d := tb.Lookup(c).Disp; d != 1 {
		t.Fatalf("setup: key c at disp %d, want 1", d)
	}
	if got := tb.SegmentMaxDisp(2); got != 1 {
		t.Fatalf("setup: segment 2 hint %d, want 1", got)
	}
	if !tb.Delete(ab[0]) {
		t.Fatal("delete failed")
	}
	// b and c each shifted home; segment 2's hint (c's home segment) must
	// drop to 0 even though the deleted key was homed in segment 1.
	if d := tb.Lookup(c).Disp; d != 0 {
		t.Fatalf("key c at disp %d after shift, want 0", d)
	}
	if got := tb.SegmentMaxDisp(2); got != 0 {
		t.Fatalf("segment 2 hint %d after delete, want 0 (stale hint)", got)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteReinsertFullTable drives a displacement-limited table at full
// occupancy through delete/reinsert cycles: every key must stay reachable,
// probe distances must stay within the limit, and the exact-hint and
// count invariants must hold at every step (overflow pages absorb what the
// main table cannot place).
func TestDeleteReinsertFullTable(t *testing.T) {
	tb := New(cfg(64, 4))
	rng := rand.New(rand.NewSource(9))
	keys := make([]uint64, 64) // 100% of slots: some keys must overflow
	for i := range keys {
		keys[i] = rng.Uint64()
		if err := tb.Insert(keys[i], []byte("v"), uint64(i+1)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tb.Stats().Overflows == 0 {
		t.Fatal("full table produced no overflow")
	}
	for round := 0; round < 3; round++ {
		for i, k := range keys {
			if !tb.Delete(k) {
				t.Fatalf("round %d: delete %d failed", round, k)
			}
			if err := tb.CheckInvariants(); err != nil {
				t.Fatalf("round %d after delete %d: %v", round, i, err)
			}
			if err := tb.Insert(k, []byte("w"), uint64(round+2)); err != nil {
				t.Fatalf("round %d: reinsert %d: %v", round, k, err)
			}
			if err := tb.CheckInvariants(); err != nil {
				t.Fatalf("round %d after reinsert %d: %v", round, i, err)
			}
		}
		for _, k := range keys {
			r := tb.Lookup(k)
			if !r.Found {
				t.Fatalf("round %d: key %d lost", round, k)
			}
			if !r.Overflow && r.Disp >= 4 {
				t.Fatalf("round %d: key %d at disp %d beyond limit", round, k, r.Disp)
			}
		}
	}
	if tb.Len() != len(keys) {
		t.Fatalf("len = %d, want %d", tb.Len(), len(keys))
	}
}

// modelRow is the oracle's record of one key.
type modelRow struct {
	v   []byte
	ver uint64
}

// liveCells counts the value cells in use.
func (t *Table) liveCells() int { return t.cells.Live() }

// checkAgainstModel compares the whole table with the oracle: invariants,
// Len, ForEach as a set, and one value cell per occupied inline record.
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
	inline := 0
	for i := 0; i < tb.Slots(); i++ {
		if s := tb.SlotAt(i); s.Occupied && !s.Indirect {
			inline++
		}
	}
	if tb.liveCells() != inline {
		t.Fatalf("%d live value cells, %d occupied inline records", tb.liveCells(), inline)
	}
}

// TestTableAgainstModel drives seeded random Insert / Update / Delete /
// Lookup sequences against a plain map. Keys come from a range small enough
// to collide and to be deleted and re-inserted many times; value lengths
// straddle InlineValueSize and LargeThreshold so records move inline ↔
// large; the Dm=2 shape overflows carried victims and pulls them back on
// delete, the Dm=0 shape probes without a limit.
func TestTableAgainstModel(t *testing.T) {
	const ops = 20_000
	shapes := []struct {
		name            string
		slots, dm, keys int
	}{
		{"dm=2", 64, 2, 60},
		{"dm=8", 256, 8, 200},
		{"unlimited", 64, 0, 56},
	}
	// Inline capacity 16, large above 64; in between the table panics by
	// contract.
	lengths := []int{0, 1, 15, 16, 65, 300}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sh.name, seed), func(t *testing.T) {
				c := cfg(sh.slots, sh.dm)
				c.InlineValueSize, c.LargeThreshold = 16, 64
				tb := New(c)
				rng := rand.New(rand.NewSource(seed))
				model := map[uint64]modelRow{}
				value := func() []byte {
					v := make([]byte, lengths[rng.Intn(len(lengths))])
					rng.Read(v)
					return v
				}
				for op := 1; op <= ops; op++ {
					key := uint64(rng.Intn(sh.keys))
					want, present := model[key]
					switch x := rng.Intn(100); {
					case x < 35:
						v := value()
						if err := tb.Insert(key, v, uint64(op)); err != nil {
							t.Fatalf("op %d: insert %d: %v", op, key, err)
						}
						model[key] = modelRow{v, uint64(op)}
					case x < 55:
						v := value()
						if got := tb.Update(key, v, uint64(op)); got != present {
							t.Fatalf("op %d: update %d = %v, oracle has it: %v", op, key, got, present)
						}
						if present {
							model[key] = modelRow{v, uint64(op)}
						}
					case x < 80:
						if got := tb.Delete(key); got != present {
							t.Fatalf("op %d: delete %d = %v, oracle has it: %v", op, key, got, present)
						}
						delete(model, key)
					default:
						r := tb.Lookup(key)
						if r.Found != present || r.Version != want.ver || !bytes.Equal(r.Value, want.v) {
							t.Fatalf("op %d: lookup %d = %+v, oracle %v %+v", op, key, r, present, want)
						}
					}
					if op%250 == 0 {
						checkAgainstModel(t, tb, model)
					}
				}
				checkAgainstModel(t, tb, model)
				st := tb.Stats()
				if sh.dm == 2 && (st.Overflows == 0 || st.OverflowSwapsIn == 0) {
					t.Fatalf("Dm=2 run never overflowed a victim or promoted one back: %+v", st)
				}
				if sh.dm == 0 && st.Overflows != 0 {
					t.Fatalf("unlimited table overflowed: %+v", st)
				}
			})
		}
	}
}

// TestLookupValueImmutable pins install-by-pointing: a slice Lookup returned
// keeps its bytes through any number of later updates, deletes and
// re-inserts of that key and its neighbours. Callers hold such slices across
// simulated DMA latency and in in-flight snapshot responses; storing a new
// value by writing through the old cell would corrupt them.
func TestLookupValueImmutable(t *testing.T) {
	c := cfg(64, 4)
	c.InlineValueSize, c.LargeThreshold = 16, 64
	tb := New(c)
	rng := rand.New(rand.NewSource(11))
	const keys = 48
	for k := uint64(0); k < keys; k++ {
		v := make([]byte, 16)
		rng.Read(v)
		if err := tb.Insert(k, v, 1); err != nil {
			t.Fatal(err)
		}
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
		// The held keys and their neighbours, so cells are recycled next door.
		k := (uint64(rng.Intn(keys/5+1))*5 + uint64(rng.Intn(3))) % keys
		switch rng.Intn(4) {
		case 0:
			tb.Delete(k)
		case 1:
			big := make([]byte, 100)
			rng.Read(big)
			tb.Insert(k, big, uint64(op+2))
		default:
			v := make([]byte, 16)
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

// TestStoreAdoptsValue pins the ownership rule: the table keeps the slice it
// is handed, capacity clipped, instead of copying it — inline, behind the
// large-object pointer and in an overflow bucket — so rewriting a present
// key allocates nothing, and a value an earlier Lookup returned keeps its
// bytes after the key is rewritten.
func TestStoreAdoptsValue(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := cfg(64, 2)
	c.InlineValueSize, c.LargeThreshold = 16, 64
	tb := New(c)
	row := []byte("row")
	for k := uint64(0); k < 56; k++ {
		if err := tb.Insert(k, row, 1); err != nil {
			t.Fatal(err)
		}
	}
	var main, over []uint64
	for k := uint64(0); k < 56; k++ {
		if tb.Lookup(k).Overflow {
			over = append(over, k)
		} else {
			main = append(main, k)
		}
	}
	if len(over) == 0 {
		t.Fatal("no key overflowed; the overflow case tests nothing")
	}
	// Spare capacity behind a value must not be reachable from the table.
	pair := func(n int) [2][]byte {
		var v [2][]byte
		for i := range v {
			v[i] = make([]byte, n, n+8)
			for j := range v[i] {
				v[i][j] = byte('a' + i)
			}
		}
		return v
	}
	for _, tc := range []struct {
		name string
		key  uint64
		vals [2][]byte
	}{
		{"inline", main[0], pair(12)},
		{"large", main[1], pair(100)},
		{"overflow", over[0], pair(12)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tb.Insert(tc.key, tc.vals[0], 2); err != nil {
				t.Fatal(err)
			}
			held := tb.Lookup(tc.key)
			if &held.Value[0] != &tc.vals[0][0] || cap(held.Value) != len(tc.vals[0]) {
				t.Fatal("Insert copied the value instead of adopting it, or kept its spare capacity")
			}
			was := bytes.Clone(held.Value)
			i := 0
			rewrite := func() {
				i++
				if i%2 == 0 {
					tb.Insert(tc.key, tc.vals[i%2], uint64(2+i))
				} else {
					tb.Update(tc.key, tc.vals[i%2], uint64(2+i))
				}
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
		})
	}
}

// TestSmallbankTableFootprint holds the benchmark's Smallbank table — 262 144
// slots at 30 % occupancy, 18 of them per cluster — to its compact layout:
// a 24-byte pointer-free slot, 9.7 MiB live for the whole table (19.3 MiB
// when each slot was a 64-byte Slot with a slice header in it).
func TestSmallbankTableFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow memory is part of the heap")
	}
	if got := unsafe.Sizeof(slot{}); got != 24 {
		t.Fatalf("slot is %d bytes, want 24", got)
	}
	liveHeap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	before := liveHeap()
	c := DefaultConfig(133_333)
	c.InlineValueSize, c.MaxDisplacement = 16, 16
	tb := New(c)
	row := make([]byte, 12)
	for k := uint64(0); k < 80_000; k++ {
		if err := tb.Insert(k, row, 1); err != nil {
			t.Fatal(err)
		}
	}
	mib := liveHeap() - before
	runtime.KeepAlive(tb)
	t.Logf("%d slots, %d rows: %.1f MiB live", tb.Slots(), tb.Len(), mib)
	if mib > 11 {
		t.Fatalf("Smallbank table holds %.1f MiB live, want at most 11", mib)
	}
}
