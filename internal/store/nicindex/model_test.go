package nicindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"xenic/internal/raceflag"
	"xenic/internal/store/robinhood"
)

// modelHost is the small host table the model tests share between the index
// and refIndex: Dm=4, inline capacity 16, large above 64, so stale-hint
// second reads, overflow pages and large objects are all common.
func modelHost() *robinhood.Table {
	c := robinhood.DefaultConfig(64)
	c.MaxDisplacement, c.InlineValueSize, c.LargeThreshold = 4, 16, 64
	return robinhood.New(c)
}

// pair is the index under test and its oracle over one host table.
type pair struct {
	t    *testing.T
	x    *Index
	ref  *refIndex
	keys uint64            // keys are drawn from [0, keys)
	ts   map[uint64]uint64 // host row-header timestamps, with a version history
}

func newModelPair(t *testing.T, host *robinhood.Table, capacity, depth int, keys uint64) *pair {
	p := &pair{t: t, x: New(host, capacity, 1), ref: newRefIndex(host, capacity, 1), keys: keys}
	if depth > 0 {
		p.ts = map[uint64]uint64{}
		p.x.SetTSFunc(func(k uint64) uint64 { return p.ts[k] })
		p.ref.SetTSFunc(func(k uint64) uint64 { return p.ts[k] })
		p.x.SetChainDepth(depth)
		p.ref.SetChainDepth(depth)
	}
	return p
}

// sameLookup compares one lookup's result with the oracle's, DMA reads
// included.
func (p *pair) sameLookup(what string, got Result, want refResult) {
	p.t.Helper()
	if got.Found != want.Found || !bytes.Equal(got.Value, want.Value) || got.Version != want.Version ||
		got.CacheHit != want.CacheHit || got.ObjectsRead != want.ObjectsRead || got.Conflict != want.Conflict ||
		!slices.Equal(got.Reads(), want.Reads) {
		p.t.Fatalf("%s: %+v reads %+v, oracle %+v", what, got, got.Reads(), want)
	}
}

// sameState compares the counters, and, with full, every key's entry.
func (p *pair) sameState(what string, full bool) {
	p.t.Helper()
	if p.x.Stats() != p.ref.Stats() || p.x.CachedValues() != p.ref.CachedValues() || p.x.Locked() != p.ref.Locked() {
		p.t.Fatalf("%s: stats %+v cached %d locked %d, oracle %+v cached %d locked %d", what,
			p.x.Stats(), p.x.CachedValues(), p.x.Locked(), p.ref.Stats(), p.ref.CachedValues(), p.ref.Locked())
	}
	if !full {
		return
	}
	// Random operations need not follow the protocol's order (a commit's
	// unlock before its unpin), so the capacity bound may fail: then it must
	// fail alike in both.
	if got, want := fmt.Sprint(p.x.CheckInvariants()), fmt.Sprint(p.ref.CheckInvariants()); got != want {
		p.t.Fatalf("%s: invariants: %s, oracle: %s", what, got, want)
	}
	for k := uint64(0); k < p.keys; k++ {
		o, ok := p.x.Meta(k)
		r, rok := p.ref.Meta(k)
		if ok != rok {
			p.t.Fatalf("%s: key %d has an entry: %v, oracle %v", what, k, ok, rok)
		}
		if !ok {
			continue
		}
		same := o.Key == r.Key && o.HasValue == r.HasValue && o.Exists == r.Exists && o.Version == r.Version &&
			o.Locked == r.Locked && o.LockOwner == r.LockOwner && o.Pinned == r.Pinned && o.TS == r.TS &&
			bytes.Equal(o.Value, r.Value) && len(o.Hist) == len(r.Hist)
		for i := 0; same && i < len(o.Hist); i++ {
			same = o.Hist[i].TS == r.Hist[i].TS && o.Hist[i].Version == r.Hist[i].Version &&
				bytes.Equal(o.Hist[i].Value, r.Hist[i].Value)
		}
		if !same {
			p.t.Fatalf("%s: key %d entry %+v, oracle %+v", what, k, o, *r)
		}
	}
}

// panics reports whether fn panicked.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// locked lists the index's locked keys and owners in visiting order.
func lockedOf(visit func(func(key, owner uint64))) [][2]uint64 {
	var out [][2]uint64
	visit(func(k, o uint64) { out = append(out, [2]uint64{k, o}) })
	return out
}

// TestIndexAgainstModel drives the index and refIndex, the map-of-objects
// index it replaced (refindex_test.go), with the same seeded random
// operations over one shared host table — every exported method, plus host
// inserts, updates and deletes that leave hints stale, spill keys to
// overflow pages and move values between inline and large — and compares
// every return value, DMA reads included, the counters after every
// operation, and every key's entry and both structures' invariants
// periodically. Capacities 0 (table2's pure-DMA index), 4 (constant
// eviction) and large, each without and with a two-deep version history.
func TestIndexAgainstModel(t *testing.T) {
	const ops, keys = 6_000, 96
	shapes := []struct {
		name            string
		capacity, depth int
	}{
		{"cap=0", 0, 0},
		{"cap=0/depth=2", 0, 2},
		{"cap=4", 4, 0},
		{"cap=4/depth=2", 4, 2},
		{"cap=large", 1 << 20, 0},
		{"cap=large/depth=2", 1 << 20, 2},
	}
	lengths := []int{0, 3, 16, 65, 120} // host values: inline up to 16, large above 64
	reads := make([]int, maxReads+1)    // lookups by number of DMA reads, all runs
	for _, sh := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sh.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				host := modelHost()
				value := func(lens []int) []byte {
					v := make([]byte, lens[rng.Intn(len(lens))])
					rng.Read(v)
					return v
				}
				for k := uint64(0); k < keys; k += 2 {
					if err := host.Insert(k, value(lengths), 1); err != nil {
						t.Fatal(err)
					}
				}
				p := newModelPair(t, host, sh.capacity, sh.depth, keys)
				if seed != 2 {
					p.x.SyncHints()
					p.ref.SyncHints()
				}
				clock := uint64(1)
				for op := 1; op <= ops; op++ {
					clock++
					k := uint64(rng.Intn(keys))
					owner := uint64(1 + rng.Intn(3))
					what := fmt.Sprintf("op %d key %d", op, k)
					switch x := rng.Intn(200); {
					case x < 50:
						got, want := p.x.Lookup(k), p.ref.Lookup(k)
						p.sameLookup(what+": Lookup", got, want)
						reads[len(want.Reads)]++
					case x < 70:
						if got, want := p.x.TryLock(k, owner), p.ref.TryLock(k, owner); got != want {
							t.Fatalf("%s: TryLock = %v, oracle %v", what, got, want)
						}
					case x < 85:
						if r, ok := p.ref.Meta(k); ok && r.Locked {
							owner = r.LockOwner
						}
						if got, want := panics(func() { p.x.Unlock(k, owner) }), panics(func() { p.ref.Unlock(k, owner) }); got != want {
							t.Fatalf("%s: Unlock panicked %v, oracle %v", what, got, want)
						}
					case x < 95:
						p.x.UnlockIf(k, owner)
						p.ref.UnlockIf(k, owner)
					case x < 115:
						v := value([]int{0, 5, 12})
						ver := uint64(1 + rng.Intn(int(clock)))
						if r, ok := p.ref.Meta(k); ok && rng.Intn(4) > 0 {
							ver = r.Version + 1
						}
						var cts uint64
						if rng.Intn(2) == 0 {
							cts = clock
						}
						p.x.ApplyCommitTS(k, v, ver, cts)
						p.ref.ApplyCommitTS(k, v, ver, cts)
					case x < 120:
						ver := uint64(1 + rng.Intn(int(clock)))
						p.x.ApplyCommitMeta(k, ver)
						p.ref.ApplyCommitMeta(k, ver)
					case x < 135:
						if got, want := panics(func() { p.x.Unpin(k) }), panics(func() { p.ref.Unpin(k) }); got != want {
							t.Fatalf("%s: Unpin panicked %v, oracle %v", what, got, want)
						}
					case x < 142:
						gv, gok := p.x.VersionOf(k)
						wv, wok := p.ref.VersionOf(k)
						if gv != wv || gok != wok {
							t.Fatalf("%s: VersionOf = %d %v, oracle %d %v", what, gv, gok, wv, wok)
						}
					case x < 149:
						if got, want := p.x.IsLocked(k, owner), p.ref.IsLocked(k, owner); got != want {
							t.Fatalf("%s: IsLocked = %v, oracle %v", what, got, want)
						}
					case x < 158:
						S := uint64(rng.Intn(int(clock) + 1))
						gv, gver, gok := p.x.LookupAt(k, S)
						wv, wver, wok := p.ref.LookupAt(k, S)
						if !bytes.Equal(gv, wv) || gver != wver || gok != wok {
							t.Fatalf("%s: LookupAt(%d) = %x v%d %v, oracle %x v%d %v", what, S, gv, gver, gok, wv, wver, wok)
						}
					case x < 161:
						if got, want := lockedOf(p.x.ForEachLocked), lockedOf(p.ref.ForEachLocked); !slices.Equal(got, want) {
							t.Fatalf("%s: ForEachLocked visits %v, oracle %v", what, got, want)
						}
					case x < 162:
						p.x.ForceUnlockAll()
						p.ref.ForceUnlockAll()
					case x < 164:
						p.x.SyncHints()
						p.ref.SyncHints()
					case x < 180:
						// A host apply: fills that follow read the new row.
						if err := host.Insert(k, value(lengths), clock); err != nil {
							t.Fatal(err)
						}
						if p.ts != nil {
							p.ts[k] = clock
						}
					default:
						host.Delete(k)
					}
					p.sameState(what, op%100 == 0)
				}
				p.sameState("end", true)
			})
		}
	}
	if reads[maxReads] == 0 || reads[2] == 0 {
		t.Fatalf("lookups by DMA reads issued: %v; the runs never reached a second window or a third read", reads)
	}
	t.Logf("lookups by DMA reads issued: %v", reads)

	// The explicit three-read lookups: stale hints (never synced) put the
	// key past the first window, and it is either a large object in the
	// second window or spilled to its segment's overflow page.
	t.Run("three-reads", func(t *testing.T) {
		for _, spilled := range []bool{false, true} {
			host := modelHost()
			var same []uint64 // keys homed at slot 8, in insertion order
			for k := uint64(0); len(same) < 5; k++ {
				if host.Home(k) == 8 {
					same = append(same, k)
				}
			}
			front, key := same[:2], same[2]
			if spilled {
				front, key = same[:4], same[4]
			}
			for _, k := range front {
				if err := host.Insert(k, []byte{1}, 1); err != nil {
					t.Fatal(err)
				}
			}
			big := make([]byte, 100)
			if spilled {
				big = big[:8]
			}
			if err := host.Insert(key, big, 2); err != nil {
				t.Fatal(err)
			}
			p := newModelPair(t, host, 4, 0, key+1)
			got, want := p.x.Lookup(key), p.ref.Lookup(key)
			p.sameLookup(fmt.Sprintf("spilled=%v", spilled), got, want)
			last := got.Reads()[len(got.Reads())-1]
			if !got.Found || len(got.Reads()) != maxReads || last.Large == spilled || last.Overflow != spilled {
				t.Fatalf("spilled=%v: lookup %+v issued reads %+v, want two windows then a %s read",
					spilled, got, got.Reads(), map[bool]string{false: "large-object", true: "overflow"}[spilled])
			}
			p.sameState("three-reads", true)
		}
	})
}

// TestLookupValueImmutable pins the cell rule: a value a cache hit
// returned keeps its bytes after its key is evicted and other keys take
// over its record and its value cell. Lookup results outlive the call (they
// ride out DMA latency and sit in messages in flight), so a released cell's
// buffer must never be handed to another key.
func TestLookupValueImmutable(t *testing.T) {
	host := modelHost()
	for k := uint64(0); k < 3; k++ {
		if err := host.Insert(k, bytes.Repeat([]byte{byte('a' + k)}, 12), 1); err != nil {
			t.Fatal(err)
		}
	}
	x := New(host, 1, 1)
	x.SyncHints()
	x.Lookup(0)
	held := x.Lookup(0)
	if !held.CacheHit {
		t.Fatalf("second lookup of key 0 missed: %+v", held)
	}
	want := append([]byte(nil), held.Value...)
	rec, cellNo := x.keys[0], x.recs[x.keys[0]].val

	x.Lookup(1) // evicts key 0: its record and cell are released
	x.Lookup(2) // evicts key 1; key 2 takes key 0's record, and the cell back
	if r, ok := x.keys[2]; !ok || r != rec || x.recs[r].val != cellNo {
		t.Fatalf("key 2 holds record %d cell %d, want key 0's record %d and cell %d", r, x.recs[r].val, rec, cellNo)
	}
	if !bytes.Equal(held.Value, want) {
		t.Fatalf("a cached value changed after its record and cell were reused: %q, was %q", held.Value, want)
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexAllocFree is the index's allocation budget: once its slab, free
// list and key map have reached working size, locking and unlocking keys it
// has no entry for and metadata-only misses (DMA lookups of absent keys,
// whose reads ride in the Result) allocate nothing.
func TestIndexAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	host, x := newPair(4096, 16, 64)
	load(t, host, 1000, 31)
	x.SyncHints()
	if host.Stats().Overflows != 0 {
		t.Fatal("host overflowed; overflow-page reads copy the bucket")
	}
	absent := make([]uint64, 32)
	fresh := make([]uint64, 32)
	for i := range absent {
		absent[i] = 1<<63 + uint64(i)
		fresh[i] = 1<<62 + uint64(i)
	}
	cycle := func() {
		for _, k := range absent {
			if r := x.Lookup(k); r.Found || r.CacheHit || len(r.Reads()) == 0 {
				t.Fatalf("absent key %d: %+v", k, r)
			}
		}
		for _, k := range fresh {
			x.TryLock(k, 7)
		}
		for _, k := range fresh {
			x.Unlock(k, 7)
		}
	}
	cycle()
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warmed lock/unlock and metadata-only misses allocate %v objects per run, want 0", n)
	}
	if err := x.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// indexBytesPerKey bounds the live heap of an index per key it holds an
// entry for, about 15 % above the 70.9 measured at TestIndexFootprint's
// 200 000 keys: the 48-byte record plus its share of the key map and of the
// slab's growth slack. The map-of-objects layout it replaced measured 130.3.
const indexBytesPerKey = 82

// TestIndexFootprint holds the record to 48 pointer-free bytes and the
// index to indexBytesPerKey at capacity 0, where every DMA lookup leaves a
// metadata-only entry behind — table2's shape, over millions of keys at
// full scale.
func TestIndexFootprint(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got > 48 {
		t.Fatalf("entry is %d bytes, want at most 48", got)
	}
	if raceflag.Enabled {
		t.Skip("the race detector's shadow memory is part of the heap")
	}
	const n = 200_000
	host, _ := newPair(1<<18, 16, 0)
	keys := load(t, host, n, 32)
	liveHeap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	before := liveHeap()
	x := New(host, 0, 1)
	x.SyncHints()
	for _, k := range keys {
		if r := x.Lookup(k); !r.Found || r.CacheHit {
			t.Fatalf("key %d: %+v", k, r)
		}
	}
	perKey := (liveHeap() - before) / n
	runtime.KeepAlive(x)
	t.Logf("%d metadata-only entries: %.1f bytes live per key", len(x.keys), perKey)
	if len(x.keys) != n {
		t.Fatalf("%d entries, want %d", len(x.keys), n)
	}
	if perKey > indexBytesPerKey {
		t.Fatalf("%.1f bytes live per key, want at most %d", perKey, indexBytesPerKey)
	}
}
