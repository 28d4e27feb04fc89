package txnmodel

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"xenic/internal/raceflag"
	"xenic/internal/wire"
)

// modPlace puts key k on shard k % nodes.
type modPlace struct{ nodes int }

func (p modPlace) ShardOf(key uint64) int  { return int(key % uint64(p.nodes)) }
func (p modPlace) IsBTree(key uint64) bool { return false }

// refOCC is the map-based bookkeeping the baselines kept before OCC existed
// (with the one rule they now share: a failed EXECUTE unit's reads are
// dropped). TestOCCAgainstModel holds OCC to it.
type refOCC struct {
	reads     map[uint64]wire.KV
	readOrder []uint64
	locked    map[int][]uint64
	writes    []wire.KV
	pending   int
	failed    wire.Status
	stash     []wire.KV
	hasStash  bool
}

func newRef() *refOCC {
	return &refOCC{reads: map[uint64]wire.KV{}, locked: map[int][]uint64{}}
}

func (r *refOCC) addReadOrder(keys []uint64) {
	have := map[uint64]bool{}
	for _, k := range r.readOrder {
		have[k] = true
	}
	for _, k := range keys {
		if !have[k] {
			have[k] = true
			r.readOrder = append(r.readOrder, k)
		}
	}
}

func (r *refOCC) readsInOrder() []wire.KV {
	out := make([]wire.KV, len(r.readOrder))
	for i, k := range r.readOrder {
		if kv, ok := r.reads[k]; ok {
			out[i] = kv
		} else {
			out[i] = wire.KV{Key: k}
		}
	}
	return out
}

func (r *refOCC) landed(st wire.Status, shard int, locks []uint64, items []wire.KV) bool {
	if st == wire.StatusOK {
		if len(locks) > 0 {
			r.locked[shard] = append(r.locked[shard], locks...)
		}
		for _, kv := range items {
			r.reads[kv.Key] = kv
		}
	}
	return r.done(st)
}

func (r *refOCC) done(st wire.Status) bool {
	if st != wire.StatusOK && r.failed == wire.StatusOK {
		r.failed = st
	}
	r.pending--
	return r.pending <= 0
}

func (r *refOCC) prepare(place Placement, fnWrites, blind []wire.KV) []uint64 {
	writes := append(fnWrites, blind...)
	var missing []uint64
	seen := map[uint64]bool{}
	for _, kv := range writes {
		if !seen[kv.Key] {
			seen[kv.Key] = true
			if !slices.Contains(r.locked[place.ShardOf(kv.Key)], kv.Key) {
				missing = append(missing, kv.Key)
			}
		}
	}
	if len(missing) > 0 {
		r.stash, r.hasStash = fnWrites, true
		return missing
	}
	out := make([]wire.KV, len(writes))
	for i, kv := range writes {
		out[i] = wire.KV{Key: kv.Key, Version: r.reads[kv.Key].Version + 1, Value: kv.Value}
	}
	r.writes = out
	return nil
}

func (r *refOCC) validation(place Placement, readOnly bool) ([]ValPart, int) {
	writeKeys := map[uint64]bool{}
	for _, kv := range r.writes {
		writeKeys[kv.Key] = true
	}
	byShard := map[int][]wire.KeyVer{}
	total := 0
	for _, kv := range r.readsInOrder() {
		if !writeKeys[kv.Key] {
			s := place.ShardOf(kv.Key)
			byShard[s] = append(byShard[s], wire.KeyVer{Key: kv.Key, Version: kv.Version})
			total++
		}
	}
	if total == 0 || readOnly && total == 1 && len(r.writes) == 0 {
		return nil, 0
	}
	var parts []ValPart
	for _, s := range sortedKeys(byShard) {
		parts = append(parts, ValPart{Shard: s, Items: byShard[s]})
	}
	return parts, total
}

func groupWrites(place Placement, writes []wire.KV) []ShardWrites {
	m := map[int][]wire.KV{}
	for _, kv := range writes {
		m[place.ShardOf(kv.Key)] = append(m[place.ShardOf(kv.Key)], kv)
	}
	var out []ShardWrites
	for _, s := range sortedKeys(m) {
		out = append(out, ShardWrites{Shard: s, Writes: m[s]})
	}
	return out
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestOCCAgainstModel drives OCC and refOCC with the same seeded random
// operations — reads with repeats, further read rounds, lock grants on
// several shards, fan-out units that fail, prepare with writes the
// execution introduced, validation and write grouping, and resets — and
// compares every output and the full observable state after each step.
func TestOCCAgainstModel(t *testing.T) {
	const keys, shards, ops = 24, 5, 20_000
	place := modPlace{nodes: shards}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var o OCC
			r := newRef()
			someKeys := func(max int) []uint64 {
				out := make([]uint64, rng.Intn(max+1))
				for i := range out {
					out[i] = uint64(rng.Intn(keys))
				}
				return out
			}
			kvs := func(ks []uint64) []wire.KV {
				out := make([]wire.KV, len(ks))
				for i, k := range ks {
					out[i] = wire.KV{Key: k, Version: uint64(rng.Intn(9)), Value: []byte{byte(rng.Intn(256))}}
				}
				return out
			}
			status := func() wire.Status {
				if rng.Intn(6) == 0 {
					return wire.Status(1 + rng.Intn(3))
				}
				return wire.StatusOK
			}
			for i := 0; i < ops; i++ {
				op := rng.Intn(12)
				switch op {
				case 0: // a new attempt
					o.Reset()
					r = newRef()
					var d TxnDesc
					d.ReadKeys, d.UpdateKeys = someKeys(4), someKeys(3)
					d.BlindWrites = kvs(someKeys(2))
					o.Begin(&d)
					r.addReadOrder(append(append(slices.Clone(d.ReadKeys), d.UpdateKeys...), keysOf(d.BlindWrites)...))
				case 1: // a later execution round
					ks := someKeys(3)
					o.AddReadOrder(ks)
					r.addReadOrder(ks)
				case 2: // a fan-out starts
					n := rng.Intn(4)
					o.Pending, r.pending = n, n
				case 3: // one EXECUTE unit lands, locking keys on one shard
					shard := rng.Intn(shards)
					var locks []uint64
					for _, k := range someKeys(3) {
						locks = append(locks, k-k%shards+uint64(shard))
					}
					st, items := status(), kvs(someKeys(3))
					if got, want := o.Landed(st, shard, locks, items), r.landed(st, shard, locks, items); got != want {
						t.Fatalf("op %d: Landed = %v, want %v", i, got, want)
					}
				case 4: // a VALIDATE, LOG or COMMIT unit lands
					st := status()
					if got, want := o.Done(st), r.done(st); got != want {
						t.Fatalf("op %d: Done = %v, want %v", i, got, want)
					}
				case 5: // a read lands outside an EXECUTE unit
					kv := kvs(someKeys(1))
					if len(kv) > 0 {
						o.SetRead(kv[0])
						r.reads[kv[0].Key] = kv[0]
					}
				case 6: // prepare, mostly over keys already locked
					var wk []uint64
					for _, ls := range o.Locked {
						for _, k := range ls.Keys {
							if rng.Intn(2) == 0 {
								wk = append(wk, k)
							}
						}
					}
					if rng.Intn(3) == 0 {
						wk = append(wk, someKeys(2)...)
					}
					fn, blind := kvs(wk[:len(wk)/2]), kvs(wk[len(wk)/2:])
					got := o.Prepare(place, slices.Clone(fn), slices.Clone(blind))
					want := r.prepare(place, slices.Clone(fn), slices.Clone(blind))
					if !slices.Equal(got, want) {
						t.Fatalf("op %d: Prepare missing %v, want %v", i, got, want)
					}
				case 7:
					w, ok := o.Unstash()
					if ok != r.hasStash || !reflect.DeepEqual(w, r.stash) {
						t.Fatalf("op %d: Unstash = %v, %v, want %v, %v", i, w, ok, r.stash, r.hasStash)
					}
					r.stash, r.hasStash = nil, false
				case 8:
					readOnly := rng.Intn(2) == 0
					var buf [2]ValPart
					parts, total := o.Validation(place, readOnly, buf[:0])
					wantParts, wantTotal := r.validation(place, readOnly)
					if total != wantTotal || len(parts) != len(wantParts) || len(parts) > 0 && !reflect.DeepEqual(parts, wantParts) {
						t.Fatalf("op %d: Validation = %v, %d, want %v, %d", i, parts, total, wantParts, wantTotal)
					}
				case 9:
					got, want := GroupByShard(place, o.Writes), groupWrites(place, r.writes)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("op %d: GroupByShard = %v, want %v", i, got, want)
					}
					if ws := WriteShards(place, o.Writes, nil); !slices.Equal(ws, shardsOf(want)) {
						t.Fatalf("op %d: WriteShards = %v, want %v", i, ws, shardsOf(want))
					}
				case 10: // a lock grant outside an EXECUTE unit
					shard := rng.Intn(shards)
					k := uint64(rng.Intn(keys/shards)*shards + shard)
					o.AddLocks(shard, k)
					r.locked[shard] = append(r.locked[shard], k)
				case 11:
					k := uint64(rng.Intn(keys))
					if got, want := o.KeyLocked(place, k), slices.Contains(r.locked[place.ShardOf(k)], k); got != want {
						t.Fatalf("op %d: KeyLocked(%d) = %v, want %v", i, k, got, want)
					}
				}
				compareOCC(t, i, op, &o, r)
			}
		})
	}
}

func keysOf(kvs []wire.KV) []uint64 {
	var out []uint64
	for _, kv := range kvs {
		out = append(out, kv.Key)
	}
	return out
}

func shardsOf(groups []ShardWrites) []int {
	var out []int
	for _, g := range groups {
		out = append(out, g.Shard)
	}
	return out
}

// compareOCC checks every observable of o against r.
func compareOCC(t *testing.T, i, op int, o *OCC, r *refOCC) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("after op %d (kind %d): %s = %v, want %v", i, op, what, got, want)
	}
	if !slices.Equal(o.ReadOrder, r.readOrder) {
		fail("ReadOrder", o.ReadOrder, r.readOrder)
	}
	if got, want := o.ReadsInOrder(), r.readsInOrder(); !reflect.DeepEqual(got, want) {
		fail("ReadsInOrder", got, want)
	}
	buf := []wire.KV{{Key: 1 << 40}}
	if got, want := o.AppendReadsInOrder(buf), append(buf, r.readsInOrder()...); !reflect.DeepEqual(got, want) {
		fail("AppendReadsInOrder", got, want)
	}
	var readKeys []uint64
	for _, kv := range o.Reads {
		readKeys = append(readKeys, kv.Key)
	}
	if slices.Sort(readKeys); !slices.Equal(readKeys, slices.Sorted(maps.Keys(r.reads))) {
		fail("read keys", readKeys, slices.Sorted(maps.Keys(r.reads)))
	}
	for _, kv := range o.Reads {
		if want, ok := r.reads[kv.Key]; !ok || !reflect.DeepEqual(kv, want) {
			fail(fmt.Sprintf("Read(%d)", kv.Key), kv, want)
		}
	}
	var wantLocked []LockSet
	for _, s := range sortedKeys(r.locked) {
		wantLocked = append(wantLocked, LockSet{Shard: s, Keys: r.locked[s]})
	}
	if len(o.Locked) != len(wantLocked) || len(wantLocked) > 0 && !reflect.DeepEqual(o.Locked, wantLocked) {
		fail("Locked", o.Locked, wantLocked)
	}
	for _, ls := range wantLocked {
		if !slices.Equal(o.LockedOn(ls.Shard), ls.Keys) {
			fail(fmt.Sprintf("LockedOn(%d)", ls.Shard), o.LockedOn(ls.Shard), ls.Keys)
		}
	}
	if len(o.Writes) != len(r.writes) || len(o.Writes) > 0 && !reflect.DeepEqual(o.Writes, r.writes) {
		fail("Writes", o.Writes, r.writes)
	}
	if o.Pending != r.pending || o.Failed != r.failed {
		fail("Pending, Failed", []any{o.Pending, o.Failed}, []any{r.pending, r.failed})
	}
}

// TestGroupByShard pins the write-set grouping: groups in ascending shard
// order, each in the write set's own order, cut from one array that is new
// on every call (callers retain the groups in host logs), and capped so an
// append to one group cannot spill into the next.
func TestGroupByShard(t *testing.T) {
	place := modPlace{nodes: 4}
	kv := func(keys ...uint64) []wire.KV {
		var out []wire.KV
		for _, k := range keys {
			out = append(out, wire.KV{Key: k, Version: k + 100})
		}
		return out
	}
	cases := []struct {
		name   string
		writes []wire.KV
		want   [][]uint64 // per group, shard = key % 4
	}{
		{"empty", nil, nil},
		{"one key", kv(6), [][]uint64{{6}}},
		{"one shard keeps order", kv(9, 1, 5), [][]uint64{{9, 1, 5}}},
		{"already ascending", kv(4, 1, 5, 3), [][]uint64{{4}, {1, 5}, {3}}},
		{"interleaved", kv(3, 4, 7, 0, 2, 8), [][]uint64{{4, 0, 8}, {2}, {3, 7}}},
		{"descending", kv(7, 6, 5, 4), [][]uint64{{4}, {5}, {6}, {7}}},
		{"duplicate key kept", kv(5, 2, 5), [][]uint64{{5, 5}, {2}}},
		{"more keys than the stack buffer",
			kv(19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
			[][]uint64{{16, 12, 8, 4, 0}, {17, 13, 9, 5, 1}, {18, 14, 10, 6, 2}, {19, 15, 11, 7, 3}}},
	}
	for _, tc := range cases {
		in := slices.Clone(tc.writes)
		got := GroupByShard(place, tc.writes)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d groups, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for i, g := range got {
			if i > 0 && got[i-1].Shard >= g.Shard {
				t.Errorf("%s: group shards not ascending: %d then %d", tc.name, got[i-1].Shard, g.Shard)
			}
			var keys []uint64
			for _, w := range g.Writes {
				if place.ShardOf(w.Key) != g.Shard || w.Version != w.Key+100 {
					t.Errorf("%s: shard %d holds %+v", tc.name, g.Shard, w)
				}
				keys = append(keys, w.Key)
			}
			if !slices.Equal(keys, tc.want[i]) {
				t.Errorf("%s: group %d keys %v, want %v", tc.name, i, keys, tc.want[i])
			}
			if cap(g.Writes) != len(g.Writes) {
				t.Errorf("%s: group %d has spare capacity into its neighbour", tc.name, i)
			}
		}
		// The result must not alias the input: mutate it and re-check.
		if len(tc.writes) > 0 {
			got[0].Writes[0].Version = 0
			if !slices.EqualFunc(in, tc.writes, func(a, b wire.KV) bool { return a.Key == b.Key && a.Version == b.Version }) {
				t.Errorf("%s: grouping aliases its input", tc.name)
			}
		}
	}

	if raceflag.Enabled {
		return // the race detector's instrumentation allocates
	}
	writes := kv(3, 4, 7, 2) // 4 keys over 3 shards
	var sink []ShardWrites
	if n := testing.AllocsPerRun(100, func() { sink = GroupByShard(place, writes) }); n > 2 {
		t.Errorf("grouping 4 keys over 3 shards allocates %v objects, budget 2", n)
	}
	if len(sink) != 3 {
		t.Errorf("%d groups, want 3", len(sink))
	}
	var buf [8]int
	if n := testing.AllocsPerRun(100, func() { _ = WriteShards(place, writes, buf[:0]) }); n != 0 {
		t.Errorf("WriteShards allocates %v objects, want 0", n)
	}
	if got := WriteShards(place, writes, buf[:0]); !slices.Equal(got, []int{0, 2, 3}) {
		t.Errorf("WriteShards = %v, want [0 2 3]", got)
	}
}

// TestLockListsSurviveReset pins the lock-list ownership rule: Reset keeps
// each per-shard lock-key list, so a new attempt that locks keys over the
// same shards allocates nothing, and a list handed to a message (its slot
// set to nil, as every ABORT send does) is never shared with the next
// attempt.
func TestLockListsSurviveReset(t *testing.T) {
	var o OCC
	attempt := func() {
		o.Reset()
		o.AddLocks(2, 20, 22)
		o.AddLocks(0, 4) // inserted ahead of shard 2
		o.AddLocks(1, 9, 13, 17)
		o.AddLocks(2, 26)
	}
	for i := 0; i < 4; i++ {
		attempt()
	}
	want := []LockSet{{0, []uint64{4}}, {1, []uint64{9, 13, 17}}, {2, []uint64{20, 22, 26}}}
	if !reflect.DeepEqual(o.Locked, want) {
		t.Fatalf("Locked = %v, want %v", o.Locked, want)
	}
	if !raceflag.Enabled {
		if n := testing.AllocsPerRun(100, attempt); n != 0 {
			t.Errorf("an attempt locking over the same shards allocates %v objects, want 0", n)
		}
	}

	// Shard 1's list goes out with a message: the next attempt must build
	// its own, whatever shard order it locks in.
	attempt()
	sent := o.Locked[1].Keys
	o.Locked[1].Keys = nil
	o.Reset()
	o.AddLocks(1, 101, 105, 109)
	o.AddLocks(0, 100)
	o.AddLocks(2, 102, 106, 110)
	if !slices.Equal(sent, []uint64{9, 13, 17}) {
		t.Fatalf("the next attempt rewrote a handed-off list: %v", sent)
	}
	for _, ls := range o.Locked {
		if cap(ls.Keys) > 0 && &ls.Keys[:1][0] == &sent[0] {
			t.Fatalf("shard %d's list shares the handed-off list's array", ls.Shard)
		}
	}
}
