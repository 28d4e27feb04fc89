package nicindex

import (
	"math/rand"
	"testing"

	"xenic/internal/store/robinhood"
)

func newPair(slots, dm, capacity int) (*robinhood.Table, *Index) {
	cfg := robinhood.DefaultConfig(slots)
	cfg.MaxDisplacement = dm
	host := robinhood.New(cfg)
	return host, New(host, capacity, 1)
}

func load(t *testing.T, host *robinhood.Table, n int, seed int64) []uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		if err := host.Insert(keys[i], []byte{byte(i), byte(i >> 8)}, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func TestLookupMissThenHit(t *testing.T) {
	host, idx := newPair(1024, 16, 256)
	keys := load(t, host, 900, 1)
	idx.SyncHints()

	k := keys[10]
	r := idx.Lookup(k)
	if !r.Found || r.CacheHit || len(r.Reads()) == 0 {
		t.Fatalf("first lookup: %+v", r)
	}
	if r.Version != 11 {
		t.Fatalf("version = %d", r.Version)
	}
	r2 := idx.Lookup(k)
	if !r2.Found || !r2.CacheHit || len(r2.Reads()) != 0 {
		t.Fatalf("second lookup not a cache hit: %+v", r2)
	}
	s := idx.Stats()
	if s.CacheHits != 1 || s.DMALookups != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleReadWithFreshHints(t *testing.T) {
	host, idx := newPair(4096, 16, 4096)
	keys := load(t, host, 3600, 2) // ~88%
	idx.SyncHints()
	for _, k := range keys {
		r := idx.Lookup(k)
		if !r.Found {
			t.Fatalf("lost key %d", k)
		}
		if r.CacheHit {
			continue
		}
		// With exact hints, in-table keys take one read; overflow keys two.
		maxReads := 1
		if r.Reads()[len(r.Reads())-1].Overflow {
			maxReads = 2
		}
		nonLarge := 0
		for _, rd := range r.Reads() {
			if !rd.Large {
				nonLarge++
			}
		}
		if nonLarge > maxReads {
			t.Fatalf("key %d took %d reads with fresh hints: %+v", k, nonLarge, r.Reads())
		}
	}
}

func TestStaleHintTriggersSecondRead(t *testing.T) {
	host, idx := newPair(1024, 32, 1024)
	load(t, host, 700, 3)
	idx.SyncHints()
	// New insertions can displace keys beyond the synced hints.
	rng := rand.New(rand.NewSource(4))
	extra := make([]uint64, 200)
	for i := range extra {
		extra[i] = rng.Uint64()
		if err := host.Insert(extra[i], []byte("x"), 1); err != nil {
			t.Fatal(err)
		}
	}
	second := idx.Stats().SecondReads
	for _, k := range extra {
		if r := idx.Lookup(k); !r.Found {
			t.Fatalf("lost %d", k)
		}
	}
	if idx.Stats().SecondReads == second {
		t.Skip("no hint went stale at this seed (unlikely)")
	}
}

func TestHintLearning(t *testing.T) {
	host, idx := newPair(1024, 32, 1024)
	keys := load(t, host, 800, 5)
	// No SyncHints: all hints start at 0, so lookups may need a second
	// read but must still succeed, and hints converge afterwards.
	k := keys[0]
	if r := idx.Lookup(k); !r.Found {
		t.Fatal("lookup failed with cold hints")
	}
	seg := host.SegmentOf(host.Home(k))
	if idx.Hint(seg) != host.SegmentMaxDisp(seg) {
		t.Fatalf("hint %d not learned, host has %d", idx.Hint(seg), host.SegmentMaxDisp(seg))
	}
}

func TestOverflowRead(t *testing.T) {
	host, idx := newPair(1024, 4, 1024) // tiny Dm forces overflow
	keys := load(t, host, 920, 6)
	idx.SyncHints()
	if host.Stats().Overflows == 0 {
		t.Skip("no overflow at this seed")
	}
	sawOverflowRead := false
	for _, k := range keys {
		r := idx.Lookup(k)
		if !r.Found {
			t.Fatalf("lost %d", k)
		}
		for _, rd := range r.Reads() {
			if rd.Overflow {
				sawOverflowRead = true
			}
		}
	}
	if !sawOverflowRead {
		t.Fatal("no lookup read an overflow page")
	}
}

func TestLargeObjectExtraRead(t *testing.T) {
	host, idx := newPair(256, 16, 64)
	big := make([]byte, 660)
	if err := host.Insert(7, big, 3); err != nil {
		t.Fatal(err)
	}
	idx.SyncHints()
	r := idx.Lookup(7)
	if !r.Found || len(r.Value) != 660 {
		t.Fatalf("%+v", r)
	}
	hasLarge := false
	for _, rd := range r.Reads() {
		if rd.Large && rd.Bytes == 660 {
			hasLarge = true
		}
	}
	if !hasLarge {
		t.Fatalf("no large-object read: %+v", r.Reads())
	}
}

func TestNegativeLookup(t *testing.T) {
	host, idx := newPair(256, 16, 64)
	load(t, host, 100, 7)
	idx.SyncHints()
	r := idx.Lookup(0xdeadbeef)
	if r.Found {
		t.Fatal("found absent key")
	}
	if len(r.Reads()) == 0 {
		t.Fatal("negative lookup reported no reads")
	}
}

func TestLockUnlock(t *testing.T) {
	host, idx := newPair(256, 16, 64)
	_ = host
	if !idx.TryLock(1, 100) {
		t.Fatal("lock failed")
	}
	if !idx.TryLock(1, 100) {
		t.Fatal("re-lock by owner failed")
	}
	if idx.TryLock(1, 200) {
		t.Fatal("lock stolen")
	}
	if !idx.IsLocked(1, 200) {
		t.Fatal("IsLocked(other) = false")
	}
	if idx.IsLocked(1, 100) {
		t.Fatal("IsLocked(owner) = true")
	}
	idx.Unlock(1, 100)
	if !idx.TryLock(1, 200) {
		t.Fatal("lock after unlock failed")
	}
}

func TestUnlockWrongOwnerPanics(t *testing.T) {
	_, idx := newPair(64, 16, 16)
	idx.TryLock(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	idx.Unlock(5, 2)
}

func TestCommitPinBlocksEviction(t *testing.T) {
	host, idx := newPair(1024, 16, 4) // tiny cache
	keys := load(t, host, 800, 8)
	idx.SyncHints()

	idx.TryLock(keys[0], 1)
	idx.ApplyCommit(keys[0], []byte("committed"), 99)
	idx.Unlock(keys[0], 1)

	// Thrash the cache: the pinned entry must survive.
	for _, k := range keys[1:500] {
		idx.Lookup(k)
	}
	r := idx.Lookup(keys[0])
	if !r.CacheHit || string(r.Value) != "committed" || r.Version != 99 {
		t.Fatalf("pinned entry evicted or stale: %+v", r)
	}
	idx.Unpin(keys[0])
	for _, k := range keys[500:] {
		idx.Lookup(k)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnpinWithoutPinPanics(t *testing.T) {
	_, idx := newPair(64, 16, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	idx.Unpin(3)
}

func TestEvictionKeepsCapacity(t *testing.T) {
	host, idx := newPair(4096, 16, 32)
	keys := load(t, host, 3000, 9)
	idx.SyncHints()
	for _, k := range keys {
		idx.Lookup(k)
		if idx.CachedValues() > 32 {
			t.Fatalf("cache grew to %d", idx.CachedValues())
		}
	}
	if idx.Stats().Evictions == 0 {
		t.Fatal("no evictions")
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVersionOf(t *testing.T) {
	host, idx := newPair(256, 16, 64)
	keys := load(t, host, 100, 10)
	idx.SyncHints()
	if _, ok := idx.VersionOf(keys[0]); ok {
		t.Fatal("version known before lookup")
	}
	idx.Lookup(keys[0])
	v, ok := idx.VersionOf(keys[0])
	if !ok || v != 1 {
		t.Fatalf("VersionOf = %d, %v", v, ok)
	}
}

func TestForceUnlockAll(t *testing.T) {
	_, idx := newPair(64, 16, 16)
	idx.TryLock(1, 9)
	idx.TryLock(2, 9)
	idx.ForceUnlockAll()
	if !idx.TryLock(1, 5) || !idx.TryLock(2, 6) {
		t.Fatal("locks survived ForceUnlockAll")
	}
}

func TestApplyCommitBumpsVersionEvenWithoutCacheSpace(t *testing.T) {
	host, idx := newPair(1024, 16, 1)
	keys := load(t, host, 800, 11)
	idx.SyncHints()
	// Fill the single cache slot and pin it so ApplyCommit below cannot
	// cache a value.
	idx.Lookup(keys[0])
	idx.ApplyCommit(keys[0], []byte("pin"), 50)
	idx.ApplyCommit(keys[1], []byte("meta-only"), 51)
	v, known := idx.VersionOf(keys[1])
	if !known || v != 51 {
		t.Fatalf("metadata-only commit lost: v=%d known=%v", v, known)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReadAbortReadSeesPreAbortVersion drives read → aborted-writer-unlock
// → read and asserts the second read serves the pre-abort version: an
// aborted transaction installs nothing, so its unlock must leave the cached
// object exactly as the first read saw it.
func TestReadAbortReadSeesPreAbortVersion(t *testing.T) {
	host, idx := newPair(1024, 16, 256)
	keys := load(t, host, 900, 21)
	idx.SyncHints()

	k := keys[5]
	r1 := idx.Lookup(k)
	if !r1.Found {
		t.Fatalf("setup: %+v", r1)
	}
	writer := uint64(0xabad1dea)
	if !idx.TryLock(k, writer) {
		t.Fatal("lock failed")
	}
	// The writer aborts: lock released, nothing installed.
	idx.Unlock(k, writer)

	r2 := idx.Lookup(k)
	if !r2.Found || !r2.CacheHit {
		t.Fatalf("second read not served from cache: %+v", r2)
	}
	if r2.Version != r1.Version || string(r2.Value) != string(r1.Value) {
		t.Fatalf("abort leaked state: read %d/%q then %d/%q",
			r1.Version, r1.Value, r2.Version, r2.Value)
	}

	// A never-cached key locked by an aborted writer must not leave a
	// metadata husk behind (Unlock now cleans up like UnlockIf).
	k2 := keys[6]
	if !idx.TryLock(k2, writer) {
		t.Fatal("lock failed")
	}
	idx.Unlock(k2, writer)
	if _, ok := idx.Meta(k2); ok {
		t.Fatal("aborted writer left a metadata-only entry")
	}
	r3 := idx.Lookup(k2)
	if !r3.Found || r3.Version != 7 {
		t.Fatalf("read after aborted writer: %+v", r3)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitAtFullCacheServesCommittedVersion pins the stale-read bug: when
// ApplyCommit hit a full cache with nothing evictable, it used to record
// only the version, so a lookup in the window before the host applied the
// log would DMA-read the pre-commit object and re-serve (and re-cache) it.
// The committed value must win, even if the cache transiently overflows.
func TestCommitAtFullCacheServesCommittedVersion(t *testing.T) {
	host, idx := newPair(1024, 16, 1)
	keys := load(t, host, 800, 22)
	idx.SyncHints()

	// Occupy and pin the only cache slot.
	idx.Lookup(keys[0])
	idx.ApplyCommit(keys[0], []byte("hold"), 60)

	// Commit keys[1]; the host table still has the pre-commit object.
	owner := uint64(0xc0ffee)
	if !idx.TryLock(keys[1], owner) {
		t.Fatal("lock failed")
	}
	idx.ApplyCommit(keys[1], []byte("committed"), 61)
	idx.Unlock(keys[1], owner)

	r := idx.Lookup(keys[1])
	if !r.Found || r.Version != 61 || string(r.Value) != "committed" {
		t.Fatalf("lookup served stale pre-commit object: %+v", r)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Once the host applies the log and unpins, the overflow is shed.
	idx.Unpin(keys[0])
	idx.Unpin(keys[1])
	if idx.CachedValues() > 1 {
		t.Fatalf("cache still over capacity after unpin: %d", idx.CachedValues())
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFillCannotRegressIndexVersion: a DMA read racing a committed-but-not-
// yet-host-applied write must not roll the index's version metadata back to
// the host's stale one — that version is the local OCC validation basis.
func TestFillCannotRegressIndexVersion(t *testing.T) {
	host, idx := newPair(1024, 16, 256)
	keys := load(t, host, 800, 23)
	idx.SyncHints()

	k := keys[2] // host holds version 3
	idx.ApplyCommitMeta(k, 70)
	idx.Lookup(k) // DMA-reads the stale host object
	v, known := idx.VersionOf(k)
	if !known || v != 70 {
		t.Fatalf("stale DMA fill regressed version: v=%d known=%v, want 70", v, known)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// mvIndex is newPair with MVCC version metadata enabled: head timestamps
// come from tsMap (standing in for the host row header) and depth history
// entries are retained per cached object.
func mvIndex(slots, dm, capacity, depth int) (*robinhood.Table, *Index, map[uint64]uint64) {
	host, idx := newPair(slots, dm, capacity)
	tsMap := map[uint64]uint64{}
	idx.SetTSFunc(func(k uint64) uint64 { return tsMap[k] })
	idx.SetChainDepth(depth)
	return host, idx, tsMap
}

// TestFillCannotRegressIndexTimestamp is the multi-version form of the
// version-regression guard: versions of distinct keys are independent
// counters, so a delete + blind re-insert on the host can carry an equal
// version with an older commit timestamp. A DMA fill must not roll the
// index's head timestamp back, or snapshot reads would judge visibility
// against the wrong head.
func TestFillCannotRegressIndexTimestamp(t *testing.T) {
	host, idx, tsMap := mvIndex(1024, 16, 1, 2)
	keys := load(t, host, 800, 24)
	idx.SyncHints()

	// Occupy and pin the only cache slot so fills below stay metadata-only.
	idx.Lookup(keys[0])
	idx.ApplyCommit(keys[0], []byte("hold"), 90)

	k := keys[1]
	tsMap[k] = 30
	idx.Lookup(k) // full cache: fill records metadata with TS 30
	o, ok := idx.Meta(k)
	if !ok || o.HasValue || o.TS != 30 {
		t.Fatalf("metadata-only fill: %+v ok=%v", o, ok)
	}

	// The host row is re-read while carrying an older timestamp (equal
	// version): the recorded head timestamp must not regress.
	tsMap[k] = 25
	idx.Lookup(k)
	if o, _ = idx.Meta(k); o.TS != 30 {
		t.Fatalf("stale DMA fill regressed head timestamp to %d, want 30", o.TS)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiVersionReadAbortRead drives read → commit → aborted-writer-unlock
// → read over a multi-version entry: the abort must leave the head, its
// timestamp, and the retained history exactly as the reads saw them, at
// every snapshot.
func TestMultiVersionReadAbortRead(t *testing.T) {
	host, idx, tsMap := mvIndex(1024, 16, 256, 2)
	keys := load(t, host, 800, 25)
	idx.SyncHints()

	k := keys[3]
	tsMap[k] = 10
	r1 := idx.Lookup(k)
	if !r1.Found {
		t.Fatalf("setup: %+v", r1)
	}

	// A committing writer displaces the head into the history.
	writer := uint64(0x1111)
	if !idx.TryLock(k, writer) {
		t.Fatal("lock failed")
	}
	idx.ApplyCommitTS(k, []byte("c1"), r1.Version+1, 20)
	idx.Unlock(k, writer)
	idx.Unpin(k) // host applied

	if v, ver, ok := idx.LookupAt(k, 10); !ok || ver != r1.Version || string(v) != string(r1.Value) {
		t.Fatalf("snapshot below head: %q v%d ok=%v, want %q v%d", v, ver, ok, r1.Value, r1.Version)
	}
	if v, ver, ok := idx.LookupAt(k, 25); !ok || ver != r1.Version+1 || string(v) != "c1" {
		t.Fatalf("snapshot at head: %q v%d ok=%v", v, ver, ok)
	}

	// A second writer locks and aborts without installing anything.
	aborter := uint64(0x2222)
	if !idx.TryLock(k, aborter) {
		t.Fatal("lock failed")
	}
	idx.Unlock(k, aborter)

	// Both snapshots and the plain read still serve the pre-abort state.
	if v, ver, ok := idx.LookupAt(k, 10); !ok || ver != r1.Version || string(v) != string(r1.Value) {
		t.Fatalf("abort disturbed history: %q v%d ok=%v", v, ver, ok)
	}
	if v, ver, ok := idx.LookupAt(k, 25); !ok || ver != r1.Version+1 || string(v) != "c1" {
		t.Fatalf("abort disturbed head: %q v%d ok=%v", v, ver, ok)
	}
	r2 := idx.Lookup(k)
	if !r2.CacheHit || r2.Version != r1.Version+1 || string(r2.Value) != "c1" {
		t.Fatalf("abort leaked state: %+v", r2)
	}
	if _, _, ok := idx.LookupAt(k, 5); ok {
		t.Fatal("snapshot below the retained chain served from cache")
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiVersionFullCache: retained history versions count against the
// cache capacity, commits at a full cache may run transiently over it while
// pinned, and Unpin sheds the overflow — history values included.
func TestMultiVersionFullCache(t *testing.T) {
	host, idx, tsMap := mvIndex(1024, 16, 2, 2)
	keys := load(t, host, 800, 26)
	idx.SyncHints()

	k0, k1 := keys[0], keys[1]
	tsMap[k0], tsMap[k1] = 5, 6
	r0, r1 := idx.Lookup(k0), idx.Lookup(k1)
	if idx.CachedValues() != 2 {
		t.Fatalf("cache not full: %d", idx.CachedValues())
	}

	// Lock both entries up front (one cross-key transaction), so neither is
	// evictable while the commits' history pushes overflow the cache.
	w := uint64(0x3333)
	idx.TryLock(k0, w)
	idx.TryLock(k1, w)
	idx.ApplyCommitTS(k0, []byte("a1"), r0.Version+1, 20)
	idx.ApplyCommitTS(k1, []byte("b1"), r1.Version+1, 20)
	idx.Unlock(k0, w)
	idx.Unlock(k1, w)
	if idx.CachedValues() != 4 {
		t.Fatalf("history not counted: cached=%d, want 4 (2 heads + 2 hist)", idx.CachedValues())
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Both old and new versions stay cache-resident while pinned.
	if _, ver, ok := idx.LookupAt(k0, 10); !ok || ver != r0.Version {
		t.Fatalf("pinned history miss: v%d ok=%v", ver, ok)
	}
	if _, ver, ok := idx.LookupAt(k0, 20); !ok || ver != r0.Version+1 {
		t.Fatalf("pinned head miss: v%d ok=%v", ver, ok)
	}

	// Host applies the log: Unpin must shed the overflow back to capacity,
	// evicting whole entries with their histories.
	idx.Unpin(k0)
	idx.Unpin(k1)
	if idx.CachedValues() > 2 {
		t.Fatalf("cache still over capacity after unpin: %d", idx.CachedValues())
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiVersionChainDepthCap: successive commits cap the retained history
// at the configured depth; reads below the retained window miss to the DMA
// walk rather than serving a wrong version.
func TestMultiVersionChainDepthCap(t *testing.T) {
	host, idx, tsMap := mvIndex(1024, 16, 256, 2)
	keys := load(t, host, 800, 27)
	idx.SyncHints()

	k := keys[4]
	tsMap[k] = 10
	r := idx.Lookup(k)
	w := uint64(0x4444)
	for i := uint64(1); i <= 3; i++ {
		idx.TryLock(k, w)
		idx.ApplyCommitTS(k, []byte{byte(i)}, r.Version+i, 10+10*i)
		idx.Unlock(k, w)
		idx.Unpin(k)
	}
	o, _ := idx.Meta(k)
	if len(o.Hist) != 2 {
		t.Fatalf("hist depth %d, want 2", len(o.Hist))
	}
	// Oldest retained is the cts-20 version; anything below misses.
	if _, ver, ok := idx.LookupAt(k, 25); !ok || ver != r.Version+1 {
		t.Fatalf("oldest retained: v%d ok=%v, want v%d", ver, ok, r.Version+1)
	}
	if _, _, ok := idx.LookupAt(k, 15); ok {
		t.Fatal("read below the retained window served from cache")
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
