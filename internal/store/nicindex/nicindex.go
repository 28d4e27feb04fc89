// Package nicindex implements Xenic's SmartNIC caching index (§4.1.3): a
// NIC-memory structure with one entry per host-table segment, holding a
// cache of hot objects, transaction metadata (lock state and version
// numbers) for objects touched by ongoing transactions, the known maximum
// displacement d_i of keys homed in the segment, and the segment's overflow
// address. The index makes common-case remote lookups a single DMA read of
// d_i+k+1 slots, with a second adjacent read when concurrent host-side
// insertions have invalidated d_i and an overflow-page read for keys past
// the displacement limit.
//
// Lock state lives only here (one location, §4.2.1), so recovery can
// rebuild it from logs.
package nicindex

import (
	"fmt"
	"slices"

	"xenic/internal/store/cell"
	"xenic/internal/store/robinhood"
)

// Object is the modelled view of one index entry — a cached object plus its
// transaction metadata — materialised by Meta. Value may be nil for
// metadata-only entries (e.g. a locked key whose value was never cached, or
// a key being inserted). The index itself keeps a pointer-free record per
// key (see Index).
type Object struct {
	Key       uint64
	Value     []byte
	HasValue  bool
	Exists    bool // whether the key currently exists in the shard
	Version   uint64
	Locked    bool
	LockOwner uint64 // transaction id holding the lock
	Pinned    int    // commit-pin count; pinned entries cannot be evicted (§4.2 step 6)

	// MVCC version metadata (zero-valued unless the owning cluster runs
	// with snapshot reads enabled). TS is the commit timestamp of the
	// cached head version: stamped by ApplyCommitTS on commit, or read
	// from the row header on a DMA fill (0 = the row predates timestamp
	// tracking, visible to every snapshot). Hist holds displaced older
	// versions, newest first, so snapshot reads below the head resolve
	// without a DMA walk. Hist values count against the cache capacity.
	TS   uint64
	Hist []Ver
}

// Ver is one retained older version of a cached object.
type Ver struct {
	TS      uint64 // commit timestamp that installed it
	Version uint64
	Value   []byte
}

// ReadOp describes one DMA read a lookup performed.
type ReadOp struct {
	Slots    int  // number of table slots fetched (0 for overflow/large reads)
	Bytes    int  // DMA payload size
	Overflow bool // overflow-page read
	Large    bool // out-of-table large-object read
}

// maxReads is the most DMA reads one lookup issues: the first window, the
// second (adjacent) window, then either one large-object read or one
// overflow page.
const maxReads = 3

// Result reports a lookup. It carries its DMA reads inline, so a lookup
// allocates nothing to describe them.
type Result struct {
	Found    bool
	CacheHit bool
	// Conflict marks a B+tree row caught mid-commit: the index holds a
	// committed version whose value the host has not applied yet, so no
	// consistent (value, version) pair exists. Callers abort and retry.
	Conflict    bool
	nreads      uint8
	Value       []byte
	Version     uint64
	ObjectsRead int // objects fetched over PCIe
	reads       [maxReads]ReadOp
}

// Reads returns the DMA reads performed, in order (none on a cache hit).
func (r *Result) Reads() []ReadOp { return r.reads[:r.nreads] }

// addRead records one more DMA read.
func (r *Result) addRead(op ReadOp) {
	r.reads[r.nreads] = op
	r.nreads++
}

// Stats counts index events.
type Stats struct {
	Lookups     int64
	CacheHits   int64
	DMALookups  int64
	SecondReads int64 // stale-d_i adjacent reads
	OverReads   int64 // overflow page reads
	Evictions   int64
	EvictFails  int64 // eviction scans that found nothing evictable
}

// Snapshot renders the counters for the stats registry.
func (s Stats) Snapshot() map[string]any {
	return map[string]any{
		"lookups":      s.Lookups,
		"cache_hits":   s.CacheHits,
		"dma_lookups":  s.DMALookups,
		"second_reads": s.SecondReads,
		"over_reads":   s.OverReads,
		"evictions":    s.Evictions,
		"evict_fails":  s.EvictFails,
	}
}

// Merge adds o's counts into s.
func (s *Stats) Merge(o Stats) {
	s.Lookups += o.Lookups
	s.CacheHits += o.CacheHits
	s.DMALookups += o.DMALookups
	s.SecondReads += o.SecondReads
	s.OverReads += o.OverReads
	s.Evictions += o.Evictions
	s.EvictFails += o.EvictFails
}

// LockTrace observes lock-state transitions: op is "lock" or "unlock", ok
// is false when a TryLock lost to another holder. The hook is installed
// only while tracing, so the disabled-path cost is one nil check.
type LockTrace func(op string, key, owner uint64, ok bool)

// entry is the in-memory record of one key: 48 pointer-free bytes, so
// neither the record slab nor the key map is ever scanned by the garbage
// collector, and an entry costs no allocation of its own. It is not the
// modelled layout (Object, materialised by Meta, is).
type entry struct {
	key     uint64
	version uint64
	owner   uint64 // lock owner, while flagLocked
	ts      uint64 // MVCC commit timestamp of the cached head (Object.TS)
	pinned  int32  // commit pins
	val     uint32 // the cached value's cell; 0 = metadata only
	flags   uint8
}

const (
	flagLive   uint8 = 1 << iota // record in use; a freed one is zero
	flagExists                   // Object.Exists
	flagLocked
	flagRef // CLOCK reference bit
)

// Index is one server's NIC-resident caching index over its host table.
//
// Memory: keys maps each key with an entry to its record number in recs;
// released record numbers are reused LIFO. Cached head values live in a
// value-cell side table, one cell per valued record. The cell is overwritten
// in place only by its own key's next fill or commit, and released with its
// record. MVCC history lives in hist, keyed by record number, and is
// touched only when chainDepth > 0.
type Index struct {
	host     *robinhood.Table
	k        int   // hint slack: read d_i + k elements beyond home (§4.1.3, k=1)
	di       []int // known max displacement per segment (may lag the host)
	capacity int   // max cached values
	cached   int
	keys     map[uint64]int32
	recs     []entry
	free     []int32 // released record numbers
	cells    cell.Table
	hist     map[int32][]Ver // retained older versions, newest first; nil until first used
	ring     []int32         // CLOCK ring: every record with a cached value, once
	hand     int
	nlocked  int // currently-locked keys (telemetry gauge, kept O(1))
	stats    Stats

	lockTrace LockTrace

	// tsOf reads a key's head commit timestamp from the host row header
	// during a DMA fill (the simulated Slot does not carry the packed
	// header field). Installed only when MVCC snapshot reads are on.
	tsOf func(key uint64) uint64
	// chainDepth bounds per-entry history length (0 = keep no history).
	chainDepth int
}

// New creates an index over host with the given cached-value capacity.
// k is the d_i hint slack; the paper sets k=1 experimentally.
func New(host *robinhood.Table, capacity, k int) *Index {
	if k < 0 {
		panic("nicindex: negative hint slack")
	}
	x := &Index{
		host:     host,
		k:        k,
		di:       make([]int, host.Segments()),
		capacity: capacity,
		keys:     make(map[uint64]int32),
	}
	return x
}

// SyncHints refreshes every segment's d_i from the host table; called after
// bulk loading, mirroring the NIC learning the layout during setup.
func (x *Index) SyncHints() {
	for s := range x.di {
		x.di[s] = x.host.SegmentMaxDisp(s)
	}
}

// Hint returns the current d_i for segment seg.
func (x *Index) Hint(seg int) int { return x.di[seg] }

// Stats returns a copy of the event counters.
func (x *Index) Stats() Stats { return x.stats }

// SetLockTrace installs (or clears) the lock-transition hook.
func (x *Index) SetLockTrace(fn LockTrace) { x.lockTrace = fn }

// SetTSFunc installs the row-header timestamp reader used by DMA fills
// (MVCC snapshot reads). The hook reads the same host row the fill's DMA
// fetched, so it carries no extra charge.
func (x *Index) SetTSFunc(fn func(key uint64) uint64) { x.tsOf = fn }

// SetChainDepth bounds the per-entry version history retained for serving
// snapshot reads from the cache (0 = none).
func (x *Index) SetChainDepth(k int) { x.chainDepth = k }

// CachedValues reports how many objects currently have cached values.
func (x *Index) CachedValues() int { return x.cached }

// Locked reports how many keys are currently locked. Maintained as a
// counter so telemetry gauges avoid an O(objects) scan.
func (x *Index) Locked() int { return x.nlocked }

// Meta returns the metadata entry for key if one exists, materialised as
// the modelled Object. Value and Hist alias the index's own; callers must
// not write them.
func (x *Index) Meta(key uint64) (Object, bool) {
	r, ok := x.keys[key]
	if !ok {
		return Object{}, false
	}
	e := &x.recs[r]
	o := Object{
		Key:       e.key,
		HasValue:  e.val != 0,
		Exists:    e.flags&flagExists != 0,
		Version:   e.version,
		Locked:    e.flags&flagLocked != 0,
		LockOwner: e.owner,
		Pinned:    int(e.pinned),
		TS:        e.ts,
		Hist:      x.hist[r],
	}
	if e.val != 0 {
		o.Value = x.cells.Get(e.val)
	}
	return o, true
}

// ensure returns key's record number, taking a record if it has none.
func (x *Index) ensure(key uint64) int32 {
	if r, ok := x.keys[key]; ok {
		return r
	}
	var r int32
	if n := len(x.free); n > 0 {
		r = x.free[n-1]
		x.free = x.free[:n-1]
	} else {
		x.recs = append(x.recs, entry{})
		r = int32(len(x.recs) - 1)
	}
	x.recs[r] = entry{key: key, flags: flagLive}
	x.keys[key] = r
	return r
}

// release deletes record r's entry; its value cell and history go with it.
func (x *Index) release(r int32) {
	e := &x.recs[r]
	delete(x.keys, e.key)
	if e.val != 0 {
		x.cells.Release(e.val)
	}
	delete(x.hist, r)
	*e = entry{}
	x.free = append(x.free, r)
}

// setValue installs value as valued record e's head. Only e's own key ever
// wrote the cell's buffer, so it is overwritten in place.
func (x *Index) setValue(e *entry, value []byte) {
	x.cells.Set(e.val, append(x.cells.Get(e.val)[:0], value...))
}

// limit returns the host displacement bound.
func (x *Index) limit() int {
	if dm := x.host.Config().MaxDisplacement; dm > 0 {
		return dm
	}
	return x.host.Slots()
}

// Lookup resolves key, from cache when possible and otherwise by DMA reads
// against the host table, caching what it fetched. The returned ReadOps let
// the NIC runtime charge DMA latency and PCIe bytes.
func (x *Index) Lookup(key uint64) Result {
	x.stats.Lookups++
	if r, ok := x.keys[key]; ok && x.recs[r].val != 0 {
		e := &x.recs[r]
		e.flags |= flagRef
		x.stats.CacheHits++
		return Result{Found: e.flags&flagExists != 0, Value: x.cells.Get(e.val), Version: e.version, CacheHit: true}
	}
	x.stats.DMALookups++

	home := x.host.Home(key)
	seg := x.host.SegmentOf(home)
	dm := x.limit()

	var res Result
	// First read: home through d_i + k, clamped to the displacement bound.
	window := x.di[seg] + x.k
	if window > dm-1 {
		window = dm - 1
	}
	res.addRead(ReadOp{Slots: window + 1, Bytes: (window + 1) * x.host.SlotBytes()})
	res.ObjectsRead += window + 1
	found, done := x.scan(key, home, 0, window+1, &res)

	if !found && !done && window < dm-1 {
		// d_i may be stale: second, adjacent read up to the limit (§4.1.3).
		x.stats.SecondReads++
		more := dm - 1 - window
		res.addRead(ReadOp{Slots: more, Bytes: more * x.host.SlotBytes()})
		res.ObjectsRead += more
		found, _ = x.scan(key, home, window+1, dm, &res)
	}

	if !found && x.host.OverflowLen(seg) > 0 {
		// Key may have spilled past the displacement limit: read the
		// segment's overflow page.
		x.stats.OverReads++
		over := x.host.ReadOverflow(seg)
		sz := 0
		for _, e := range over {
			sz += 16 + len(e.Value)
		}
		res.addRead(ReadOp{Bytes: sz, Overflow: true})
		res.ObjectsRead += len(over)
		for _, e := range over {
			if e.Key == key {
				res.Found = true
				res.Value = e.Value
				res.Version = e.Version
				x.fill(key, e.Value, e.Version, true)
			}
		}
	}

	// The NIC has now learned the segment's true layout.
	x.di[seg] = x.host.SegmentMaxDisp(seg)
	if !res.Found && !found {
		// Negative result: record a metadata-only entry so repeated misses
		// and inserts of this key have a home.
		x.recs[x.ensure(key)].flags &^= flagExists
	}
	return res
}

// scan searches the fetched slots at displacements [from, to) of home for
// key, resolving large-object indirection and caching the hit. It reads the
// host table slot by slot instead of copying the region a DMA read returns.
// It reports (found, provenDone): provenDone is true when an empty slot or
// Robin Hood early-stop proves the key cannot be further in the table.
func (x *Index) scan(key uint64, home, from, to int, res *Result) (bool, bool) {
	for d := from; d < to; d++ {
		s := x.host.SlotAt(home + d)
		if !s.Occupied {
			return false, true
		}
		if s.Key == key {
			val := s.Value
			if s.Indirect {
				lv, ok := x.host.LargeValue(key)
				if !ok {
					panic(fmt.Sprintf("nicindex: dangling large pointer for key %d", key))
				}
				val = lv
				res.addRead(ReadOp{Bytes: len(lv), Large: true})
				res.ObjectsRead++
			}
			res.Found = true
			res.Value = val
			res.Version = s.Version
			x.fill(key, val, s.Version, true)
			return true, true
		}
		if s.Disp < d {
			return false, true
		}
	}
	return false, false
}

// fill caches a value for key, evicting if needed.
func (x *Index) fill(key uint64, value []byte, version uint64, exists bool) {
	r := x.ensure(key)
	e := &x.recs[r] // evict releases other records, never r (it has no value yet)
	if version < e.version {
		// DMA data lags the index whenever a commit has been applied here
		// but not yet by the host (the entry is pinned for exactly that
		// window): never let a stale host read regress the version the
		// index already vouched for.
		return
	}
	var ts uint64
	if x.tsOf != nil {
		ts = x.tsOf(key)
		if ts < e.ts {
			// Same lag, multi-version form: versions of distinct keys are
			// independent counters, so a blind re-insert can carry an equal
			// version with an older commit timestamp. The timestamp the
			// index vouched for must not regress either, or a snapshot read
			// would judge visibility against the wrong head.
			return
		}
	}
	e.flags &^= flagExists
	if exists {
		e.flags |= flagExists
	}
	e.version = version
	e.ts = ts
	if e.val == 0 {
		if x.cached >= x.capacity && !x.evict() {
			// Nothing evictable: keep metadata only.
			return
		}
		x.cached++
		x.ring = append(x.ring, r)
		e.val = x.cells.New()
	}
	x.setValue(e, value)
	e.flags |= flagRef
}

// evict removes one unpinned, unlocked cached value using CLOCK, returning
// whether space was freed.
func (x *Index) evict() bool {
	for scanned := 0; scanned < 2*len(x.ring); scanned++ {
		if x.hand >= len(x.ring) {
			x.hand = 0
		}
		r := x.ring[x.hand]
		e := &x.recs[r]
		if e.flags&flagRef != 0 {
			e.flags &^= flagRef
			x.hand++
			continue
		}
		if e.pinned > 0 || e.flags&flagLocked != 0 {
			x.hand++
			continue
		}
		// Evict the whole entry: an unpinned, unlocked one has no metadata
		// worth keeping. The version history goes with it — hist values
		// share the entry's cache residency.
		x.ring[x.hand] = x.ring[len(x.ring)-1]
		x.ring = x.ring[:len(x.ring)-1]
		x.cached -= 1 + len(x.hist[r])
		x.release(r)
		x.stats.Evictions++
		return true
	}
	x.stats.EvictFails++
	return false
}

// TryLock acquires key's write lock for owner, allocating a metadata entry
// if necessary. It fails if another transaction holds the lock; re-locking
// by the same owner succeeds (idempotent for retried messages).
func (x *Index) TryLock(key, owner uint64) bool {
	e := &x.recs[x.ensure(key)]
	if e.flags&flagLocked != 0 && e.owner != owner {
		if x.lockTrace != nil {
			x.lockTrace("lock", key, owner, false)
		}
		return false
	}
	if e.flags&flagLocked == 0 {
		x.nlocked++
	}
	e.flags |= flagLocked
	e.owner = owner
	if x.lockTrace != nil {
		x.lockTrace("lock", key, owner, true)
	}
	return true
}

// Unlock releases key's lock held by owner. Unlocking a lock not held by
// owner panics: it would indicate a protocol bug.
func (x *Index) Unlock(key, owner uint64) {
	if !x.unlock(key, owner) {
		o, ok := x.Meta(key)
		panic(fmt.Sprintf("nicindex: unlock of key %d not held by %#x (exists=%v locked=%v owner=%#x)",
			key, owner, ok, o.Locked, o.LockOwner))
	}
}

// UnlockIf releases key only if owner still holds it (tolerant unlock for
// recovery sweeps racing normal lock release).
func (x *Index) UnlockIf(key, owner uint64) { x.unlock(key, owner) }

// unlock releases key if owner holds it, reporting whether it did. An
// aborted writer's metadata-only entry has no reason to outlive its lock.
func (x *Index) unlock(key, owner uint64) bool {
	r, ok := x.keys[key]
	if !ok {
		return false
	}
	e := &x.recs[r]
	if e.flags&flagLocked == 0 || e.owner != owner {
		return false
	}
	e.flags &^= flagLocked
	e.owner = 0
	x.nlocked--
	if x.lockTrace != nil {
		x.lockTrace("unlock", key, owner, true)
	}
	if e.pinned == 0 && e.val == 0 {
		x.release(r)
	}
	return true
}

// IsLocked reports whether key is locked by a transaction other than owner.
func (x *Index) IsLocked(key, owner uint64) bool {
	r, ok := x.keys[key]
	return ok && x.recs[r].flags&flagLocked != 0 && x.recs[r].owner != owner
}

// ForEachLocked visits every locked key with its owning transaction, in
// ascending key order (deterministic for recovery sweeps).
func (x *Index) ForEachLocked(fn func(key, owner uint64)) {
	var keys []uint64
	for i := range x.recs {
		if e := &x.recs[i]; e.flags&flagLocked != 0 {
			keys = append(keys, e.key)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		fn(k, x.recs[x.keys[k]].owner)
	}
}

// ForceUnlockAll releases every lock; recovery uses it before rebuilding
// lock state from logs (§4.2.1).
func (x *Index) ForceUnlockAll() {
	for i := range x.recs {
		e := &x.recs[i]
		e.flags &^= flagLocked
		e.owner = 0
		e.pinned = 0
	}
	x.nlocked = 0
}

// ApplyCommit installs a committed write into the cache, bumps the version,
// and pins the entry until the host applies the log (§4.2 step 6). The
// caller must hold the lock.
func (x *Index) ApplyCommit(key uint64, value []byte, version uint64) {
	x.ApplyCommitTS(key, value, version, 0)
}

// ApplyCommitTS is ApplyCommit stamped with the commit's MVCC timestamp
// (cts 0 = MVCC off, byte-identical to ApplyCommit). When history is
// enabled, the displaced head version is pushed onto the entry's history so
// snapshot reads just below the new head stay cache-resident.
func (x *Index) ApplyCommitTS(key uint64, value []byte, version uint64, cts uint64) {
	r := x.ensure(key)
	e := &x.recs[r] // pinned below, so the evictions here release other records
	// Pin first: the best-effort evictions below must never pick this
	// entry itself.
	e.pinned++
	if cts != 0 && x.chainDepth > 0 && e.val != 0 && e.flags&flagExists != 0 {
		// Move the head's buffer into the chain rather than copying it. The
		// displaced value migrates intact and the head gets a fresh buffer
		// below, so an in-flight snapshot response that aliased either one
		// keeps a consistent value — the in-place head overwrite is only
		// safe on the OCC path, where validation catches the version change.
		if x.hist == nil {
			x.hist = make(map[int32][]Ver)
		}
		h := append(x.hist[r], Ver{})
		copy(h[1:], h)
		h[0] = Ver{TS: e.ts, Version: e.version, Value: x.cells.Get(e.val)}
		x.cells.Set(e.val, nil) // the buffer now lives in the history; never reuse it
		if len(h) > x.chainDepth {
			x.hist[r] = h[:x.chainDepth]
		} else {
			x.hist[r] = h
			// The retained hist value occupies cache space; evict elsewhere
			// (best effort — like the head below, the cache may run
			// transiently over capacity until Unpin sheds it).
			if x.cached >= x.capacity {
				x.evict()
			}
			x.cached++
		}
	}
	if e.val == 0 {
		if x.cached >= x.capacity {
			// Best effort: the committed value must be retained even when
			// nothing is evictable, or a lookup in the window before the
			// host applies the log would DMA-read (and re-cache) the
			// pre-commit object. The cache runs transiently over capacity
			// until Unpin sheds the excess.
			x.evict()
		}
		x.cached++
		x.ring = append(x.ring, r)
		e.val = x.cells.New()
	}
	x.setValue(e, value)
	e.version = version
	e.flags |= flagExists | flagRef
	if cts != 0 {
		e.ts = cts
	}
}

// LookupAt resolves the newest version of key visible at snapshot S from
// the cache alone. ok=false means the cache cannot prove what S sees and
// the caller must fall back to a DMA walk of the host row's version chain;
// it never means the version does not exist. Charge-free: a hit serves
// entirely from NIC memory.
func (x *Index) LookupAt(key, S uint64) (value []byte, version uint64, ok bool) {
	r, found := x.keys[key]
	if !found || x.recs[r].val == 0 {
		return nil, 0, false
	}
	e := &x.recs[r]
	if e.ts <= S {
		// The cached head was committed at or before S: it is exactly the
		// version S sees (coherence with the host is the cache invariant
		// OCC validation already relies on).
		e.flags |= flagRef
		return x.cells.Get(e.val), e.version, true
	}
	for _, v := range x.hist[r] {
		if v.TS <= S {
			e.flags |= flagRef
			return v.Value, v.Version, true
		}
	}
	return nil, 0, false
}

// ApplyCommitMeta records a committed version without caching a value —
// used for keys the NIC never serves reads for (coordinator-local B+tree
// keys), whose versions still gate local OCC validation. The entry is
// pinned until the host applies the log.
func (x *Index) ApplyCommitMeta(key uint64, version uint64) {
	e := &x.recs[x.ensure(key)]
	e.version = version
	e.flags |= flagExists
	e.pinned++
}

// Unpin releases a commit pin once the host acknowledges applying the
// logged write, making the entry evictable again. Metadata-only entries
// with no remaining reason to exist are dropped.
func (x *Index) Unpin(key uint64) {
	r, ok := x.keys[key]
	if !ok || x.recs[r].pinned == 0 {
		panic(fmt.Sprintf("nicindex: unpin of unpinned key %d", key))
	}
	e := &x.recs[r]
	e.pinned--
	if e.pinned == 0 && e.val == 0 && e.flags&flagLocked == 0 {
		x.release(r)
		return
	}
	// Shed any transient overflow ApplyCommit took on while this entry was
	// pinned at a full cache — head values and retained hist versions alike
	// (evicting an entry frees its whole version history).
	for x.cached > x.capacity && x.evict() {
	}
}

// VersionOf returns the cached version for key if the index knows it.
func (x *Index) VersionOf(key uint64) (uint64, bool) {
	if r, ok := x.keys[key]; ok {
		if e := &x.recs[r]; e.val != 0 || e.pinned > 0 || e.version > 0 {
			return e.version, e.flags&flagExists != 0 || e.val != 0
		}
	}
	return 0, false
}

// CheckInvariants validates cache bookkeeping and the record layout: every
// key maps to a live record holding it, every valued record owns one cell
// and sits on the CLOCK ring once, and the counters match the records.
func (x *Index) CheckInvariants() error {
	onRing := make([]bool, len(x.recs))
	for _, r := range x.ring {
		if r < 0 || int(r) >= len(x.recs) || onRing[r] {
			return fmt.Errorf("CLOCK ring holds record %d twice or out of range", r)
		}
		onRing[r] = true
	}
	cellUsed := make([]bool, x.cells.Len())
	n, held, live, valued, locked, withHist := 0, 0, 0, 0, 0, 0
	for i := range x.recs {
		e := &x.recs[i]
		r := int32(i)
		if e.flags&flagLive == 0 {
			if *e != (entry{}) || onRing[r] {
				return fmt.Errorf("free record %d not cleared", r)
			}
			continue
		}
		live++
		k := e.key
		if got, ok := x.keys[k]; !ok || got != r {
			return fmt.Errorf("record %d holds key %d, which maps to %d (%v)", r, k, got, ok)
		}
		hist := x.hist[r]
		if len(hist) > 0 {
			withHist++
			if e.val == 0 {
				return fmt.Errorf("key %d has history but no cached head", k)
			}
		}
		if x.chainDepth > 0 && len(hist) > x.chainDepth {
			return fmt.Errorf("key %d hist depth %d exceeds bound %d", k, len(hist), x.chainDepth)
		}
		prev := e.ts
		for i, v := range hist {
			if v.TS >= prev && prev != 0 {
				return fmt.Errorf("key %d hist[%d] ts %d not below predecessor %d", k, i, v.TS, prev)
			}
			prev = v.TS
		}
		if e.flags&flagLocked != 0 {
			locked++
		}
		if e.val == 0 {
			if onRing[r] {
				return fmt.Errorf("key %d has no cached value but is on the CLOCK ring", k)
			}
		} else {
			c := int(e.val) - 1
			if c >= len(cellUsed) || cellUsed[c] {
				return fmt.Errorf("key %d: value cell %d out of range or shared", k, c)
			}
			cellUsed[c] = true
			if !onRing[r] {
				return fmt.Errorf("key %d has a cached value but is not on the CLOCK ring", k)
			}
			valued++
			n += 1 + len(hist)
			if e.pinned > 0 || e.flags&flagLocked != 0 {
				held += 1 + len(hist)
			}
		}
		if e.pinned < 0 {
			return fmt.Errorf("key %d pinned %d", k, e.pinned)
		}
	}
	if live != len(x.keys) || live+len(x.free) != len(x.recs) {
		return fmt.Errorf("%d live records, %d keys, %d free of %d", live, len(x.keys), len(x.free), len(x.recs))
	}
	if x.cells.Live() != valued {
		return fmt.Errorf("%d live value cells != %d cached values", x.cells.Live(), valued)
	}
	if len(x.hist) != withHist {
		return fmt.Errorf("history held for %d records, %d have any", len(x.hist), withHist)
	}
	if locked != x.nlocked {
		return fmt.Errorf("%d keys locked, counter says %d", locked, x.nlocked)
	}
	if n != x.cached {
		return fmt.Errorf("cached=%d but %d values resident", x.cached, n)
	}
	// ApplyCommit may run transiently over capacity, but only while the
	// overflow is covered by pinned or locked (unevictable) values.
	if x.cached > x.capacity && x.cached-x.capacity > held {
		return fmt.Errorf("cached=%d exceeds capacity=%d beyond the %d pinned/locked values", x.cached, x.capacity, held)
	}
	return nil
}
