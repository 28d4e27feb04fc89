package nicindex

import (
	"fmt"

	"xenic/internal/store/robinhood"
)

// This file holds refIndex, the index as it was before its records went
// pointer-free: one heap object per key in a map, a []ReadOp per lookup. It
// is kept unchanged (renamed) as the oracle TestIndexAgainstModel drives the
// index against.

// refObject is a cached object plus its transaction metadata. Value may be nil
// for metadata-only entries (e.g. a locked key whose value was never
// cached, or a key being inserted).
type refObject struct {
	Key       uint64
	Value     []byte
	HasValue  bool
	Exists    bool // whether the key currently exists in the shard
	Version   uint64
	Locked    bool
	LockOwner uint64 // transaction id holding the lock
	Pinned    int    // commit-pin count; pinned entries cannot be evicted (§4.2 step 6)
	ref       bool   // CLOCK reference bit

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

// refResult reports a lookup.
type refResult struct {
	Found       bool
	Value       []byte
	Version     uint64
	CacheHit    bool
	Reads       []ReadOp // DMA reads performed, in order (empty on cache hit)
	ObjectsRead int      // objects fetched over PCIe
	// Conflict marks a B+tree row caught mid-commit: the index holds a
	// committed version whose value the host has not applied yet, so no
	// consistent (value, version) pair exists. Callers abort and retry.
	Conflict bool
}

// refIndex is one server's NIC-resident caching index over its host table.
type refIndex struct {
	host     *robinhood.Table
	k        int   // hint slack: read d_i + k elements beyond home (§4.1.3, k=1)
	di       []int // known max displacement per segment (may lag the host)
	capacity int   // max cached values
	cached   int
	objects  map[uint64]*refObject
	ring     []uint64 // CLOCK ring of cached keys
	hand     int
	nlocked  int // currently-locked keys (telemetry gauge, kept O(1))
	stats    Stats

	lockTrace LockTrace

	// tsOf reads a key's head commit timestamp from the host row header
	// during a DMA fill (the simulated Slot does not carry the packed
	// header field). Installed only when MVCC snapshot reads are on.
	tsOf func(key uint64) uint64
	// chainDepth bounds per-entry Hist length (0 = keep no history).
	chainDepth int
}

// newRefIndex creates an index over host with the given cached-value capacity.
// k is the d_i hint slack; the paper sets k=1 experimentally.
func newRefIndex(host *robinhood.Table, capacity, k int) *refIndex {
	if k < 0 {
		panic("nicindex: negative hint slack")
	}
	x := &refIndex{
		host:     host,
		k:        k,
		di:       make([]int, host.Segments()),
		capacity: capacity,
		objects:  make(map[uint64]*refObject),
	}
	return x
}

// SyncHints refreshes every segment's d_i from the host table; called after
// bulk loading, mirroring the NIC learning the layout during setup.
func (x *refIndex) SyncHints() {
	for s := range x.di {
		x.di[s] = x.host.SegmentMaxDisp(s)
	}
}

// Hint returns the current d_i for segment seg.
func (x *refIndex) Hint(seg int) int { return x.di[seg] }

// Stats returns a copy of the event counters.
func (x *refIndex) Stats() Stats { return x.stats }

// SetLockTrace installs (or clears) the lock-transition hook.
func (x *refIndex) SetLockTrace(fn LockTrace) { x.lockTrace = fn }

// SetTSFunc installs the row-header timestamp reader used by DMA fills
// (MVCC snapshot reads). The hook reads the same host row the fill's DMA
// fetched, so it carries no extra charge.
func (x *refIndex) SetTSFunc(fn func(key uint64) uint64) { x.tsOf = fn }

// SetChainDepth bounds the per-entry version history retained for serving
// snapshot reads from the cache (0 = none).
func (x *refIndex) SetChainDepth(k int) { x.chainDepth = k }

// CachedValues reports how many objects currently have cached values.
func (x *refIndex) CachedValues() int { return x.cached }

// Locked reports how many keys are currently locked. Maintained as a
// counter so telemetry gauges avoid an O(objects) scan.
func (x *refIndex) Locked() int { return x.nlocked }

// Meta returns the metadata entry for key if one exists.
func (x *refIndex) Meta(key uint64) (*refObject, bool) {
	o, ok := x.objects[key]
	return o, ok
}

// ensure returns key's metadata entry, allocating one if needed.
func (x *refIndex) ensure(key uint64) *refObject {
	if o, ok := x.objects[key]; ok {
		return o
	}
	o := &refObject{Key: key}
	x.objects[key] = o
	return o
}

// limit returns the host displacement bound.
func (x *refIndex) limit() int {
	if dm := x.host.Config().MaxDisplacement; dm > 0 {
		return dm
	}
	return x.host.Slots()
}

// Lookup resolves key, from cache when possible and otherwise by DMA reads
// against the host table, caching what it fetched. The returned ReadOps let
// the NIC runtime charge DMA latency and PCIe bytes.
func (x *refIndex) Lookup(key uint64) refResult {
	x.stats.Lookups++
	if o, ok := x.objects[key]; ok && o.HasValue {
		o.ref = true
		x.stats.CacheHits++
		return refResult{Found: o.Exists, Value: o.Value, Version: o.Version, CacheHit: true}
	}
	x.stats.DMALookups++

	home := x.host.Home(key)
	seg := x.host.SegmentOf(home)
	dm := x.limit()

	var res refResult
	// First read: home through d_i + k, clamped to the displacement bound.
	window := x.di[seg] + x.k
	if window > dm-1 {
		window = dm - 1
	}
	res.Reads = append(res.Reads, ReadOp{Slots: window + 1, Bytes: (window + 1) * x.host.SlotBytes()})
	res.ObjectsRead += window + 1
	found, done := x.scan(key, home, 0, window+1, &res)

	if !found && !done && window < dm-1 {
		// d_i may be stale: second, adjacent read up to the limit (§4.1.3).
		x.stats.SecondReads++
		more := dm - 1 - window
		res.Reads = append(res.Reads, ReadOp{Slots: more, Bytes: more * x.host.SlotBytes()})
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
		res.Reads = append(res.Reads, ReadOp{Bytes: sz, Overflow: true})
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
		o := x.ensure(key)
		o.Exists = false
	}
	return res
}

// scan searches the fetched slots at displacements [from, to) of home for
// key, resolving large-object indirection and caching the hit. It reads the
// host table slot by slot instead of copying the region a DMA read returns.
// It reports (found, provenDone): provenDone is true when an empty slot or
// Robin Hood early-stop proves the key cannot be further in the table.
func (x *refIndex) scan(key uint64, home, from, to int, res *refResult) (bool, bool) {
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
				res.Reads = append(res.Reads, ReadOp{Bytes: len(lv), Large: true})
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
func (x *refIndex) fill(key uint64, value []byte, version uint64, exists bool) {
	o := x.ensure(key)
	if version < o.Version {
		// DMA data lags the index whenever a commit has been applied here
		// but not yet by the host (the entry is pinned for exactly that
		// window): never let a stale host read regress the version the
		// index already vouched for.
		return
	}
	var ts uint64
	if x.tsOf != nil {
		ts = x.tsOf(key)
		if ts < o.TS {
			// Same lag, multi-version form: versions of distinct keys are
			// independent counters, so a blind re-insert can carry an equal
			// version with an older commit timestamp. The timestamp the
			// index vouched for must not regress either, or a snapshot read
			// would judge visibility against the wrong head.
			return
		}
	}
	if !o.HasValue {
		if x.cached >= x.capacity && !x.evict() {
			// Nothing evictable: keep metadata only.
			o.Version = version
			o.Exists = exists
			o.TS = ts
			return
		}
		x.cached++
		x.ring = append(x.ring, key)
	}
	o.Value = append(o.Value[:0], value...)
	o.HasValue = true
	o.Version = version
	o.Exists = exists
	o.TS = ts
	o.ref = true
}

// evict removes one unpinned, unlocked cached value using CLOCK, returning
// whether space was freed.
func (x *refIndex) evict() bool {
	for scanned := 0; scanned < 2*len(x.ring); scanned++ {
		if len(x.ring) == 0 {
			break
		}
		if x.hand >= len(x.ring) {
			x.hand = 0
		}
		key := x.ring[x.hand]
		o, ok := x.objects[key]
		if !ok || !o.HasValue {
			// Stale ring entry: drop it.
			x.ring[x.hand] = x.ring[len(x.ring)-1]
			x.ring = x.ring[:len(x.ring)-1]
			continue
		}
		if o.ref {
			o.ref = false
			x.hand++
			continue
		}
		if o.Pinned > 0 || o.Locked {
			x.hand++
			continue
		}
		// Evict the value; keep metadata only if locked/pinned state
		// matters (it doesn't here), else drop the whole entry. The
		// version history goes with it — hist values share the entry's
		// cache residency.
		x.ring[x.hand] = x.ring[len(x.ring)-1]
		x.ring = x.ring[:len(x.ring)-1]
		delete(x.objects, key)
		x.cached -= 1 + len(o.Hist)
		x.stats.Evictions++
		return true
	}
	x.stats.EvictFails++
	return false
}

// TryLock acquires key's write lock for owner, allocating a metadata entry
// if necessary. It fails if another transaction holds the lock; re-locking
// by the same owner succeeds (idempotent for retried messages).
func (x *refIndex) TryLock(key, owner uint64) bool {
	o := x.ensure(key)
	if o.Locked && o.LockOwner != owner {
		if x.lockTrace != nil {
			x.lockTrace("lock", key, owner, false)
		}
		return false
	}
	if !o.Locked {
		x.nlocked++
	}
	o.Locked = true
	o.LockOwner = owner
	if x.lockTrace != nil {
		x.lockTrace("lock", key, owner, true)
	}
	return true
}

// Unlock releases key's lock held by owner. Unlocking a lock not held by
// owner panics: it would indicate a protocol bug.
func (x *refIndex) Unlock(key, owner uint64) {
	o, ok := x.objects[key]
	if !ok || !o.Locked || o.LockOwner != owner {
		cur := uint64(0)
		held := false
		if ok {
			cur, held = o.LockOwner, o.Locked
		}
		panic(fmt.Sprintf("nicindex: unlock of key %d not held by %#x (exists=%v locked=%v owner=%#x)",
			key, owner, ok, held, cur))
	}
	o.Locked = false
	o.LockOwner = 0
	x.nlocked--
	if x.lockTrace != nil {
		x.lockTrace("unlock", key, owner, true)
	}
	if o.Pinned == 0 && !o.HasValue {
		// Same cleanup as UnlockIf: an aborted writer's metadata-only entry
		// has no reason to outlive its lock.
		delete(x.objects, key)
	}
}

// UnlockIf releases key only if owner still holds it (tolerant unlock for
// recovery sweeps racing normal lock release).
func (x *refIndex) UnlockIf(key, owner uint64) {
	o, ok := x.objects[key]
	if !ok || !o.Locked || o.LockOwner != owner {
		return
	}
	o.Locked = false
	o.LockOwner = 0
	x.nlocked--
	if x.lockTrace != nil {
		x.lockTrace("unlock", key, owner, true)
	}
	if o.Pinned == 0 && !o.HasValue {
		delete(x.objects, key)
	}
}

// IsLocked reports whether key is locked by a transaction other than owner.
func (x *refIndex) IsLocked(key, owner uint64) bool {
	o, ok := x.objects[key]
	return ok && o.Locked && o.LockOwner != owner
}

// ForEachLocked visits every locked key with its owning transaction, in
// ascending key order (deterministic for recovery sweeps).
func (x *refIndex) ForEachLocked(fn func(key, owner uint64)) {
	var keys []uint64
	for k, o := range x.objects {
		if o.Locked {
			keys = append(keys, k)
		}
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		fn(k, x.objects[k].LockOwner)
	}
}

// ForceUnlockAll releases every lock; recovery uses it before rebuilding
// lock state from logs (§4.2.1).
func (x *refIndex) ForceUnlockAll() {
	for _, o := range x.objects {
		o.Locked = false
		o.LockOwner = 0
		o.Pinned = 0
	}
	x.nlocked = 0
}

// ApplyCommit installs a committed write into the cache, bumps the version,
// and pins the entry until the host applies the log (§4.2 step 6). The
// caller must hold the lock.
func (x *refIndex) ApplyCommit(key uint64, value []byte, version uint64) {
	x.ApplyCommitTS(key, value, version, 0)
}

// ApplyCommitTS is ApplyCommit stamped with the commit's MVCC timestamp
// (cts 0 = MVCC off, byte-identical to ApplyCommit). When history is
// enabled, the displaced head version is pushed onto the entry's Hist so
// snapshot reads just below the new head stay cache-resident.
func (x *refIndex) ApplyCommitTS(key uint64, value []byte, version uint64, cts uint64) {
	o := x.ensure(key)
	// Pin first: the best-effort evictions below must never pick this
	// entry itself.
	o.Pinned++
	if cts != 0 && x.chainDepth > 0 && o.HasValue && o.Exists {
		// Move the head's buffer into the chain rather than copying it. The
		// displaced value migrates intact and the head gets a fresh buffer
		// below, so an in-flight snapshot response that aliased either one
		// keeps a consistent value — the in-place head overwrite is only
		// safe on the OCC path, where validation catches the version change.
		o.Hist = append(o.Hist, Ver{})
		copy(o.Hist[1:], o.Hist)
		o.Hist[0] = Ver{TS: o.TS, Version: o.Version, Value: o.Value}
		o.Value = nil // the buffer now lives in Hist[0]; never reuse it
		if len(o.Hist) > x.chainDepth {
			o.Hist = o.Hist[:x.chainDepth]
		} else {
			// The retained hist value occupies cache space; evict elsewhere
			// (best effort — like the head below, the cache may run
			// transiently over capacity until Unpin sheds it).
			if x.cached >= x.capacity {
				x.evict()
			}
			x.cached++
		}
	}
	if !o.HasValue {
		if x.cached >= x.capacity {
			// Best effort: the committed value must be retained even when
			// nothing is evictable, or a lookup in the window before the
			// host applies the log would DMA-read (and re-cache) the
			// pre-commit object. The cache runs transiently over capacity
			// until Unpin sheds the excess.
			x.evict()
		}
		x.cached++
		x.ring = append(x.ring, key)
		o.HasValue = true
	}
	o.Value = append(o.Value[:0], value...)
	o.Version = version
	o.Exists = true
	if cts != 0 {
		o.TS = cts
	}
	o.ref = true
}

// LookupAt resolves the newest version of key visible at snapshot S from
// the cache alone. ok=false means the cache cannot prove what S sees and
// the caller must fall back to a DMA walk of the host row's version chain;
// it never means the version does not exist. Charge-free: a hit serves
// entirely from NIC memory.
func (x *refIndex) LookupAt(key, S uint64) (value []byte, version uint64, ok bool) {
	o, found := x.objects[key]
	if !found || !o.HasValue {
		return nil, 0, false
	}
	if o.TS <= S {
		// The cached head was committed at or before S: it is exactly the
		// version S sees (coherence with the host is the cache invariant
		// OCC validation already relies on).
		o.ref = true
		return o.Value, o.Version, true
	}
	for i := range o.Hist {
		if o.Hist[i].TS <= S {
			o.ref = true
			return o.Hist[i].Value, o.Hist[i].Version, true
		}
	}
	return nil, 0, false
}

// ApplyCommitMeta records a committed version without caching a value —
// used for keys the NIC never serves reads for (coordinator-local B+tree
// keys), whose versions still gate local OCC validation. The entry is
// pinned until the host applies the log.
func (x *refIndex) ApplyCommitMeta(key uint64, version uint64) {
	o := x.ensure(key)
	o.Version = version
	o.Exists = true
	o.Pinned++
}

// Unpin releases a commit pin once the host acknowledges applying the
// logged write, making the entry evictable again. Metadata-only entries
// with no remaining reason to exist are dropped.
func (x *refIndex) Unpin(key uint64) {
	o, ok := x.objects[key]
	if !ok || o.Pinned == 0 {
		panic(fmt.Sprintf("nicindex: unpin of unpinned key %d", key))
	}
	o.Pinned--
	if o.Pinned == 0 && !o.HasValue && !o.Locked {
		delete(x.objects, key)
		return
	}
	// Shed any transient overflow ApplyCommit took on while this entry was
	// pinned at a full cache — head values and retained hist versions alike
	// (evicting an entry frees its whole version history).
	for x.cached > x.capacity && x.evict() {
	}
}

// VersionOf returns the cached version for key if the index knows it.
func (x *refIndex) VersionOf(key uint64) (uint64, bool) {
	if o, ok := x.objects[key]; ok && (o.HasValue || o.Pinned > 0 || o.Version > 0) {
		return o.Version, o.Exists || o.HasValue
	}
	return 0, false
}

// CheckInvariants validates cache bookkeeping.
func (x *refIndex) CheckInvariants() error {
	n, held := 0, 0
	for k, o := range x.objects {
		if o.Key != k {
			return fmt.Errorf("entry %d has key %d", k, o.Key)
		}
		if len(o.Hist) > 0 && !o.HasValue {
			return fmt.Errorf("key %d has history but no cached head", k)
		}
		if x.chainDepth > 0 && len(o.Hist) > x.chainDepth {
			return fmt.Errorf("key %d hist depth %d exceeds bound %d", k, len(o.Hist), x.chainDepth)
		}
		prev := o.TS
		for i, v := range o.Hist {
			if v.TS >= prev && prev != 0 {
				return fmt.Errorf("key %d hist[%d] ts %d not below predecessor %d", k, i, v.TS, prev)
			}
			prev = v.TS
		}
		if o.HasValue {
			n += 1 + len(o.Hist)
			if o.Pinned > 0 || o.Locked {
				held += 1 + len(o.Hist)
			}
		}
		if o.Pinned < 0 {
			return fmt.Errorf("key %d pinned %d", k, o.Pinned)
		}
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
