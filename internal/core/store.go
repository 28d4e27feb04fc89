package core

import (
	"fmt"

	"xenic/internal/chassis"
	"xenic/internal/store/btree"
	"xenic/internal/store/robinhood"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// ShardData is one replica of one shard: the partitioned hash table plus
// the coordinator-local B+tree tables (TPC-C), both versioned. Under MVCC
// the mv sidecar keeps each key's bounded version chain: the row itself is
// the chain head and hist holds displaced older versions, newest first.
// Chains are lazy — keys never written under MVCC carry no chain and have
// an implicit head commit timestamp of 0 (visible to every snapshot).
type ShardData struct {
	Hash  *robinhood.Table
	BTree *btree.Tree
	place txnmodel.Placement
	mv    map[uint64]*mvChain
}

// mvVer is one retained old version of a key. Value bytes live packed in
// the owning chain's vals buffer (addressed by off/vlen) so hist stays
// pointer-free: the garbage collector skips it entirely instead of scanning
// one heap object per retained version, which measurably slows the whole
// simulator once chains number in the tens of thousands.
type mvVer struct {
	ts      uint64 // commit timestamp that installed it
	version uint64 // OCC version number
	off     uint32 // value offset into mvChain.vals
	vlen    uint32 // value length
}

// mvChain is a key's version-chain sidecar.
type mvChain struct {
	headTS uint64  // commit timestamp of the row (chain head)
	born   uint64  // cts of the key's first version; 0 = predates tracking
	hist   []mvVer // displaced older versions, newest first
	vals   []byte  // packed value bytes of hist entries
	waste  int     // bytes in vals no longer referenced by any hist entry
}

// value returns entry i's bytes. The full slice expression pins capacity so
// no caller append can reach a neighbor's bytes.
func (c *mvChain) value(i int) []byte {
	e := &c.hist[i]
	return c.vals[e.off : e.off+e.vlen : e.off+e.vlen]
}

// drop truncates hist to its first n entries, retiring the tail's bytes.
func (c *mvChain) drop(n int) {
	for _, e := range c.hist[n:] {
		c.waste += int(e.vlen)
	}
	c.hist = c.hist[:n]
}

// compact rewrites vals without the retired bytes. The fresh allocation is
// required for correctness, not tidiness: in-flight snapshot responses may
// alias the old buffer, which must stay immutable once handed out.
func (c *mvChain) compact() {
	nv := make([]byte, 0, len(c.vals)-c.waste)
	for i := range c.hist {
		e := &c.hist[i]
		nv = append(nv, c.vals[e.off:e.off+e.vlen]...)
		e.off = uint32(len(nv)) - e.vlen
	}
	c.vals = nv
	c.waste = 0
}

// gc drops history entries invisible to every admissible snapshot: anything
// older than the newest entry at or below the low-water mark, then caps the
// chain at keep entries (deeper reads miss and retry at a fresher snapshot).
func (c *mvChain) gc(keep int, lwm uint64) {
	if c.headTS <= lwm {
		c.drop(0)
		return
	}
	for i := range c.hist {
		if c.hist[i].ts <= lwm {
			c.drop(i + 1)
			break
		}
	}
	if keep > 0 && len(c.hist) > keep {
		c.drop(keep)
	}
}

// NewShardData builds an empty replica sized by spec. Exported for the repo
// benchmark's shard-apply driver loops (bench/drivers.go); the cluster builds
// its replicas through the internal constructor.
func NewShardData(spec txnmodel.StoreSpec, place txnmodel.Placement) *ShardData {
	return newShardData(spec, place)
}

// newShardData builds an empty replica sized by spec.
func newShardData(spec txnmodel.StoreSpec, place txnmodel.Placement) *ShardData {
	cfg := robinhood.DefaultConfig(spec.HashSlots)
	if spec.InlineValueSize > 0 {
		cfg.InlineValueSize = spec.InlineValueSize
	}
	cfg.MaxDisplacement = spec.MaxDisplacement
	return &ShardData{
		Hash:  robinhood.New(cfg),
		BTree: btree.New(),
		place: place,
	}
}

// clone returns a replica holding what s holds, sharing its value slices.
// It copies no version chains: it is called on a freshly populated primary,
// and population installs none.
func (s *ShardData) clone() *ShardData {
	return &ShardData{Hash: s.Hash.Clone(), BTree: s.BTree.Clone(), place: s.place}
}

// replica describes d, held by node, for the drained-state checks.
func (d *ShardData) replica(node int) chassis.Replica {
	return chassis.Replica{Node: node, Hash: d.Hash, Tree: d.BTree, Read: d.Read}
}

// Read fetches a key's value and version via local memory access.
func (s *ShardData) Read(key uint64) (value []byte, version uint64, ok bool) {
	if s.place.IsBTree(key) {
		it, found := s.BTree.Get(key)
		if !found {
			return nil, 0, false
		}
		return it.Value, it.Version, true
	}
	r := s.Hash.Lookup(key)
	if !r.Found {
		return nil, 0, false
	}
	return r.Value, r.Version, true
}

// Apply installs a committed write (insert or update) with its version.
// Applies are version-guarded: per-key versions are monotonic under write
// locks, so a stale (lower-versioned) record arriving late is a no-op and
// records may safely apply out of order across coordinators.
func (s *ShardData) Apply(kv wire.KV) {
	if s.place.IsBTree(kv.Key) {
		if it, ok := s.BTree.Get(kv.Key); ok && it.Version >= kv.Version {
			return
		}
		s.BTree.Insert(kv.Key, kv.Value, kv.Version)
		return
	}
	if r := s.Hash.Lookup(kv.Key); r.Found && r.Version >= kv.Version {
		return
	}
	if err := s.Hash.Insert(kv.Key, kv.Value, kv.Version); err != nil {
		panic(fmt.Sprintf("core: shard apply: %v", err))
	}
}

// ApplyTS installs a committed write like Apply, additionally maintaining
// the key's bounded version chain: the displaced row is pushed onto the
// chain history stamped with the old head's commit timestamp.
func (s *ShardData) ApplyTS(kv wire.KV, cts uint64, keep int, lwm uint64) {
	old, oldVer, found := s.Read(kv.Key)
	if found && oldVer >= kv.Version {
		return // stale out-of-order record; chain untouched
	}
	if s.mv == nil {
		s.mv = make(map[uint64]*mvChain)
	}
	ch := s.mv[kv.Key]
	if ch == nil {
		ch = &mvChain{}
		if !found {
			ch.born = cts
		}
		s.mv[kv.Key] = ch
	}
	if found {
		// Pack the displaced head's bytes onto the chain's value buffer.
		// Appends only ever write at or past len(vals), and compaction below
		// swaps in a fresh buffer, so bytes already handed out to in-flight
		// snapshot responses are never overwritten.
		off := uint32(len(ch.vals))
		ch.vals = append(ch.vals, old...)
		ch.hist = append(ch.hist, mvVer{})
		copy(ch.hist[1:], ch.hist)
		ch.hist[0] = mvVer{ts: ch.headTS, version: oldVer, off: off, vlen: uint32(len(old))}
	}
	ch.headTS = cts
	ch.gc(keep, lwm)
	if ch.waste > 256 && ch.waste*2 > len(ch.vals) {
		ch.compact()
	}
	s.applyChecked(kv)
}

// applyChecked installs a write whose version guard the caller has already
// checked against the current row, skipping Apply's redundant lookup.
func (s *ShardData) applyChecked(kv wire.KV) {
	if s.place.IsBTree(kv.Key) {
		s.BTree.Insert(kv.Key, kv.Value, kv.Version)
		return
	}
	if err := s.Hash.Insert(kv.Key, kv.Value, kv.Version); err != nil {
		panic(fmt.Sprintf("core: shard apply: %v", err))
	}
}

// ApplyBase installs a state-transfer KV with its head commit timestamp but
// no history (the chunk is a snapshot base; depth rebuilds from subsequent
// commits). Version-guarded like Apply.
func (s *ShardData) ApplyBase(kv wire.KV, ts uint64) {
	if _, oldVer, found := s.Read(kv.Key); found && oldVer >= kv.Version {
		return
	}
	s.Apply(kv)
	if ts == 0 {
		return
	}
	if s.mv == nil {
		s.mv = make(map[uint64]*mvChain)
	}
	ch := s.mv[kv.Key]
	if ch == nil {
		ch = &mvChain{}
		s.mv[kv.Key] = ch
	}
	if ch.headTS < ts {
		// The transferred base invalidates older history. Drop the value
		// buffer rather than truncating it: in-flight responses may alias
		// its bytes, so it must never be rewritten from offset zero.
		ch.headTS = ts
		ch.hist = ch.hist[:0]
		ch.vals = nil
		ch.waste = 0
	}
}

// HeadTS returns the commit timestamp of the key's current row (0 when the
// key has never been written under MVCC).
func (s *ShardData) HeadTS(key uint64) uint64 {
	if ch := s.mv[key]; ch != nil {
		return ch.headTS
	}
	return 0
}

// ReadAt resolves the version of key visible at snapshot timestamp S.
// exists=false with ok=true means the key was absent at S; ok=false means
// the chain has been GC'd past S and the caller must retry at a fresher
// snapshot.
func (s *ShardData) ReadAt(key, S uint64) (value []byte, version uint64, exists, ok bool) {
	value, version, found := s.Read(key)
	ch := s.mv[key]
	var headTS uint64
	if ch != nil {
		headTS = ch.headTS
	}
	if headTS <= S {
		if !found {
			return nil, 0, false, true
		}
		return value, version, true, true
	}
	for i := range ch.hist {
		if ch.hist[i].ts <= S {
			return ch.value(i), ch.hist[i].version, true, true
		}
	}
	if ch.born > S {
		return nil, 0, false, true // key did not exist yet at S
	}
	if mutGCIgnoreSnapshots && len(ch.hist) > 0 {
		// Mutant: serve the oldest retained version instead of admitting
		// the chain miss.
		last := len(ch.hist) - 1
		return ch.value(last), ch.hist[last].version, true, true
	}
	return nil, 0, false, false
}

// ChainLen reports the retained history depth for key (tests/diagnostics).
func (s *ShardData) ChainLen(key uint64) int {
	if ch := s.mv[key]; ch != nil {
		return len(ch.hist)
	}
	return 0
}
