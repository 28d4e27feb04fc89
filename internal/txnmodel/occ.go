package txnmodel

import (
	"slices"

	"xenic/internal/wire"
)

// OCC is the bookkeeping of one attempt of the OCC commit protocol
// (execute and lock, validate, log, commit; §2.2.1). Xenic's coordinator
// (internal/core) and the four baselines (internal/baseline) embed it by
// value in their per-attempt state: they differ in where each step runs and
// which operations carry it, not in what an attempt has read, locked or
// will write.
//
// Read sets are a few to a few dozen keys over a handful of shards, so every
// lookup scans a slice. Reset keeps the arrays OCC owns outright (Reads,
// ReadOrder, the outer Locked array and each per-shard lock-key list) and
// drops the write set and its grouping, which LOG and COMMIT messages hold.
// A lock-key list is OCC's until it is handed to a message: whoever puts
// Locked[i].Keys into one (an ABORT) sets that slot's Keys to nil, so the
// next attempt cannot rewrite a list still in flight.
type OCC struct {
	// Reads holds one read per key; a later read of a key replaces it.
	Reads []wire.KV
	// ReadOrder is the execution function's input order: the descriptor's
	// keys (Begin), then each later round's, every key once.
	ReadOrder []uint64
	// Locked holds the locked keys per shard in ascending shard order, the
	// order every release path walks.
	Locked []LockSet
	// Writes is the versioned write set (Prepare); ByShard is its grouping
	// (GroupByShard), from the log phase on.
	Writes  []wire.KV
	ByShard []ShardWrites
	// Pending counts the outstanding units of the current fan-out; Failed
	// holds the first failure one of them reported.
	Pending int
	Failed  wire.Status

	// stash holds an execution's writes while one more EXECUTE round locks
	// the keys it introduced (Prepare, Unstash).
	stash    []wire.KV
	hasStash bool
}

// LockSet is the keys an attempt holds locked on one shard.
type LockSet struct {
	Shard int
	Keys  []uint64
}

// Reset readies o for a new attempt, under the ownership rule above: each
// lock-key list is kept, truncated, for AddLocks to reuse.
func (o *OCC) Reset() {
	clear(o.Reads)
	for i := range o.Locked {
		o.Locked[i] = LockSet{Keys: o.Locked[i].Keys[:0]}
	}
	*o = OCC{Reads: o.Reads[:0], ReadOrder: o.ReadOrder[:0], Locked: o.Locked[:0]}
}

// Begin seeds the read order with d's keys, ReadKeys then write keys.
func (o *OCC) Begin(d *TxnDesc) {
	for i := 0; i < d.NumKeys(); i++ {
		if k := d.Key(i); !slices.Contains(o.ReadOrder, k) {
			o.ReadOrder = append(o.ReadOrder, k)
		}
	}
}

// AddReadOrder appends the keys a later execution round reads.
func (o *OCC) AddReadOrder(keys []uint64) {
	for _, k := range keys {
		if !slices.Contains(o.ReadOrder, k) {
			o.ReadOrder = append(o.ReadOrder, k)
		}
	}
}

// Read returns the read of key.
func (o *OCC) Read(key uint64) (wire.KV, bool) { return LastKV(o.Reads, key) }

// SetRead records kv as the read of its key.
func (o *OCC) SetRead(kv wire.KV) {
	for i := range o.Reads {
		if o.Reads[i].Key == kv.Key {
			o.Reads[i] = kv
			return
		}
	}
	o.Reads = append(o.Reads, kv)
}

// ReadsInOrder returns the execution input: a fresh slice of the reads in
// ReadOrder, with a key never read at version 0 and no value.
func (o *OCC) ReadsInOrder() []wire.KV {
	return o.AppendReadsInOrder(make([]wire.KV, 0, len(o.ReadOrder)))
}

// AppendReadsInOrder appends ReadsInOrder's entries to buf.
func (o *OCC) AppendReadsInOrder(buf []wire.KV) []wire.KV {
	for _, k := range o.ReadOrder {
		kv, ok := o.Read(k)
		if !ok {
			kv = wire.KV{Key: k}
		}
		buf = append(buf, kv)
	}
	return buf
}

// AddLocks records keys as locked on shard. A new shard's list reuses the
// spare slot's array, which Reset left behind.
func (o *OCC) AddLocks(shard int, keys ...uint64) {
	i := 0
	for i < len(o.Locked) && o.Locked[i].Shard < shard {
		i++
	}
	if i == len(o.Locked) || o.Locked[i].Shard != shard {
		var spare []uint64
		if n := len(o.Locked); n < cap(o.Locked) {
			spare = o.Locked[:n+1][n].Keys[:0]
		}
		o.Locked = append(o.Locked, LockSet{})
		copy(o.Locked[i+1:], o.Locked[i:])
		o.Locked[i] = LockSet{Shard: shard, Keys: spare}
	}
	o.Locked[i].Keys = append(o.Locked[i].Keys, keys...)
}

// LockedOn returns the keys locked on shard.
func (o *OCC) LockedOn(shard int) []uint64 {
	for i := range o.Locked {
		if o.Locked[i].Shard == shard {
			return o.Locked[i].Keys
		}
	}
	return nil
}

// KeyLocked reports whether key is locked.
func (o *OCC) KeyLocked(place Placement, key uint64) bool {
	return slices.Contains(o.LockedOn(place.ShardOf(key)), key)
}

// Done retires one unit of the current fan-out with outcome st, keeping the
// first failure, and reports whether it was the last.
func (o *OCC) Done(st wire.Status) bool {
	if st != wire.StatusOK && o.Failed == wire.StatusOK {
		o.Failed = st
	}
	o.Pending--
	return o.Pending <= 0
}

// Landed retires one unit that read values and perhaps locked keys (an
// EXECUTE unit or a snapshot read). A successful one records the keys it
// locked on shard and the values it read; a failed one holds no locks, and
// its reads are dropped with the attempt.
func (o *OCC) Landed(st wire.Status, shard int, locks []uint64, items []wire.KV) bool {
	if st == wire.StatusOK {
		if len(locks) > 0 {
			o.AddLocks(shard, locks...)
		}
		for _, kv := range items {
			o.SetRead(kv)
		}
	}
	return o.Done(st)
}

// Prepare assembles the write set: fnWrites, the execution's output, then
// the blind writes. If the execution introduced keys that are not locked
// yet, Prepare stashes fnWrites and returns those keys, each once, for one
// more locking round, after which the caller re-enters it with Unstash's
// writes (locking a key also reads its version). Otherwise it gives each
// write the successor of the version read for its key, installs the result
// as Writes, and returns nil. fnWrites is versioned in place.
func (o *OCC) Prepare(place Placement, fnWrites, blind []wire.KV) (missing []uint64) {
	writes := append(fnWrites, blind...)
	for _, kv := range writes {
		if !o.KeyLocked(place, kv.Key) && !slices.Contains(missing, kv.Key) {
			missing = append(missing, kv.Key)
		}
	}
	if len(missing) > 0 {
		o.stash, o.hasStash = fnWrites, true
		return missing
	}
	VersionWrites(writes, o.Reads)
	o.Writes = writes
	return nil
}

// Unstash takes the writes Prepare stashed for a locking round; ok is false
// when the round was an ordinary one.
func (o *OCC) Unstash() (writes []wire.KV, ok bool) {
	writes, ok = o.stash, o.hasStash
	o.stash, o.hasStash = nil, false
	return writes, ok
}

// ValPart is one shard's share of a VALIDATE fan-out.
type ValPart struct {
	Shard int
	Items []wire.KeyVer
}

// Validation groups the read keys no write covers by shard, in ascending
// shard order, each with the version it was read at (0 if it never was),
// appending the groups to buf. total counts the keys, and is 0 when
// validation can be skipped: nothing to check, or a read-only transaction
// whose single read is already atomic.
func (o *OCC) Validation(place Placement, readOnly bool, buf []ValPart) (parts []ValPart, total int) {
	parts = buf
	for _, k := range o.ReadOrder {
		if _, w := LastKV(o.Writes, k); w {
			continue
		}
		kv, _ := o.Read(k)
		s := place.ShardOf(k)
		i := 0
		for i < len(parts) && parts[i].Shard < s {
			i++
		}
		if i == len(parts) || parts[i].Shard != s {
			parts = append(parts, ValPart{})
			copy(parts[i+1:], parts[i:])
			parts[i] = ValPart{Shard: s}
		}
		parts[i].Items = append(parts[i].Items, wire.KeyVer{Key: k, Version: kv.Version})
		total++
	}
	if readOnly && total == 1 && len(o.Writes) == 0 {
		return parts[:0], 0
	}
	return parts, total
}

// ExecPart is one shard's share of an EXECUTE round.
type ExecPart struct {
	Shard        int
	Reads, Locks []uint64
}

// PartFor returns shard's entry in parts, inserting it in ascending shard
// order (a deterministic fan-out order keeps runs reproducible).
func PartFor(parts *[]ExecPart, shard int) *ExecPart {
	ps := *parts
	i := 0
	for i < len(ps) && ps[i].Shard < shard {
		i++
	}
	if i == len(ps) || ps[i].Shard != shard {
		ps = append(ps, ExecPart{})
		copy(ps[i+1:], ps[i:])
		ps[i] = ExecPart{Shard: shard}
		*parts = ps
	}
	return &ps[i]
}

// LastKV returns the last entry of kvs for key.
func LastKV(kvs []wire.KV, key uint64) (wire.KV, bool) {
	for i := len(kvs) - 1; i >= 0; i-- {
		if kvs[i].Key == key {
			return kvs[i], true
		}
	}
	return wire.KV{}, false
}

// VersionWrites gives each write the successor of the version reads holds
// for its key (a key absent from reads starts at version 1).
func VersionWrites(writes, reads []wire.KV) {
	for i := range writes {
		kv, _ := LastKV(reads, writes[i].Key)
		writes[i].Version = kv.Version + 1
	}
}

// ShardWrites is one shard's slice of a write set.
type ShardWrites struct {
	Shard  int
	Writes []wire.KV
}

// GroupByShard splits a write set by primary shard, in ascending shard order,
// each group in write-set order. The groups are views into one array
// allocated here: the write sets handed to LOG and COMMIT messages end up
// retained in host logs, so nothing in the result may be scratch.
func GroupByShard(place Placement, writes []wire.KV) []ShardWrites {
	if len(writes) == 0 {
		return nil
	}
	// Stable insertion sort by shard: write sets are at most a few dozen keys
	// over a handful of shards, and usually arrive in shard order already.
	var buf [16]int
	shards := buf[:0]
	sorted := make([]wire.KV, len(writes))
	for i, kv := range writes {
		s := place.ShardOf(kv.Key)
		j := i
		for j > 0 && shards[j-1] > s {
			j--
		}
		shards = append(shards, 0)
		copy(shards[j+1:], shards[j:i])
		copy(sorted[j+1:i+1], sorted[j:i])
		shards[j], sorted[j] = s, kv
	}
	groups := 1
	for i := 1; i < len(shards); i++ {
		if shards[i] != shards[i-1] {
			groups++
		}
	}
	out := make([]ShardWrites, 0, groups)
	start := 0
	for i := 1; i <= len(sorted); i++ {
		if i == len(sorted) || shards[i] != shards[start] {
			out = append(out, ShardWrites{Shard: shards[start], Writes: sorted[start:i:i]})
			start = i
		}
	}
	return out
}

// WriteShards appends the distinct primary shards of a write set to buf, in
// ascending order, for fan-outs that need the shards but not the writes.
func WriteShards(place Placement, writes []wire.KV, buf []int) []int {
	for _, kv := range writes {
		s := place.ShardOf(kv.Key)
		i := 0
		for i < len(buf) && buf[i] < s {
			i++
		}
		if i == len(buf) || buf[i] != s {
			buf = append(buf, 0)
			copy(buf[i+1:], buf[i:])
			buf[i] = s
		}
	}
	return buf
}
