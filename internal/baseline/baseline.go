// Package baseline implements the four comparison systems of §5.1 over the
// simulated CX5 RDMA NIC, sharing the OCC commit protocol structure of
// §2.2.1 but differing in how remote operations are performed:
//
//   - DrTM+H: the hybrid design — one-sided READs for execution and
//     validation reads (with a coordinator-side remote address cache),
//     one-sided WRITEs for backup logging, two-sided RPCs for locking and
//     commit writes.
//   - DrTM+H NC: DrTM+H without the address cache; execution reads walk
//     the chained-bucket hash structure with one-sided READs, paying read
//     amplification and extra roundtrips (Table 2).
//   - FaSST: two-sided RPCs for every remote operation, consolidating each
//     shard's reads and locks into one RPC; remote CPU handles all work.
//   - DrTM+R: one-sided-only — ATOMIC compare-and-swap locks on every key
//     (read keys too; it locks instead of validating), READs for values,
//     WRITEs for logging and commit.
//
// All four store objects in DrTM+H's chained-bucket hash table and keep
// lock words in host memory, accessed either by the RDMA NIC (one-sided)
// or by host RPC handlers (two-sided).
package baseline

import (
	"fmt"

	"xenic/internal/fault"
	"xenic/internal/model"
	"xenic/internal/store/btree"
	"xenic/internal/store/chained"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// System selects which baseline to run.
type System int

const (
	DrTMH System = iota
	DrTMHNC
	FaSST
	DrTMR
)

func (s System) String() string {
	switch s {
	case DrTMH:
		return "DrTM+H"
	case DrTMHNC:
		return "DrTM+H NC"
	case FaSST:
		return "FaSST"
	case DrTMR:
		return "DrTM+R"
	}
	return fmt.Sprintf("system(%d)", int(s))
}

// objHeader is the per-object header read alongside values by one-sided
// operations: key, version, lock word.
const objHeader = 24

// bucketB is the chained-bucket size (DrTM+H's structure).
const bucketB = 8

// Config assembles a baseline cluster.
type Config struct {
	Nodes       int
	Replication int
	// Threads is the number of symmetric host threads per node; each
	// coordinates transactions, serves RPCs, and applies logs (FaSST's
	// symmetric model, also used by DrTM+H's evaluation).
	Threads     int
	Outstanding int
	MaxRetries  int
	System      System
	Params      model.Params
	Seed        int64
	// Faults optionally attaches a deterministic fault plan: frame
	// drop/duplication/delay and transient partitions at the fabric, plus
	// RDMA verb timeouts. Crash and stall faults are rejected — the
	// baselines track membership epochs but have no recovery path to heal
	// a dead replica with.
	Faults *fault.Plan
}

// DefaultConfig mirrors the testbed.
func DefaultConfig(sys System) Config {
	return Config{
		Nodes:       6,
		Replication: 3,
		Threads:     16,
		Outstanding: 8,
		MaxRetries:  64,
		System:      sys,
		Params:      model.Default(),
		Seed:        1,
	}
}

// validate checks what only the baselines configure; the chassis checks the
// rest.
func (c Config) validate() error {
	if f := c.Faults; f != nil && len(f.Crashes)+len(f.CoreStalls)+len(f.DMAStalls) > 0 {
		return fmt.Errorf("baseline: fault plan includes crash/stall faults; baselines support only network faults")
	}
	return nil
}

// shardData is one replica of one shard in the baseline layout.
type shardData struct {
	hash  *chained.Table
	btree *btree.Tree
	place txnmodel.Placement
}

func newShardData(spec txnmodel.StoreSpec, place txnmodel.Placement) *shardData {
	roots := spec.HashSlots / bucketB
	if roots < 1 {
		roots = 1
	}
	return &shardData{
		hash:  chained.New(roots, bucketB),
		btree: btree.New(),
		place: place,
	}
}

func (s *shardData) read(key uint64) ([]byte, uint64, bool) {
	if s.place.IsBTree(key) {
		it, ok := s.btree.Get(key)
		if !ok {
			return nil, 0, false
		}
		return it.Value, it.Version, true
	}
	r := s.hash.Lookup(key)
	if !r.Found {
		return nil, 0, false
	}
	return r.Value, r.Version, true
}

// lookupCost reports the remote-read cost of key in this replica: number
// of sequential one-sided READs and the bytes of each.
func (s *shardData) lookupCost(key uint64) (roundtrips, bytesPer int) {
	r := s.hash.Lookup(key)
	return r.Roundtrips, bucketB * (objHeader + valueSizeHint(r.Value))
}

// valueSizeHint sizes unread slots in a bucket by the found value (the
// table stores fixed-size objects per workload).
func valueSizeHint(v []byte) int {
	if len(v) == 0 {
		return 16
	}
	return len(v)
}

// apply is version-guarded so records may land out of order: per-key
// versions are monotonic under write locks.
func (s *shardData) apply(key uint64, value []byte, version uint64) {
	if s.place.IsBTree(key) {
		if it, ok := s.btree.Get(key); ok && it.Version >= version {
			return
		}
		s.btree.Insert(key, value, version)
		return
	}
	if r := s.hash.Lookup(key); r.Found && r.Version >= version {
		return
	}
	s.hash.Insert(key, value, version)
}

// logRecord is a backup log entry.
type logRecord struct {
	txn    uint64
	shard  int
	writes []wire.KV
}

func recordBytes(writes []wire.KV) int {
	n := 18
	for _, kv := range writes {
		n += objHeader + len(kv.Value)
	}
	return n
}
