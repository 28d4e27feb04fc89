// Package txnmodel defines the workload-facing transaction model shared by
// the Xenic system (internal/core) and the RDMA/RPC baselines
// (internal/baseline): transaction descriptors, registered execution
// functions (the function-shipping interface of §4.2.2), key placement, and
// store sizing. Workload packages (TPC-C, Retwis, Smallbank) produce these;
// systems consume them.
package txnmodel

import (
	"math/rand"

	"xenic/internal/sim"
	"xenic/internal/wire"
)

// TxnDesc describes one transaction to run.
type TxnDesc struct {
	// ReadKeys are read-only keys (validated at commit).
	ReadKeys []uint64
	// UpdateKeys are read-modify-write keys: locked and read at execution;
	// the execution function computes their new values.
	UpdateKeys []uint64
	// BlindWrites are writes whose values are known up front (inserts,
	// overwrites); their keys are locked at execution but their old values
	// are not needed. A value placed here is never written again, by the
	// generator or anyone else: the log records and every replica's store
	// adopt the slice instead of copying it, so one read-only value may
	// back any number of writes.
	BlindWrites []wire.KV
	// FnID names the registered execution function that computes write
	// values from the read values; 0 means none (pure reads/blind writes).
	FnID uint16
	// State is external application state the function needs (shipped to
	// the NIC under function shipping, §4.2.2).
	State []byte
	// NICExec requests NIC-side execution for this transaction (the
	// per-transaction user annotation of §4.3.3).
	NICExec bool
	// GenCost is host compute charged to build this transaction's inputs
	// (e.g. TPC-C's B+tree manipulations happen inside Fn instead).
	GenCost sim.Time
}

// ReadOnly reports whether the transaction writes nothing.
func (d *TxnDesc) ReadOnly() bool {
	return len(d.UpdateKeys) == 0 && len(d.BlindWrites) == 0
}

// NumWriteKeys counts the keys that will be locked and written: UpdateKeys,
// then the BlindWrites keys, duplicates kept.
func (d *TxnDesc) NumWriteKeys() int { return len(d.UpdateKeys) + len(d.BlindWrites) }

// WriteKey returns the i-th write key in that order.
func (d *TxnDesc) WriteKey(i int) uint64 {
	if i < len(d.UpdateKeys) {
		return d.UpdateKeys[i]
	}
	return d.BlindWrites[i-len(d.UpdateKeys)].Key
}

// AppendWriteKeys appends the write keys to dst, for callers that need them
// as a slice of their own.
func (d *TxnDesc) AppendWriteKeys(dst []uint64) []uint64 {
	dst = append(dst, d.UpdateKeys...)
	for _, kv := range d.BlindWrites {
		dst = append(dst, kv.Key)
	}
	return dst
}

// NumKeys counts every key the transaction names: ReadKeys, then the write
// keys. This is the order execution-function inputs and lock acquisition
// follow, so it must not drift.
func (d *TxnDesc) NumKeys() int { return len(d.ReadKeys) + d.NumWriteKeys() }

// Key returns the i-th key in that order.
func (d *TxnDesc) Key(i int) uint64 {
	if i < len(d.ReadKeys) {
		return d.ReadKeys[i]
	}
	return d.WriteKey(i - len(d.ReadKeys))
}

// ExecResult is what an execution function produces.
type ExecResult struct {
	// Writes are the new values for UpdateKeys (and any additional keys,
	// which must already be locked or local). Only the final round's Writes
	// are the write set: every round sees the full read set so far, so a
	// round that returns MoreReads has its Writes ignored, on every system
	// and execution site alike. Each value is a slice the function will
	// never write again and that aliases none of its reads (which may be
	// the NIC index's own buffers): the write set, the log records and every
	// replica's store adopt it instead of copying it.
	Writes []wire.KV
	// MoreReads requests another execution round with additional read keys
	// (multi-shot transactions, §4.2 step 3). Shipped executions must be
	// single-round (§4.2.3).
	MoreReads []uint64
	// Abort lets application logic abort (e.g. TPC-C payment on a missing
	// customer); the transaction releases its locks and reports the status.
	Abort bool
}

// ExecFunc is a registered execution function. Run must be deterministic
// given (state, reads): it may run on a host thread, the coordinator NIC,
// or a remote primary NIC. It must not write into its reads' values.
//
// Run builds every write value in a distinct row rows.Row hands it, and may
// take ExecResult.Writes from rows.Writes. A row may be one an earlier,
// aborted attempt released, holding that attempt's bytes, so Run writes
// every byte of each row it takes: its output depends on (state, reads)
// alone. rows is nil where the write set is kept or sent (every row is then
// fresh); the host-local path (§4.2.4) passes its node's Rows and releases
// the rows of an attempt that never reached the log.
type ExecFunc struct {
	ID uint16
	// HostCost is the compute cost of one invocation on a host core; NIC
	// cores charge HostCost scaled by the core-speed ratio.
	HostCost sim.Time
	Run      func(state []byte, reads []wire.KV, rows *Rows) ExecResult
}

// Registry maps function ids to execution functions.
type Registry struct {
	fns map[uint16]*ExecFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fns: map[uint16]*ExecFunc{}} }

// Register adds fn; id 0 is reserved and panics.
func (r *Registry) Register(fn *ExecFunc) {
	if fn.ID == 0 {
		panic("txnmodel: function id 0 is reserved")
	}
	if _, dup := r.fns[fn.ID]; dup {
		panic("txnmodel: duplicate function id")
	}
	r.fns[fn.ID] = fn
}

// Get returns the function registered under id.
func (r *Registry) Get(id uint16) (*ExecFunc, bool) {
	fn, ok := r.fns[id]
	return fn, ok
}

// Placement maps keys to shards and classifies storage kind. Each node
// hosts exactly one primary shard (shard i lives on node i).
type Placement interface {
	// ShardOf returns the primary shard (== node index) for key.
	ShardOf(key uint64) int
	// IsBTree reports whether key belongs to a coordinator-local B+tree
	// table rather than the partitioned hash store.
	IsBTree(key uint64) bool
}

// StoreSpec sizes each node's store.
type StoreSpec struct {
	// HashSlots is the host hash-table slot count per shard replica.
	HashSlots int
	// InlineValueSize is the per-slot inline value capacity (bytes).
	InlineValueSize int
	// MaxDisplacement is the Robin Hood displacement limit Dm.
	MaxDisplacement int
	// NICCacheObjects is the SmartNIC index cache capacity (objects).
	NICCacheObjects int
}

// Generator produces transactions for a workload.
type Generator interface {
	Name() string
	// Spec returns store sizing for this workload.
	Spec() StoreSpec
	// Placement returns the key placement for a cluster of n nodes with
	// the given replication factor.
	Placement(nodes, replication int) Placement
	// Register adds the workload's execution functions to r.
	Register(r *Registry)
	// Populate returns the initial records for shard (loaded on its
	// primary and backups). Called once per shard, maybe concurrently for
	// distinct shards, so it must only read the generator and call emit.
	// Every replica adopts the value slice passed to emit, so a value
	// emitted is never written again; rows that are alike may share a slice.
	Populate(shard, nodes int, emit func(key uint64, value []byte))
	// Next produces the next transaction for a coordinator thread.
	Next(node, thread int, rng *rand.Rand) *TxnDesc
	// Measure reports whether this transaction counts toward reported
	// throughput (TPC-C reports only new-order rate, §5.3).
	Measure(d *TxnDesc) bool
}
