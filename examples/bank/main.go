// Bank: a money-transfer application on the public API that checks a
// global invariant — transfers move money between accounts on different
// shards, and the total balance must be conserved no matter how the
// transactions interleave, abort, and retry. This exercises Xenic's
// distributed OCC end to end (combined read+lock EXECUTE, validation,
// replicated logging, multi-hop shipped commits) and then audits the
// result.
//
//	go run ./examples/bank
package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"xenic"
)

const (
	accounts   = 30000
	initialBal = 1000
	fnTransfer = 1
)

type bank struct{}

type modPlace struct{ nodes int }

func (p modPlace) ShardOf(key uint64) int  { return int(key % uint64(p.nodes)) }
func (p modPlace) IsBTree(key uint64) bool { return false }

func (b *bank) Name() string { return "bank" }

func (b *bank) Spec() xenic.StoreSpec {
	return xenic.StoreSpec{HashSlots: accounts * 2, InlineValueSize: 16,
		MaxDisplacement: 16, NICCacheObjects: accounts / 2}
}

func (b *bank) Placement(nodes, replication int) xenic.Placement {
	return modPlace{nodes: nodes}
}

func bal(v []byte) int64 { return int64(binary.LittleEndian.Uint64(v)) }

// money encodes a balance in a row taken from rows (nil: a fresh one).
func money(rows *xenic.Rows, x int64) []byte {
	v := rows.Row(8)
	binary.LittleEndian.PutUint64(v, uint64(x))
	return v
}

func (b *bank) Register(r *xenic.Registry) {
	r.Register(&xenic.ExecFunc{
		ID:       fnTransfer,
		HostCost: 250 * xenic.Nanosecond,
		Run: func(state []byte, reads []xenic.KV, rows *xenic.Rows) xenic.ExecResult {
			amount := int64(binary.LittleEndian.Uint64(state))
			from, to := reads[0], reads[1]
			if bal(from.Value) < amount {
				return xenic.ExecResult{Abort: true} // insufficient funds
			}
			return xenic.ExecResult{Writes: []xenic.KV{
				{Key: from.Key, Value: money(rows, bal(from.Value)-amount)},
				{Key: to.Key, Value: money(rows, bal(to.Value)+amount)},
			}}
		},
	})
}

func (b *bank) Populate(shard, nodes int, emit func(uint64, []byte)) {
	for a := shard; a < accounts; a += nodes {
		emit(uint64(a), money(nil, initialBal))
	}
}

func (b *bank) Measure(d *xenic.Txn) bool { return true }

func (b *bank) Next(node, thread int, rng *rand.Rand) *xenic.Txn {
	from := uint64(rng.Intn(accounts))
	to := uint64(rng.Intn(accounts))
	for to == from {
		to = uint64(rng.Intn(accounts))
	}
	st := make([]byte, 8)
	binary.LittleEndian.PutUint64(st, uint64(1+rng.Intn(50)))
	return &xenic.Txn{
		UpdateKeys: []uint64{from, to},
		FnID:       fnTransfer,
		State:      st,
		NICExec:    true, // single- and two-shard transfers ship to SmartNICs
	}
}

func main() {
	cfg := xenic.DefaultConfig()
	cl, err := xenic.NewCluster(cfg, &bank{})
	if err != nil {
		panic(err)
	}

	fmt.Println("transferring money across 6 shards for 25ms of simulated time...")
	cl.Start()
	cl.Run(25 * xenic.Millisecond)
	if !cl.Drain(500 * xenic.Millisecond) {
		panic("cluster did not quiesce")
	}

	var committed, aborts int64
	for i := 0; i < cl.Nodes(); i++ {
		committed += cl.Node(i).Stats().Committed
		aborts += cl.Node(i).Stats().Aborts
	}

	// Audit: sum every account on its primary shard.
	var total int64
	for a := 0; a < accounts; a++ {
		node := cl.Node(a % cl.Nodes())
		v, _, ok := node.Primary().Read(uint64(a))
		if !ok {
			panic(fmt.Sprintf("account %d missing", a))
		}
		total += bal(v)
	}
	fmt.Printf("committed transfers: %d (aborted-and-retried: %d)\n", committed, aborts)
	fmt.Printf("total balance: %d (expected %d)\n", total, int64(accounts)*initialBal)
	if total != int64(accounts)*initialBal {
		panic("MONEY NOT CONSERVED — serializability violation")
	}
	if err := cl.ReplicasConsistent(); err != nil {
		panic(err)
	}
	fmt.Println("invariant holds: money conserved, replicas consistent")
}
