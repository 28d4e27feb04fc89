// Quickstart: define a tiny workload against the public API, run it on a
// simulated 6-server Xenic cluster, and print throughput and latency.
//
//	go run ./examples/quickstart
package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"xenic"
)

// greetWorkload is a minimal key-value workload: 80% of transactions read
// one profile, 20% bump a profile's visit counter via a registered
// execution function that can run on the SmartNIC.
type greetWorkload struct{ keys int }

const fnVisit = 1

type modPlace struct{ nodes int }

func (p modPlace) ShardOf(key uint64) int  { return int(key % uint64(p.nodes)) }
func (p modPlace) IsBTree(key uint64) bool { return false }

func (g *greetWorkload) Name() string { return "quickstart" }

func (g *greetWorkload) Spec() xenic.StoreSpec {
	return xenic.StoreSpec{HashSlots: g.keys * 2, InlineValueSize: 32, MaxDisplacement: 16,
		NICCacheObjects: g.keys / 2}
}

func (g *greetWorkload) Placement(nodes, replication int) xenic.Placement {
	return modPlace{nodes: nodes}
}

func (g *greetWorkload) Register(r *xenic.Registry) {
	r.Register(&xenic.ExecFunc{
		ID:       fnVisit,
		HostCost: 200 * xenic.Nanosecond,
		Run: func(state []byte, reads []xenic.KV, rows *xenic.Rows) xenic.ExecResult {
			visits := uint64(0)
			if len(reads[0].Value) >= 8 {
				visits = binary.LittleEndian.Uint64(reads[0].Value)
			}
			nv := rows.Row(8)
			binary.LittleEndian.PutUint64(nv, visits+1)
			return xenic.ExecResult{Writes: []xenic.KV{{Key: reads[0].Key, Value: nv}}}
		},
	})
}

func (g *greetWorkload) Populate(shard, nodes int, emit func(uint64, []byte)) {
	zero := make([]byte, 8)
	for k := shard; k < g.keys; k += nodes {
		emit(uint64(k), zero)
	}
}

func (g *greetWorkload) Measure(d *xenic.Txn) bool { return true }

func (g *greetWorkload) Next(node, thread int, rng *rand.Rand) *xenic.Txn {
	k := uint64(rng.Intn(g.keys))
	if rng.Float64() < 0.8 {
		return &xenic.Txn{ReadKeys: []uint64{k}}
	}
	return &xenic.Txn{
		UpdateKeys: []uint64{k},
		FnID:       fnVisit,
		NICExec:    true, // ship execution to the SmartNIC
	}
}

func main() {
	cfg := xenic.DefaultConfig() // 6 servers, 3-way replication, 100GbE
	cl, err := xenic.NewCluster(cfg, &greetWorkload{keys: 60000})
	if err != nil {
		panic(err)
	}

	fmt.Println("running 20ms of simulated time on the 6-server testbed...")
	res := cl.Measure(5*xenic.Millisecond, 20*xenic.Millisecond)
	fmt.Printf("throughput: %.0f txn/s per server\n", res.PerServerTput)
	fmt.Printf("median latency: %.1fus   p99: %.1fus\n", res.Median.Micros(), res.P99.Micros())
	fmt.Printf("committed: %d   aborted-and-retried: %d\n", res.Committed, res.Aborts)
}
