// Recovery: kill a server mid-run and watch the cluster reconfigure
// (§4.2.1): the lease expires, the failed primary's first surviving backup
// is promoted, its log scan commits or aborts every in-flight transaction,
// and the shard resumes serving — with every acknowledged commit intact.
//
//	go run ./examples/recovery
package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"xenic"
)

const (
	keys   = 20000
	fnIncr = 1
)

type counters struct{}

type modPlace struct{ nodes int }

func (p modPlace) ShardOf(key uint64) int  { return int(key % uint64(p.nodes)) }
func (p modPlace) IsBTree(key uint64) bool { return false }

func (c *counters) Name() string { return "counters" }
func (c *counters) Spec() xenic.StoreSpec {
	return xenic.StoreSpec{HashSlots: keys * 2, InlineValueSize: 16,
		MaxDisplacement: 16, NICCacheObjects: keys}
}
func (c *counters) Placement(nodes, replication int) xenic.Placement {
	return modPlace{nodes: nodes}
}
func (c *counters) Register(r *xenic.Registry) {
	r.Register(&xenic.ExecFunc{
		ID: fnIncr, HostCost: 200 * xenic.Nanosecond,
		Run: func(state []byte, reads []xenic.KV, rows *xenic.Rows) xenic.ExecResult {
			old := uint64(0)
			if len(reads[0].Value) >= 8 {
				old = binary.LittleEndian.Uint64(reads[0].Value)
			}
			nv := rows.Row(8)
			binary.LittleEndian.PutUint64(nv, old+1)
			return xenic.ExecResult{Writes: []xenic.KV{{Key: reads[0].Key, Value: nv}}}
		},
	})
}
func (c *counters) Populate(shard, nodes int, emit func(uint64, []byte)) {
	zero := make([]byte, 8)
	for k := shard; k < keys; k += nodes {
		emit(uint64(k), zero)
	}
}
func (c *counters) Measure(d *xenic.Txn) bool { return true }
func (c *counters) Next(node, thread int, rng *rand.Rand) *xenic.Txn {
	return &xenic.Txn{
		UpdateKeys: []uint64{uint64(rng.Intn(keys))},
		FnID:       fnIncr,
		NICExec:    true,
	}
}

func main() {
	cfg := xenic.DefaultConfig()
	cfg.Nodes = 6
	cl, err := xenic.NewCluster(cfg, &counters{})
	if err != nil {
		panic(err)
	}

	victim := 2
	fmt.Println("running increments on 6 servers...")
	cl.Start()
	cl.Run(5 * xenic.Millisecond)
	fmt.Printf("t=5ms: killing node %d (primary of shard %d)\n", victim, victim)
	cl.Kill(victim)
	cl.Run(30 * xenic.Millisecond)

	v := cl.View()
	fmt.Printf("t=35ms: view epoch %d — shard %d is now served by node %d (backups: %v)\n",
		v.Epoch, victim, v.PrimaryOf[victim], v.BackupsOf[victim])

	if !cl.Drain(800 * xenic.Millisecond) {
		panic("cluster did not quiesce after recovery")
	}

	// Audit: the counter total must equal (or, for transactions caught at
	// their commit point by the crash, slightly exceed) the committed
	// count — no acknowledged increment may be lost.
	var counted uint64
	for i := 0; i < cl.Nodes(); i++ {
		counted += uint64(cl.Node(i).Stats().UpdateKeysCommitted)
	}
	var sum uint64
	for k := 0; k < keys; k++ {
		copies := cl.Replicas(k % cl.Nodes())
		if len(copies) == 0 || copies[0].Hash == nil {
			panic("shard unserved")
		}
		val, _, found := copies[0].Read(uint64(k))
		if !found {
			panic("key lost")
		}
		sum += binary.LittleEndian.Uint64(val)
	}
	fmt.Printf("committed increments (all nodes incl. dead): %d\n", counted)
	fmt.Printf("counter total on surviving primaries:        %d\n", sum)
	if sum < counted {
		panic("ACKNOWLEDGED COMMITS LOST")
	}
	if err := cl.ReplicasConsistent(); err != nil {
		panic(err)
	}
	fmt.Println("recovery held: no acknowledged commit lost, replicas consistent")
}
