// Package retwis implements the Retwis benchmark [38, 47] as configured in
// §5.4: a Twitter-like workload over 64B values with 1M keys per server,
// Zipf-distributed accesses (alpha = 0.5), 50% read-only transactions, and
// 1-10 keys per transaction. Minimal coordinator-side computation is
// involved, so all execution ships to the NIC (§5.6).
//
// The transaction mix follows the Retwis usage in Meerkat/TAPIR:
// 5% add-user (1 read, 3 writes), 15% follow (2 reads, 2 writes),
// 30% post-tweet (3 reads, 5 writes), 50% get-timeline (1-10 reads).
package retwis

import (
	"encoding/binary"
	"math"
	"math/rand"

	"xenic/internal/model"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

const (
	fnTouch = iota + 1 // rewrite each update key's value
)

// Gen generates Retwis transactions.
type Gen struct {
	// KeysPerServer defaults to the paper's 1M.
	KeysPerServer int
	// Alpha is the Zipf exponent (paper: 0.5).
	Alpha float64
	// ValueSize defaults to 64B.
	ValueSize int
	// CacheObjects overrides the SmartNIC index cache capacity
	// (0 = KeysPerServer/4); the cache-size ablation sweeps it.
	CacheObjects int
	// NICExec annotates transactions for NIC execution.
	NICExec bool
	// ReadOnlyFrac overrides the get-timeline (read-only) share of the mix
	// (0 = the paper's 0.5; negative = no read-only transactions at all,
	// for update-path overhead benchmarks). The write transaction types
	// keep their relative proportions within the remainder. Read-heavy
	// MVCC sweeps push this to 0.8+.
	ReadOnlyFrac float64

	nodes int
	total int
}

// New returns a generator with the paper's parameters.
func New() *Gen {
	return &Gen{KeysPerServer: 1_000_000, Alpha: 0.5, ValueSize: 64, NICExec: true}
}

// Name implements txnmodel.Generator.
func (g *Gen) Name() string { return "retwis" }

// Spec sizes the store at ~60% occupancy.
func (g *Gen) Spec() txnmodel.StoreSpec {
	cache := g.CacheObjects
	if cache == 0 {
		cache = g.KeysPerServer / 4
	}
	return txnmodel.StoreSpec{
		HashSlots:       int(float64(g.KeysPerServer) / 0.6),
		InlineValueSize: g.ValueSize,
		MaxDisplacement: 16,
		NICCacheObjects: cache,
	}
}

type place struct{ nodes int }

func (p place) ShardOf(key uint64) int  { return int(key % uint64(p.nodes)) }
func (p place) IsBTree(key uint64) bool { return false }

// Placement implements txnmodel.Generator.
func (g *Gen) Placement(nodes, replication int) txnmodel.Placement {
	g.nodes = nodes
	g.total = g.KeysPerServer * nodes
	return place{nodes: nodes}
}

// Register implements txnmodel.Generator.
func (g *Gen) Register(r *txnmodel.Registry) {
	vs := g.ValueSize
	r.Register(&txnmodel.ExecFunc{
		ID: fnTouch, HostCost: model.RetwisTouchHostCost,
		Run: func(state []byte, reads []wire.KV, rows *txnmodel.Rows) txnmodel.ExecResult {
			// state: count of trailing update keys in reads.
			nUpd := int(binary.LittleEndian.Uint16(state))
			var res txnmodel.ExecResult
			for _, kv := range reads[len(reads)-nUpd:] {
				nv := rows.Row(vs)
				binary.LittleEndian.PutUint64(nv, kv.Version+1)
				n := copy(nv[8:], kv.Value)
				clear(nv[8+n:]) // a reused row holds an older value's tail
				res.Writes = append(res.Writes, wire.KV{Key: kv.Key, Value: nv})
			}
			return res
		},
	})
}

// Populate implements txnmodel.Generator.
func (g *Gen) Populate(shard, nodes int, emit func(uint64, []byte)) {
	v := make([]byte, g.ValueSize)
	for i := range v {
		v[i] = byte(i)
	}
	for k := shard; k < g.total; k += nodes {
		emit(uint64(k), v)
	}
}

// Measure implements txnmodel.Generator.
func (g *Gen) Measure(d *txnmodel.TxnDesc) bool { return true }

// zipfKey draws a key with P(rank k) proportional to k^-alpha, using the
// continuous inverse-CDF (rank = N * u^(1/(1-alpha))), then scatters ranks
// over the keyspace so hot keys spread across shards.
func (g *Gen) zipfKey(rng *rand.Rand) uint64 {
	u := rng.Float64()
	rank := uint64(float64(g.total) * math.Pow(u, 1/(1-g.Alpha)))
	if rank >= uint64(g.total) {
		rank = uint64(g.total) - 1
	}
	// Scatter: multiply by an odd constant mod total (bijective when total
	// and the constant are coprime; ensure by adjusting).
	return (rank * 2654435761) % uint64(g.total)
}

// Next implements txnmodel.Generator.
func (g *Gen) Next(node, thread int, rng *rand.Rand) *txnmodel.TxnDesc {
	d := &txnmodel.TxnDesc{NICExec: g.NICExec, GenCost: model.RetwisGenCost}
	pickN := func(n int) []uint64 {
		seen := map[uint64]bool{}
		out := make([]uint64, 0, n)
		for len(out) < n {
			k := g.zipfKey(rng)
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
		return out
	}
	ro := g.ReadOnlyFrac
	if ro == 0 {
		ro = 0.5
	} else if ro < 0 {
		ro = 0
	}
	// Write types keep their paper proportions (add-user 10%, follow 30%,
	// post-tweet 60% of the write share) under any read-only fraction.
	wr := 1 - ro
	var nRead, nUpd int
	switch p := rng.Float64(); {
	case p < ro: // get-timeline: 1-10 reads
		nRead, nUpd = 1+rng.Intn(10), 0
	case p < ro+0.1*wr: // add-user: 1 read, 3 writes
		nRead, nUpd = 1, 3
	case p < ro+0.4*wr: // follow: 2 reads, 2 writes
		nRead, nUpd = 2, 2
	default: // post-tweet: 3 reads, 5 writes
		nRead, nUpd = 3, 5
	}
	keys := pickN(nRead + nUpd)
	d.ReadKeys = keys[:nRead]
	d.UpdateKeys = keys[nRead:]
	if nUpd > 0 {
		d.FnID = fnTouch
		st := make([]byte, 2)
		binary.LittleEndian.PutUint16(st, uint16(nUpd))
		d.State = st
	}
	return d
}

var _ txnmodel.Generator = (*Gen)(nil)
