// Package smallbank implements the Smallbank benchmark [13] as configured
// in §5.5: a database of account balances with 12B objects, 2.4M accounts
// per server, 15% read-only transactions, at most 3 keys per transaction,
// and 90% of transactions touching a hot 4% of accounts (low contention).
// All execution ships to the NIC (§5.6).
package smallbank

import (
	"encoding/binary"
	"math/rand"

	"xenic/internal/model"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// Table ids in the key's top byte.
const (
	tChecking uint64 = 1
	tSavings  uint64 = 2
)

// Transaction type mix (§5.5 / H-Store Smallbank): 15% read-only Balance,
// the rest split across the four update types.
const (
	fnBalance = iota + 1
	fnDepositChecking
	fnTransactSavings
	fnAmalgamate
	fnWriteCheck
)

// Gen generates Smallbank transactions.
type Gen struct {
	// AccountsPerServer defaults to the paper's 2.4M.
	AccountsPerServer int
	// HotFrac/HotProb: HotProb of transactions use the hot HotFrac of
	// accounts (defaults 0.04 and 0.9).
	HotFrac float64
	HotProb float64
	// NICExec annotates transactions for NIC execution (on for Xenic).
	NICExec bool
	// ReadOnlyFrac overrides the Balance (read-only) share of the mix
	// (0 = the paper's 0.15; negative = no read-only transactions at all,
	// for update-path overhead benchmarks). The four update types keep
	// their relative proportions within the remainder. Read-heavy MVCC
	// sweeps push this to 0.8+.
	ReadOnlyFrac float64

	nodes int
	total int
}

// New returns a generator with the paper's parameters.
func New() *Gen {
	return &Gen{AccountsPerServer: 2_400_000, HotFrac: 0.04, HotProb: 0.9, NICExec: true}
}

// Name implements txnmodel.Generator.
func (g *Gen) Name() string { return "smallbank" }

// Spec sizes the store: two 12B objects per account at 60% occupancy.
func (g *Gen) Spec() txnmodel.StoreSpec {
	slots := int(float64(g.AccountsPerServer*2) / 0.6)
	return txnmodel.StoreSpec{
		HashSlots:       slots,
		InlineValueSize: 16,
		MaxDisplacement: 16,
		NICCacheObjects: g.AccountsPerServer / 4,
	}
}

type place struct{ nodes int }

func (p place) ShardOf(key uint64) int  { return int((key & 0x00ffffffffffffff) % uint64(p.nodes)) }
func (p place) IsBTree(key uint64) bool { return false }

// Placement implements txnmodel.Generator: accounts stripe across nodes.
func (g *Gen) Placement(nodes, replication int) txnmodel.Placement {
	g.nodes = nodes
	g.total = g.AccountsPerServer * nodes
	return place{nodes: nodes}
}

func keyOf(table, account uint64) uint64 { return table<<56 | account }

func balance(v []byte) int64 {
	return int64(binary.LittleEndian.Uint64(v))
}

// val encodes a 12B account object, 8B balance + 4B flags, in a row taken
// from rows.
func val(rows *txnmodel.Rows, b int64) []byte {
	out := rows.Row(12)
	binary.LittleEndian.PutUint64(out, uint64(b))
	clear(out[8:])
	return out
}

// openingRow is every account's initial object, built once: a value handed
// to emit is never written again (txnmodel.Generator), so all the replicas'
// rows share these read-only bytes.
var openingRow = val(nil, 10_000)

// Register implements txnmodel.Generator. Read slices arrive in
// (ReadKeys ++ UpdateKeys) order.
func (g *Gen) Register(r *txnmodel.Registry) {
	r.Register(&txnmodel.ExecFunc{
		ID: fnDepositChecking, HostCost: model.SmallbankDepositCheckingHostCost,
		Run: func(state []byte, reads []wire.KV, rows *txnmodel.Rows) txnmodel.ExecResult {
			amount := int64(binary.LittleEndian.Uint64(state))
			return txnmodel.ExecResult{Writes: []wire.KV{
				{Key: reads[0].Key, Value: val(rows, balance(reads[0].Value)+amount)},
			}}
		},
	})
	r.Register(&txnmodel.ExecFunc{
		ID: fnTransactSavings, HostCost: model.SmallbankTransactSavingsHostCost,
		Run: func(state []byte, reads []wire.KV, rows *txnmodel.Rows) txnmodel.ExecResult {
			amount := int64(binary.LittleEndian.Uint64(state))
			nb := balance(reads[0].Value) + amount
			if nb < 0 {
				return txnmodel.ExecResult{Abort: true}
			}
			return txnmodel.ExecResult{Writes: []wire.KV{
				{Key: reads[0].Key, Value: val(rows, nb)},
			}}
		},
	})
	r.Register(&txnmodel.ExecFunc{
		ID: fnAmalgamate, HostCost: model.SmallbankAmalgamateHostCost,
		Run: func(state []byte, reads []wire.KV, rows *txnmodel.Rows) txnmodel.ExecResult {
			// reads: [A.savings, A.checking, B.checking] — all updates.
			total := balance(reads[0].Value) + balance(reads[1].Value)
			return txnmodel.ExecResult{Writes: []wire.KV{
				{Key: reads[0].Key, Value: val(rows, 0)},
				{Key: reads[1].Key, Value: val(rows, 0)},
				{Key: reads[2].Key, Value: val(rows, balance(reads[2].Value)+total)},
			}}
		},
	})
	r.Register(&txnmodel.ExecFunc{
		ID: fnWriteCheck, HostCost: model.SmallbankWriteCheckHostCost,
		Run: func(state []byte, reads []wire.KV, rows *txnmodel.Rows) txnmodel.ExecResult {
			// reads: [savings (read-only), checking (update)].
			amount := int64(binary.LittleEndian.Uint64(state))
			totalBal := balance(reads[0].Value) + balance(reads[1].Value)
			fee := int64(0)
			if totalBal < amount {
				fee = 1 // overdraft penalty
			}
			return txnmodel.ExecResult{Writes: []wire.KV{
				{Key: reads[1].Key, Value: val(rows, balance(reads[1].Value)-amount-fee)},
			}}
		},
	})
}

// Populate implements txnmodel.Generator.
func (g *Gen) Populate(shard, nodes int, emit func(uint64, []byte)) {
	for a := shard; a < g.total; a += nodes {
		emit(keyOf(tChecking, uint64(a)), openingRow)
		emit(keyOf(tSavings, uint64(a)), openingRow)
	}
}

// Measure implements txnmodel.Generator: all transactions count.
func (g *Gen) Measure(d *txnmodel.TxnDesc) bool { return true }

// account draws an account id with the hot-set skew.
func (g *Gen) account(rng *rand.Rand) uint64 {
	hot := int(float64(g.total) * g.HotFrac)
	if hot < 1 {
		hot = 1
	}
	if rng.Float64() < g.HotProb {
		return uint64(rng.Intn(hot))
	}
	return uint64(hot + rng.Intn(g.total-hot))
}

func amountState(rng *rand.Rand) []byte {
	st := make([]byte, 8)
	binary.LittleEndian.PutUint64(st, uint64(1+rng.Intn(100)))
	return st
}

// Next implements txnmodel.Generator.
func (g *Gen) Next(node, thread int, rng *rand.Rand) *txnmodel.TxnDesc {
	d := &txnmodel.TxnDesc{NICExec: g.NICExec, GenCost: model.SmallbankGenCost}
	a := g.account(rng)
	ro := g.ReadOnlyFrac
	if ro == 0 {
		ro = 0.15
	} else if ro < 0 {
		ro = 0
	}
	// The four update types split the remainder evenly, as in the paper mix.
	wr := (1 - ro) / 4
	switch p := rng.Float64(); {
	case p < ro: // Balance: read-only
		d.ReadKeys = []uint64{keyOf(tSavings, a), keyOf(tChecking, a)}
	case p < ro+wr: // DepositChecking
		d.UpdateKeys = []uint64{keyOf(tChecking, a)}
		d.FnID = fnDepositChecking
		d.State = amountState(rng)
	case p < ro+2*wr: // TransactSavings
		d.UpdateKeys = []uint64{keyOf(tSavings, a)}
		d.FnID = fnTransactSavings
		d.State = amountState(rng)
	case p < ro+3*wr: // Amalgamate: two customers, three updates
		b := g.account(rng)
		for b == a {
			b = g.account(rng)
		}
		d.UpdateKeys = []uint64{keyOf(tSavings, a), keyOf(tChecking, a), keyOf(tChecking, b)}
		d.FnID = fnAmalgamate
	default: // WriteCheck: read savings, update checking
		d.ReadKeys = []uint64{keyOf(tSavings, a)}
		d.UpdateKeys = []uint64{keyOf(tChecking, a)}
		d.FnID = fnWriteCheck
		d.State = amountState(rng)
	}
	return d
}

var _ txnmodel.Generator = (*Gen)(nil)
