// Package tpcc implements the TPC-C benchmark [42] as used in §5.2-§5.3:
// nine tables with object sizes up to 660B, warehouses partitioned across
// servers, and two workload variants:
//
//   - the DrTM+H-comparison variant (§5.2): new-order transactions only,
//     with items drawn from partitions chosen uniformly at random (a
//     strenuous remote access pattern);
//   - the full mix (§5.3): new-order 45%, payment 43%, order-status 4%,
//     delivery 4%, stock-level 4%, standard remote probabilities (~10% of
//     new orders and 15% of payments touch a remote warehouse), with
//     long-running local transactions chopped into database transactions.
//
// Storage split (§5.2): warehouse, customer, and stock are partitioned hash
// tables accessed across the cluster; district, history, new-order, order,
// and order-line are coordinator-local B+trees; item is a read-only
// catalog replicated at every node (its reads are part of transaction
// generation). Throughput is reported as new orders per second (§5.3).
package tpcc

import (
	"encoding/binary"
	"math/rand"
	"slices"

	"xenic/internal/model"
	"xenic/internal/sim"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
)

// Table tags (key top byte).
const (
	tWarehouse uint64 = 1
	tDistrict  uint64 = 2
	tCustomer  uint64 = 3
	tHistory   uint64 = 4
	tNewOrder  uint64 = 5
	tOrder     uint64 = 6
	tOrderLine uint64 = 7
	tStock     uint64 = 9
)

// Object sizes (bytes), following the TPC-C schema footprints the paper
// cites (up to 660B; stock and customer exceed the 256B inline threshold
// and live behind large-object pointers in the Xenic store).
const (
	warehouseSize = 89
	districtSize  = 95
	customerSize  = 655
	historySize   = 46
	newOrderSize  = 8
	orderSize     = 24
	orderLineSize = 54
	stockSize     = 306
)

// Execution function ids.
const (
	fnNewOrder = iota + 1
	fnPayment
	fnDelivery
)

// Gen generates TPC-C transactions.
type Gen struct {
	// WarehousesPerServer defaults to the paper's 72.
	WarehousesPerServer int
	// ItemsPerWarehouse is the stock rows per warehouse. TPC-C specifies
	// 100k; the default is scaled to 2k to fit simulation memory —
	// store occupancy and access skew are preserved (see EXPERIMENTS.md).
	ItemsPerWarehouse int
	// CustomersPerDistrict is scaled from TPC-C's 3000 for the same reason.
	CustomersPerDistrict int
	// Districts per warehouse (spec: 10).
	Districts int
	// NewOrderOnly selects the §5.2 variant.
	NewOrderOnly bool
	// UniformItems draws item partitions uniformly at random (§5.2);
	// otherwise the standard ~1%-per-item remote-warehouse rule applies.
	UniformItems bool
	// NICExec ships new-order and payment execution to the NIC (§5.3).
	NICExec bool

	nodes int
	seqs  map[uint64]uint32 // per-(w,d) order-id sequencers
	hseq  map[uint64]uint32 // per-w history sequencers
}

// New returns the full-mix generator at the paper's scale factors.
func New() *Gen {
	return &Gen{
		WarehousesPerServer:  72,
		ItemsPerWarehouse:    2000,
		CustomersPerDistrict: 60,
		Districts:            10,
		NICExec:              true,
		seqs:                 map[uint64]uint32{},
		hseq:                 map[uint64]uint32{},
	}
}

// NewOrderVariant returns the §5.2 new-order-only generator.
func NewOrderVariant() *Gen {
	g := New()
	g.NewOrderOnly = true
	g.UniformItems = true
	return g
}

// Name implements txnmodel.Generator.
func (g *Gen) Name() string {
	if g.NewOrderOnly {
		return "tpcc-neworder"
	}
	return "tpcc"
}

// Spec sizes each node's hash store: warehouses + customers + stock at
// ~60% occupancy.
func (g *Gen) Spec() txnmodel.StoreSpec {
	perServer := g.WarehousesPerServer * (1 + g.Districts*g.CustomersPerDistrict + g.ItemsPerWarehouse)
	return txnmodel.StoreSpec{
		HashSlots:       int(float64(perServer) / 0.6),
		InlineValueSize: 96,
		MaxDisplacement: 16,
		NICCacheObjects: perServer / 4,
	}
}

type place struct{ nodes int }

func warehouseOf(key uint64) uint64 { return (key >> 40) & 0xffff }

func (p place) ShardOf(key uint64) int { return int(warehouseOf(key) % uint64(p.nodes)) }
func (p place) IsBTree(key uint64) bool {
	switch key >> 56 {
	case tDistrict, tHistory, tNewOrder, tOrder, tOrderLine:
		return true
	}
	return false
}

// Placement implements txnmodel.Generator.
func (g *Gen) Placement(nodes, replication int) txnmodel.Placement {
	g.nodes = nodes
	return place{nodes: nodes}
}

func key(table, w, payload uint64) uint64 {
	return table<<56 | (w&0xffff)<<40 | (payload & 0xffffffffff)
}

func custKey(w, d, c uint64) uint64  { return key(tCustomer, w, d<<24|c) }
func stockKey(w, i uint64) uint64    { return key(tStock, w, i) }
func distKey(w, d uint64) uint64     { return key(tDistrict, w, d) }
func orderKey(w, d, o uint64) uint64 { return key(tOrder, w, d<<24|o) }
func nordKey(w, d, o uint64) uint64  { return key(tNewOrder, w, d<<24|o) }
func olKey(w, d, o, l uint64) uint64 { return key(tOrderLine, w, d<<28|o<<4|l) }
func histKey(w, h uint64) uint64     { return key(tHistory, w, h) }

func filler(n int, tag byte) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = tag + byte(i%13)
	}
	return v
}

// The fill of every row kind stockVal and moneyVal build, made once: each
// call copies its template instead of computing the pattern byte by byte.
var (
	stockFill     = filler(stockSize, 's')
	customerFill  = filler(customerSize, 'c')
	warehouseFill = filler(warehouseSize, 'w')
)

// stockVal encodes quantity/ytd at the head of a 306B stock row taken from
// rows. The fill overwrites every byte a reused row held.
func stockVal(rows *txnmodel.Rows, quantity, ytd uint32) []byte {
	v := rows.Row(stockSize)
	copy(v, stockFill)
	binary.LittleEndian.PutUint32(v, quantity)
	binary.LittleEndian.PutUint32(v[4:], ytd)
	return v
}

// moneyVal encodes a balance at the head of a row with the given fill,
// taken from rows.
func moneyVal(rows *txnmodel.Rows, fill []byte, balance uint64) []byte {
	v := rows.Row(len(fill))
	copy(v, fill)
	binary.LittleEndian.PutUint64(v, balance)
	return v
}

// Rows that are the same on every call, built once. A value handed to emit,
// placed in BlindWrites or returned in ExecResult.Writes is never written
// again (txnmodel.Generator), so every replica, log record and population
// row that carries one shares these read-only bytes; parallel clusters read
// them concurrently. Rows that differ per call (stockVal, moneyVal at
// execution) are built in the rows the caller lends.
var (
	warehouseRow = moneyVal(nil, warehouseFill, 0)
	districtRow  = filler(districtSize, 'd')
	customerRow  = moneyVal(nil, customerFill, 1000)
	stockRow     = stockVal(nil, 50, 0)
	historyRow   = filler(historySize, 'h')
	newOrderRow  = filler(newOrderSize, 'n')
	orderRow     = filler(orderSize, 'o')
	deliveredRow = filler(orderSize, 'O')
	orderLineRow = filler(orderLineSize, 'l')
)

// Register implements txnmodel.Generator.
func (g *Gen) Register(r *txnmodel.Registry) {
	r.Register(&txnmodel.ExecFunc{
		ID: fnNewOrder, HostCost: model.TPCCNewOrderHostCost,
		Run: func(state []byte, reads []wire.KV, rows *txnmodel.Rows) txnmodel.ExecResult {
			// state: nItems, then per-item quantity. reads: [customer,
			// warehouse, stock..., blind entries...].
			n := int(state[0])
			res := txnmodel.ExecResult{Writes: rows.Writes(n)}
			for i := 0; i < n; i++ {
				kv := reads[2+i]
				qty := uint32(state[1+i])
				cur := uint32(10)
				ytd := uint32(0)
				if len(kv.Value) >= 8 {
					cur = binary.LittleEndian.Uint32(kv.Value)
					ytd = binary.LittleEndian.Uint32(kv.Value[4:])
				}
				if cur >= qty+10 {
					cur -= qty
				} else {
					cur = cur - qty + 91
				}
				res.Writes[i] = wire.KV{Key: kv.Key, Value: stockVal(rows, cur, ytd+qty)}
			}
			return res
		},
	})
	r.Register(&txnmodel.ExecFunc{
		ID: fnPayment, HostCost: model.TPCCPaymentHostCost,
		Run: func(state []byte, reads []wire.KV, rows *txnmodel.Rows) txnmodel.ExecResult {
			// reads: [customer, warehouse, ...blind]. state: amount.
			amount := binary.LittleEndian.Uint64(state)
			cust, wh := reads[0], reads[1]
			cbal := uint64(0)
			if len(cust.Value) >= 8 {
				cbal = binary.LittleEndian.Uint64(cust.Value)
			}
			wytd := uint64(0)
			if len(wh.Value) >= 8 {
				wytd = binary.LittleEndian.Uint64(wh.Value)
			}
			w := rows.Writes(2)
			w[0] = wire.KV{Key: cust.Key, Value: moneyVal(rows, customerFill, cbal-amount)}
			w[1] = wire.KV{Key: wh.Key, Value: moneyVal(rows, warehouseFill, wytd+amount)}
			return txnmodel.ExecResult{Writes: w}
		},
	})
	r.Register(&txnmodel.ExecFunc{
		ID: fnDelivery, HostCost: model.TPCCDeliveryHostCost,
		Run: func(state []byte, reads []wire.KV, rows *txnmodel.Rows) txnmodel.ExecResult {
			// reads: customers to credit (updates). state: amount.
			amount := binary.LittleEndian.Uint64(state)
			res := txnmodel.ExecResult{Writes: rows.Writes(len(reads))[:0]}
			for _, kv := range reads {
				if kv.Key>>56 != tCustomer {
					continue
				}
				bal := uint64(0)
				if len(kv.Value) >= 8 {
					bal = binary.LittleEndian.Uint64(kv.Value)
				}
				res.Writes = append(res.Writes, wire.KV{
					Key: kv.Key, Value: moneyVal(rows, customerFill, bal+amount),
				})
			}
			return res
		},
	})
}

// Populate implements txnmodel.Generator: warehouses, customers, and stock
// rows for the shard's warehouses. Order tables start empty; districts are
// seeded so their versions exist.
func (g *Gen) Populate(shard, nodes int, emit func(uint64, []byte)) {
	total := g.WarehousesPerServer * nodes
	for w := shard; w < total; w += nodes {
		wu := uint64(w)
		emit(key(tWarehouse, wu, 0), warehouseRow)
		for d := 0; d < g.Districts; d++ {
			emit(distKey(wu, uint64(d)), districtRow)
			for c := 0; c < g.CustomersPerDistrict; c++ {
				emit(custKey(wu, uint64(d), uint64(c)), customerRow)
			}
		}
		for i := 0; i < g.ItemsPerWarehouse; i++ {
			emit(stockKey(wu, uint64(i)), stockRow)
		}
	}
}

// Measure implements txnmodel.Generator: only new orders count (§5.3).
func (g *Gen) Measure(d *txnmodel.TxnDesc) bool { return d.FnID == fnNewOrder }

// localWarehouse picks one of the node's warehouses.
func (g *Gen) localWarehouse(node int, rng *rand.Rand) uint64 {
	return uint64(node + g.nodes*rng.Intn(g.WarehousesPerServer))
}

func (g *Gen) nextOID(w, d uint64) uint64 {
	k := w<<8 | d
	g.seqs[k]++
	return uint64(g.seqs[k])
}

func (g *Gen) lastOID(w, d uint64) uint64 {
	return uint64(g.seqs[w<<8|d])
}

func (g *Gen) nextHist(w uint64) uint64 {
	g.hseq[w]++
	return uint64(g.hseq[w])
}

// nuRand is TPC-C's non-uniform customer/item distribution.
func nuRand(rng *rand.Rand, a, x, y int) int {
	c := a / 2
	return (((rng.Intn(a+1) | (x + rng.Intn(y-x+1))) + c) % (y - x + 1)) + x
}

// Next implements txnmodel.Generator.
func (g *Gen) Next(node, thread int, rng *rand.Rand) *txnmodel.TxnDesc {
	if g.NewOrderOnly {
		return g.newOrder(node, rng)
	}
	switch p := rng.Float64(); {
	case p < 0.45:
		return g.newOrder(node, rng)
	case p < 0.88:
		return g.payment(node, rng)
	case p < 0.92:
		return g.orderStatus(node, rng)
	case p < 0.96:
		return g.delivery(node, rng)
	default:
		return g.stockLevel(node, rng)
	}
}

// newOrder builds a new-order transaction at a home warehouse of node
// (§5.2): reads customer and warehouse, updates 5-15 stock rows (remote
// per the variant's pattern), and inserts district/order/order-line rows
// as coordinator-local B+tree blind writes.
func (g *Gen) newOrder(node int, rng *rand.Rand) *txnmodel.TxnDesc {
	w := g.localWarehouse(node, rng)
	d := uint64(rng.Intn(g.Districts))
	c := uint64(nuRand(rng, 1023, 0, g.CustomersPerDistrict-1))
	nItems := 5 + rng.Intn(11)
	oid := g.nextOID(w, d)

	desc := &txnmodel.TxnDesc{
		FnID:    fnNewOrder,
		NICExec: g.NICExec,
		GenCost: model.TPCCNewOrderGenCost + sim.Time(nItems)*model.TPCCNewOrderGenCostPerItem,
	}
	desc.ReadKeys = []uint64{custKey(w, d, c), key(tWarehouse, w, 0)}

	state := make([]byte, 1+nItems)
	state[0] = byte(nItems)
	desc.UpdateKeys = make([]uint64, 0, nItems)
	for i := 0; i < nItems; i++ {
		item := uint64(nuRand(rng, 8191, 0, g.ItemsPerWarehouse-1))
		sw := w
		if g.UniformItems {
			// §5.2: partitions chosen uniformly at random.
			sw = uint64(rng.Intn(g.WarehousesPerServer * g.nodes))
		} else if rng.Intn(100) == 0 {
			// Standard: ~1% of items from a remote warehouse.
			sw = uint64(rng.Intn(g.WarehousesPerServer * g.nodes))
		}
		sk := stockKey(sw, item)
		for slices.Contains(desc.UpdateKeys, sk) {
			item = (item + 1) % uint64(g.ItemsPerWarehouse)
			sk = stockKey(sw, item)
		}
		desc.UpdateKeys = append(desc.UpdateKeys, sk)
		state[1+i] = byte(1 + rng.Intn(10))
	}
	desc.State = state

	// Local B+tree inserts: district update, order, new-order, order lines.
	desc.BlindWrites = make([]wire.KV, 0, 3+nItems)
	desc.BlindWrites = append(desc.BlindWrites,
		wire.KV{Key: distKey(w, d), Value: districtRow},
		wire.KV{Key: orderKey(w, d, oid), Value: orderRow},
		wire.KV{Key: nordKey(w, d, oid), Value: newOrderRow},
	)
	for l := 0; l < nItems; l++ {
		desc.BlindWrites = append(desc.BlindWrites,
			wire.KV{Key: olKey(w, d, oid, uint64(l)), Value: orderLineRow})
	}
	return desc
}

// payment updates a customer's balance (15% at a remote warehouse) and the
// home warehouse/district year-to-date totals (§5.3).
func (g *Gen) payment(node int, rng *rand.Rand) *txnmodel.TxnDesc {
	w := g.localWarehouse(node, rng)
	cw := w
	if rng.Intn(100) < 15 {
		cw = uint64(rng.Intn(g.WarehousesPerServer * g.nodes))
	}
	d := uint64(rng.Intn(g.Districts))
	c := uint64(nuRand(rng, 1023, 0, g.CustomersPerDistrict-1))
	st := make([]byte, 8)
	binary.LittleEndian.PutUint64(st, uint64(1+rng.Intn(5000)))
	return &txnmodel.TxnDesc{
		FnID:    fnPayment,
		NICExec: g.NICExec,
		GenCost: model.TPCCPaymentGenCost,
		State:   st,
		UpdateKeys: []uint64{
			custKey(cw, d, c),
			key(tWarehouse, w, 0),
		},
		BlindWrites: []wire.KV{
			{Key: distKey(w, d), Value: districtRow},
			{Key: histKey(w, g.nextHist(w)), Value: historyRow},
		},
	}
}

// orderStatus is a coordinator-local read-only transaction: customer plus
// the most recent order and its lines.
func (g *Gen) orderStatus(node int, rng *rand.Rand) *txnmodel.TxnDesc {
	w := g.localWarehouse(node, rng)
	d := uint64(rng.Intn(g.Districts))
	c := uint64(nuRand(rng, 1023, 0, g.CustomersPerDistrict-1))
	desc := &txnmodel.TxnDesc{GenCost: model.TPCCOrderStatusGenCost}
	desc.ReadKeys = append(desc.ReadKeys, custKey(w, d, c))
	if oid := g.lastOID(w, d); oid > 0 {
		desc.ReadKeys = append(desc.ReadKeys, orderKey(w, d, oid))
		for l := 0; l < 5; l++ {
			desc.ReadKeys = append(desc.ReadKeys, olKey(w, d, oid, uint64(l)))
		}
	}
	return desc
}

// delivery is a chopped local transaction crediting one customer per
// district and marking orders delivered (§5.3).
func (g *Gen) delivery(node int, rng *rand.Rand) *txnmodel.TxnDesc {
	w := g.localWarehouse(node, rng)
	st := make([]byte, 8)
	binary.LittleEndian.PutUint64(st, uint64(1+rng.Intn(500)))
	desc := &txnmodel.TxnDesc{
		FnID:    fnDelivery,
		GenCost: model.TPCCDeliveryGenCost,
		State:   st,
	}
	for d := 0; d < g.Districts; d++ {
		du := uint64(d)
		c := uint64(rng.Intn(g.CustomersPerDistrict))
		desc.UpdateKeys = append(desc.UpdateKeys, custKey(w, du, c))
		if oid := g.lastOID(w, du); oid > 0 {
			desc.BlindWrites = append(desc.BlindWrites,
				wire.KV{Key: orderKey(w, du, oid), Value: deliveredRow})
		}
	}
	return desc
}

// stockLevel is a coordinator-local read-only transaction over recent
// order lines and their stock rows.
func (g *Gen) stockLevel(node int, rng *rand.Rand) *txnmodel.TxnDesc {
	w := g.localWarehouse(node, rng)
	d := uint64(rng.Intn(g.Districts))
	desc := &txnmodel.TxnDesc{GenCost: model.TPCCStockLevelGenCost}
	desc.ReadKeys = append(desc.ReadKeys, distKey(w, d))
	for i := 0; i < 20; i++ {
		item := uint64(rng.Intn(g.ItemsPerWarehouse))
		desc.ReadKeys = append(desc.ReadKeys, stockKey(w, item))
	}
	if oid := g.lastOID(w, d); oid > 0 {
		for l := 0; l < 5; l++ {
			desc.ReadKeys = append(desc.ReadKeys, olKey(w, d, oid, uint64(l)))
		}
	}
	return desc
}

var _ txnmodel.Generator = (*Gen)(nil)
