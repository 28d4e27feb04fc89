package core

import (
	"fmt"
	"strings"
	"testing"

	"xenic/internal/store/btree"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
	"xenic/internal/workload/retwis"
	"xenic/internal/workload/smallbank"
	"xenic/internal/workload/tpcc"
)

// dumpReplica renders everything a reader of a replica can observe: every
// hash slot and overflow bucket as a DMA read sees them, each segment's
// hint, large objects, the table's Stats, and every B+tree item, value
// bytes included.
func dumpReplica(d *ShardData) string {
	var b strings.Builder
	h := d.Hash
	for i := 0; i < h.Slots(); i++ {
		s := h.SlotAt(i)
		if !s.Occupied {
			continue
		}
		fmt.Fprintf(&b, "slot %d %+v", i, s)
		if s.Indirect {
			v, _ := h.LargeValue(s.Key)
			fmt.Fprintf(&b, " large %x", v)
		}
		b.WriteByte('\n')
	}
	for seg := 0; seg < h.Segments(); seg++ {
		if d, o := h.SegmentMaxDisp(seg), h.OverflowLen(seg); d > 0 || o > 0 {
			fmt.Fprintf(&b, "seg %d disp %d over %+v\n", seg, d, h.ReadOverflow(seg))
		}
	}
	fmt.Fprintf(&b, "len %d stats %+v\n", h.Len(), h.Stats())
	d.BTree.AscendRange(0, ^uint64(0), func(it btree.Item) bool {
		fmt.Fprintf(&b, "item %d v%d %x\n", it.Key, it.Version, it.Value)
		return true
	})
	fmt.Fprintf(&b, "btree len %d\n", d.BTree.Len())
	return b.String()
}

// TestBackupsEqualPrimaryAfterConstruction pins population by copy, one
// goroutine per shard: after New, the primary and every backup of every
// shard equal a table built serially from the same Populate stream — key
// for key, version and value bytes, the same Robin Hood layout, hints and
// Stats, the same B+tree — the backups sharing the primary's value slices
// rather than copies of them; and an Apply into one backup leaves the
// primary and the other backups unchanged.
func TestBackupsEqualPrimaryAfterConstruction(t *testing.T) {
	sb := smallbank.New()
	sb.AccountsPerServer = 2_000
	tp := tpcc.New()
	tp.WarehousesPerServer, tp.ItemsPerWarehouse, tp.CustomersPerDistrict = 2, 100, 10
	rw := retwis.New()
	rw.KeysPerServer = 2_000
	for _, g := range []txnmodel.Generator{sb, tp, rw} {
		t.Run(g.Name(), func(t *testing.T) {
			cfg := testConfig(4, Features{})
			cfg.Seed = 1
			cl, err := New(cfg, g, Observers{})
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < cfg.Nodes; s++ {
				prim := cl.nodes[s].prims[s].data
				var backups []*ShardData
				for _, b := range cl.BackupsOf(s) {
					backups = append(backups, cl.nodes[b].backups[s])
				}
				if len(backups) != cfg.Replication-1 {
					t.Fatalf("shard %d has %d backups", s, len(backups))
				}
				// Every replica must equal a table built serially, on this
				// goroutine, from the same Populate stream: shard goroutines
				// share no table and no generator state.
				serial := newShardData(g.Spec(), cl.Placement())
				g.Populate(s, cfg.Nodes, func(key uint64, value []byte) { serial.Apply(wire.KV{Key: key, Version: 1, Value: value}) })
				want := dumpReplica(serial)
				if got := dumpReplica(prim); got != want {
					t.Fatalf("shard %d: primary differs from a serially built table", s)
				}
				if prim.Hash.Len() == 0 {
					t.Fatalf("shard %d: primary is empty", s)
				}
				for i, bk := range backups {
					if bk == prim || bk.Hash == prim.Hash || bk.BTree == prim.BTree {
						t.Fatalf("shard %d backup %d shares its primary's tables", s, i)
					}
					if got := dumpReplica(bk); got != want {
						t.Fatalf("shard %d backup %d differs from a serially built table", s, i)
					}
					prim.Hash.ForEach(func(key, _ uint64, value []byte) bool {
						if r := bk.Hash.Lookup(key); len(value) > 0 && &r.Value[0] != &value[0] {
							err = fmt.Errorf("key %d: backup holds a copy of the primary's value", key)
							return false
						}
						return true
					})
					if err != nil {
						t.Fatalf("shard %d backup %d: %v", s, i, err)
					}
					if err := bk.Hash.CheckInvariants(); err != nil {
						t.Fatalf("shard %d backup %d: %v", s, i, err)
					}
				}

				// Write every key into the first backup; nothing else moves.
				others := []string{}
				for _, bk := range backups[1:] {
					others = append(others, dumpReplica(bk))
				}
				apply := func(key uint64) {
					backups[0].Apply(wire.KV{Key: key, Version: 2, Value: []byte("written")})
				}
				prim.Hash.ForEach(func(key, _ uint64, _ []byte) bool { apply(key); return true })
				prim.BTree.AscendRange(0, ^uint64(0), func(it btree.Item) bool { apply(it.Key); return true })
				apply(1<<55 + uint64(s)) // a fresh key, too
				if dumpReplica(backups[0]) == want {
					t.Fatalf("shard %d: the writes did not reach the backup", s)
				}
				if got := dumpReplica(prim); got != want {
					t.Fatalf("shard %d: a write into a backup changed the primary", s)
				}
				for i, bk := range backups[1:] {
					if got := dumpReplica(bk); got != others[i] {
						t.Fatalf("shard %d: a write into backup 0 changed backup %d", s, i+1)
					}
				}
			}
		})
	}
}

// misplaced emits, from shards 2 and 4, a key of the next shard.
type misplaced struct{ *kvGen }

func (m misplaced) Populate(shard, nodes int, emit func(uint64, []byte)) {
	m.kvGen.Populate(shard, nodes, emit)
	if shard == 2 || shard == 4 {
		emit(uint64(shard+1), make([]byte, 8))
	}
}

// TestPopulatePanicReachesCaller pins the failure path of construction: a
// generator that misplaces keys from two shards makes New panic on the
// calling goroutine, with the lowest such shard's message.
func TestPopulatePanicReachesCaller(t *testing.T) {
	defer func() {
		const want = "core: populate: key 3 belongs to shard 3, emitted for 2"
		if r := recover(); r != want {
			t.Fatalf("New panicked with %v, want %q", r, want)
		}
	}()
	New(testConfig(6, Features{}), misplaced{&kvGen{keys: 600}}, Observers{})
}
