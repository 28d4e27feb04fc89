package baseline

import (
	"fmt"
	"strings"
	"testing"

	"xenic/internal/store/btree"
	"xenic/internal/txnmodel"
	"xenic/internal/workload/retwis"
	"xenic/internal/workload/smallbank"
	"xenic/internal/workload/tpcc"
)

// dumpReplica renders everything a reader of a replica can observe: the
// hash table's iteration order with versions and value bytes (which pins
// the bucket and chain layout), each key's remote lookup cost, and every
// B+tree item.
func dumpReplica(d *shardData) string {
	var b strings.Builder
	d.hash.ForEach(func(key, version uint64, value []byte) bool {
		rt, bytes := d.lookupCost(key)
		fmt.Fprintf(&b, "key %d v%d %x cost %d×%d\n", key, version, value, rt, bytes)
		return true
	})
	fmt.Fprintf(&b, "len %d roots %d\n", d.hash.Len(), d.hash.Roots())
	d.btree.AscendRange(0, ^uint64(0), func(it btree.Item) bool {
		fmt.Fprintf(&b, "item %d v%d %x\n", it.Key, it.Version, it.Value)
		return true
	})
	fmt.Fprintf(&b, "btree len %d\n", d.btree.Len())
	return b.String()
}

// TestBackupsEqualPrimaryAfterConstruction pins population by copy, one
// goroutine per shard: after New, the primary and every backup of every
// shard equal a table built serially from the same Populate stream — key
// for key, version and value bytes, the same chain layout, the same B+tree
// — the backups sharing the primary's value slices; and an apply into one
// backup leaves the primary and the other backups unchanged.
func TestBackupsEqualPrimaryAfterConstruction(t *testing.T) {
	sb := smallbank.New()
	sb.AccountsPerServer = 2_000
	tp := tpcc.New()
	tp.WarehousesPerServer, tp.ItemsPerWarehouse, tp.CustomersPerDistrict = 2, 100, 10
	rw := retwis.New()
	rw.KeysPerServer = 2_000
	for _, g := range []txnmodel.Generator{sb, tp, rw} {
		t.Run(g.Name(), func(t *testing.T) {
			cfg := DefaultConfig(DrTMH)
			cfg.Nodes, cfg.Threads, cfg.Seed = 4, 2, 1
			cl, err := New(cfg, g, Observers{})
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < cfg.Nodes; s++ {
				prim := cl.nodes[s].primary
				var backups []*shardData
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
				g.Populate(s, cfg.Nodes, func(key uint64, value []byte) { serial.apply(key, value, 1) })
				want := dumpReplica(serial)
				if got := dumpReplica(prim); got != want {
					t.Fatalf("shard %d: primary differs from a serially built table", s)
				}
				if prim.hash.Len() == 0 {
					t.Fatalf("shard %d: primary is empty", s)
				}
				for i, bk := range backups {
					if bk == prim || bk.hash == prim.hash || bk.btree == prim.btree {
						t.Fatalf("shard %d backup %d shares its primary's tables", s, i)
					}
					if got := dumpReplica(bk); got != want {
						t.Fatalf("shard %d backup %d differs from a serially built table", s, i)
					}
					prim.hash.ForEach(func(key, _ uint64, value []byte) bool {
						if r := bk.hash.Lookup(key); len(value) > 0 && &r.Value[0] != &value[0] {
							err = fmt.Errorf("key %d: backup holds a copy of the primary's value", key)
							return false
						}
						return true
					})
					if err != nil {
						t.Fatalf("shard %d backup %d: %v", s, i, err)
					}
					if err := bk.hash.CheckInvariants(); err != nil {
						t.Fatalf("shard %d backup %d: %v", s, i, err)
					}
				}

				// Write every key into the first backup; nothing else moves.
				others := []string{}
				for _, bk := range backups[1:] {
					others = append(others, dumpReplica(bk))
				}
				apply := func(key uint64) { backups[0].apply(key, []byte("written"), 2) }
				prim.hash.ForEach(func(key, _ uint64, _ []byte) bool { apply(key); return true })
				prim.btree.AscendRange(0, ^uint64(0), func(it btree.Item) bool { apply(it.Key); return true })
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
type misplaced struct{ *counterGen }

func (m misplaced) Populate(shard, nodes int, emit func(uint64, []byte)) {
	m.counterGen.Populate(shard, nodes, emit)
	if shard == 2 || shard == 4 {
		emit(uint64(shard+1), make([]byte, 8))
	}
}

// TestPopulatePanicReachesCaller pins the failure path of construction: a
// generator that misplaces keys from two shards makes New panic on the
// calling goroutine, with the lowest such shard's message.
func TestPopulatePanicReachesCaller(t *testing.T) {
	defer func() {
		const want = "baseline: populate: key 3 belongs to shard 3, emitted for 2"
		if r := recover(); r != want {
			t.Fatalf("New panicked with %v, want %q", r, want)
		}
	}()
	cfg := DefaultConfig(DrTMH)
	cfg.Nodes, cfg.Threads = 6, 2
	New(cfg, misplaced{&counterGen{keys: 600}}, Observers{})
}
