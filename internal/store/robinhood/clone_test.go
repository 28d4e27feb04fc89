package robinhood

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// cloneOp is one step of a seeded operation sequence.
type cloneOp struct {
	del   bool
	key   uint64
	value []byte
}

// cloneOps returns n seeded Insert / Delete steps over a key range small
// enough to overflow a Dm=2 table, delete keys and re-insert them; values
// are inline (≤ 16 bytes) or large (> 64 bytes), so records move between
// inline and large-object cells.
func cloneOps(seed int64, n, keys int) []cloneOp {
	rng := rand.New(rand.NewSource(seed))
	lengths := []int{0, 3, 16, 65, 200}
	ops := make([]cloneOp, n)
	for i := range ops {
		ops[i].key = uint64(rng.Intn(keys))
		if rng.Intn(100) < 30 {
			ops[i].del = true
			continue
		}
		v := make([]byte, lengths[rng.Intn(len(lengths))])
		rng.Read(v)
		ops[i].value = v
	}
	return ops
}

func applyOps(t *testing.T, tb *Table, ops []cloneOp, firstVersion int) {
	t.Helper()
	for i, op := range ops {
		if op.del {
			tb.Delete(op.key)
			continue
		}
		if err := tb.Insert(op.key, op.value, uint64(firstVersion+i)); err != nil {
			t.Fatalf("insert %d: %v", op.key, err)
		}
	}
}

// dumpTable renders everything a reader of the table can observe — every
// slot and overflow bucket as a DMA read sees it, each segment's hint, the
// ForEach order, large objects, counts and Stats — value bytes included.
func dumpTable(tb *Table) string {
	var b strings.Builder
	for i := 0; i < tb.Slots(); i++ {
		fmt.Fprintf(&b, "slot %d %+v\n", i, tb.SlotAt(i))
	}
	for seg := 0; seg < tb.Segments(); seg++ {
		fmt.Fprintf(&b, "seg %d disp %d over %+v\n", seg, tb.SegmentMaxDisp(seg), tb.ReadOverflow(seg))
	}
	tb.ForEach(func(key, version uint64, value []byte) bool {
		large, _ := tb.LargeValue(key)
		fmt.Fprintf(&b, "key %d v%d %x large %x\n", key, version, value, large)
		return true
	})
	fmt.Fprintf(&b, "len %d cells %d/%d stats %+v\n", tb.Len(), tb.cells.Live(), tb.cells.Len(), tb.Stats())
	return b.String()
}

// TestCloneMatchesRebuild pins Clone to "the same table": a clone of a table
// built from N operations, given M more, is indistinguishable from a fresh
// table given all N+M — the same slot layout and cell numbering, overflow
// buckets, hints, iteration order and Stats — while the original stays
// byte for byte what it was.
func TestCloneMatchesRebuild(t *testing.T) {
	const n, m = 3_000, 3_000
	for _, sh := range []struct {
		name            string
		slots, dm, keys int
	}{
		{"dm=2", 128, 2, 120},
		{"dm=16", 256, 16, 230},
		{"unlimited", 64, 0, 60},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sh.name, seed), func(t *testing.T) {
				c := cfg(sh.slots, sh.dm)
				c.InlineValueSize, c.LargeThreshold = 16, 64
				ops := cloneOps(seed, n+m, sh.keys)

				orig := New(c)
				applyOps(t, orig, ops[:n], 1)
				before := dumpTable(orig)
				clone := orig.Clone()
				if got := dumpTable(clone); got != before {
					t.Fatal("a fresh clone differs from its original")
				}
				applyOps(t, clone, ops[n:], n+1)

				fresh := New(c)
				applyOps(t, fresh, ops, 1)
				if got, want := dumpTable(clone), dumpTable(fresh); got != want {
					t.Fatalf("clone after %d more ops differs from a rebuild", m)
				}
				if !reflect.DeepEqual(clone.slots, fresh.slots) {
					t.Fatal("clone's records (cell numbers included) differ from a rebuild's")
				}
				for name, tb := range map[string]*Table{"original": orig, "clone": clone, "rebuild": fresh} {
					if err := tb.CheckInvariants(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				if got := dumpTable(orig); got != before {
					t.Fatal("writes into the clone changed the original")
				}
				st := fresh.Stats()
				if sh.dm == 2 && (st.Overflows == 0 || st.OverflowSwapsIn == 0) {
					t.Fatalf("Dm=2 run never overflowed a victim or promoted one back: %+v", st)
				}
				if st.Deletes == 0 || fresh.cells.Len() == fresh.cells.Live() {
					t.Fatalf("no delete freed a cell: %+v, cells %d/%d", st, fresh.cells.Live(), fresh.cells.Len())
				}
			})
		}
	}
}
