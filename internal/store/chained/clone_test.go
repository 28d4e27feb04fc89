package chained

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

func cloneOps(seed int64, n, keys int) []cloneOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]cloneOp, n)
	for i := range ops {
		ops[i].key = uint64(rng.Intn(keys))
		if rng.Intn(100) < 30 {
			ops[i].del = true
			continue
		}
		v := make([]byte, 1+rng.Intn(24))
		rng.Read(v)
		ops[i].value = v
	}
	return ops
}

func applyOps(tb *Table, ops []cloneOp, firstVersion int) {
	for i, op := range ops {
		if op.del {
			tb.Delete(op.key)
		} else {
			tb.Insert(op.key, op.value, uint64(firstVersion+i))
		}
	}
}

// dumpTable renders everything a reader of the table can observe: the
// ForEach order with value bytes, each key's lookup with its remote cost,
// and the counts.
func dumpTable(tb *Table, keys int) string {
	var b strings.Builder
	tb.ForEach(func(key, version uint64, value []byte) bool {
		fmt.Fprintf(&b, "key %d v%d %x\n", key, version, value)
		return true
	})
	for k := 0; k < keys; k++ {
		fmt.Fprintf(&b, "lookup %d %+v\n", k, tb.Lookup(uint64(k)))
	}
	fmt.Fprintf(&b, "len %d buckets %d cells %d/%d\n", tb.Len(), len(tb.used), tb.cells.Live(), tb.cells.Len())
	return b.String()
}

// TestCloneMatchesRebuild pins Clone to "the same table": a clone of a table
// built from N operations, given M more, is indistinguishable from a fresh
// table given all N+M — the same buckets, chain links and cell numbering —
// while the original stays byte for byte what it was.
func TestCloneMatchesRebuild(t *testing.T) {
	const n, m, keys = 3_000, 3_000, 200
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ops := cloneOps(seed, n+m, keys)
			// 8 roots of 4 entries for ~140 live keys: every root chains.
			orig := New(8, 4)
			applyOps(orig, ops[:n], 1)
			before := dumpTable(orig, keys)
			clone := orig.Clone()
			if got := dumpTable(clone, keys); got != before {
				t.Fatal("a fresh clone differs from its original")
			}
			applyOps(clone, ops[n:], n+1)

			fresh := New(8, 4)
			applyOps(fresh, ops, 1)
			if got, want := dumpTable(clone, keys), dumpTable(fresh, keys); got != want {
				t.Fatalf("clone after %d more ops differs from a rebuild", m)
			}
			for name, pair := range map[string][2]any{
				"roots": {clone.roots, fresh.roots}, "links": {clone.links, fresh.links},
				"used": {clone.used, fresh.used}, "next": {clone.next, fresh.next},
			} {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Fatalf("clone's %s differ from a rebuild's", name)
				}
			}
			for name, tb := range map[string]*Table{"original": orig, "clone": clone, "rebuild": fresh} {
				if err := tb.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			if got := dumpTable(orig, keys); got != before {
				t.Fatal("writes into the clone changed the original")
			}
			if len(fresh.links) == 0 || fresh.cells.Len() == fresh.cells.Live() {
				t.Fatalf("no chain link or no freed cell: %d links, cells %d/%d",
					len(fresh.links), fresh.cells.Live(), fresh.cells.Len())
			}
		})
	}
}
