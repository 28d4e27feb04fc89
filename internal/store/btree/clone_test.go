package btree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// dumpNode renders a subtree's shape and contents: every node's leaf flag
// and items, value bytes included, depth first.
func dumpNode(b *strings.Builder, n *node, depth int) {
	fmt.Fprintf(b, "%*sleaf=%v", depth, "", n.leaf)
	for _, it := range n.items {
		fmt.Fprintf(b, " %d:v%d:%x", it.Key, it.Version, it.Value)
	}
	b.WriteByte('\n')
	for _, c := range n.children {
		dumpNode(b, c, depth+1)
	}
}

func dumpTree(t *Tree) string {
	var b strings.Builder
	dumpNode(&b, t.root, 0)
	fmt.Fprintf(&b, "len %d\n", t.Len())
	return b.String()
}

func depth(n *node) int {
	d := 1
	for ; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}

// TestCloneMatchesRebuild pins Clone to "the same tree": a clone of a tree
// built from N operations, given M more, has the node structure of a fresh
// tree given all N+M, while the original stays byte for byte what it was.
// The population is large enough to split interior nodes.
func TestCloneMatchesRebuild(t *testing.T) {
	const n, m, keys = 20_000, 10_000, 40_000
	type op struct {
		del   bool
		key   uint64
		value []byte
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]op, n+m)
			for i := range ops {
				ops[i].key = uint64(rng.Intn(keys))
				if rng.Intn(100) < 20 {
					ops[i].del = true
					continue
				}
				ops[i].value = make([]byte, 1+rng.Intn(12))
				rng.Read(ops[i].value)
			}
			apply := func(tr *Tree, ops []op, firstVersion int) {
				for i, o := range ops {
					if o.del {
						tr.Delete(o.key)
					} else {
						tr.Insert(o.key, o.value, uint64(firstVersion+i))
					}
				}
			}
			orig := New()
			apply(orig, ops[:n], 1)
			before := dumpTree(orig)
			clone := orig.Clone()
			if got := dumpTree(clone); got != before {
				t.Fatal("a fresh clone differs from its original")
			}
			apply(clone, ops[n:], n+1)

			fresh := New()
			apply(fresh, ops, 1)
			if got, want := dumpTree(clone), dumpTree(fresh); got != want {
				t.Fatalf("clone after %d more ops differs from a rebuild", m)
			}
			for name, tr := range map[string]*Tree{"original": orig, "clone": clone, "rebuild": fresh} {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			if got := dumpTree(orig); got != before {
				t.Fatal("writes into the clone changed the original")
			}
			if d := depth(orig.root); d < 3 {
				t.Fatalf("original is %d levels deep; the test needs interior splits", d)
			}
		})
	}
}
