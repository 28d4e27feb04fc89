// Package btree implements the B+tree used for TPC-C's coordinator-local
// tables (§5.2: "the others are B+ trees local to their respective
// coordinators; all tables are replicated"). Values carry version numbers
// like the hash store so the same OCC validation and log-replication
// machinery applies to both.
package btree

import "fmt"

// degree is half the maximum children per interior node; a node holds up
// to maxItems items.
const degree = 32

// maxItems is a node's item capacity. A leaf made by a split gets an array
// of exactly this capacity, so it never regrows.
const maxItems = 2*degree - 1

// shiftMargin is the free room a full leaf's left sibling must have before
// insert shifts items into it instead of splitting the leaf. A shift moves
// half that room, so each moves at least 4 items: with a margin of 2 a
// sibling would take one item, and every insert into the leaf would then
// memmove the whole leaf to shift the next one.
const shiftMargin = 8

// Item is one stored object.
type Item struct {
	Key     uint64
	Version uint64
	Value   []byte
}

type node struct {
	leaf     bool
	items    []Item  // keys (leaf: full items; interior: separators only use Key)
	children []*node // len(items)+1 when interior
}

// Tree is a single-writer B+tree mapping uint64 keys to versioned values.
type Tree struct {
	root  *node
	count int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Clone returns a copy of t with the same node structure, as if the same
// operations had been applied to a fresh tree. The copy owns its nodes and
// their item and child slices, each with the original's capacity, and shares
// the value slices: values are never written once stored (DESIGN.md §16).
func (t *Tree) Clone() *Tree {
	return &Tree{root: t.root.clone(), count: t.count}
}

func (n *node) clone() *node {
	c := &node{leaf: n.leaf, items: make([]Item, len(n.items), cap(n.items))}
	copy(c.items, n.items)
	if !n.leaf {
		c.children = make([]*node, len(n.children), cap(n.children))
		for i, ch := range n.children {
			c.children[i] = ch.clone()
		}
	}
	return c
}

// Len reports the number of stored keys.
func (t *Tree) Len() int { return t.count }

// search returns the index of the first item >= key.
func search(items []Item, key uint64) (int, bool) {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if items[mid].Key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(items) && items[lo].Key == key
}

// Get returns the item stored under key.
func (t *Tree) Get(key uint64) (Item, bool) {
	n := t.root
	for {
		i, eq := search(n.items, key)
		if n.leaf {
			if eq {
				return n.items[i], true
			}
			return Item{}, false
		}
		if eq {
			i++
		}
		n = n.children[i]
	}
}

// Insert stores value/version under key, replacing any existing entry. The
// tree adopts value instead of copying it, its capacity clipped: the caller
// must never write it again, and items returned by Get outlive the call.
func (t *Tree) Insert(key uint64, value []byte, version uint64) {
	it := Item{Key: key, Version: version, Value: value[:len(value):len(value)]}
	if added := t.insert(t.root, it); added {
		t.count++
	}
	if len(t.root.items) >= maxItems {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.split(t.root, 0)
	}
}

func (t *Tree) insert(n *node, it Item) bool {
	i, eq := search(n.items, it.Key)
	if n.leaf {
		if eq {
			n.items[i] = it
			return false
		}
		n.items = append(n.items, Item{})
		copy(n.items[i+1:], n.items[i:])
		n.items[i] = it
		return true
	}
	if eq {
		i++
	}
	child := n.children[i]
	if len(child.items) >= maxItems && child.leaf && i > 0 &&
		maxItems-len(n.children[i-1].items) >= shiftMargin {
		shiftLeft(n, i)
		// The separator is the child's new first key: a smaller key now
		// lives in the sibling.
		if it.Key < n.items[i-1].Key {
			i--
		}
	} else if len(child.items) >= maxItems {
		t.split(n, i)
		// A key equal to the new separator lives on its right, as search
		// and Get assume: a leaf split copies the right half's first key
		// up, an interior split moves up the key whose right subtree went
		// to the new node.
		if it.Key >= n.items[i].Key {
			i++
		}
	}
	return t.insert(n.children[i], it)
}

// shiftLeft moves the lowest items of the full leaf at index i of parent n
// onto the end of its left sibling, half the sibling's free room of them,
// and makes the leaf's new first key their separator. Appended keys land
// in a leaf's last slots, so shifting instead of splitting keeps leaves
// nearly full (DESIGN.md §16, "B+tree leaves").
func shiftLeft(n *node, i int) {
	left, child := n.children[i-1], n.children[i]
	k := (maxItems - len(left.items)) / 2
	left.items = append(left.items, child.items[:k]...)
	rest := copy(child.items, child.items[k:])
	clear(child.items[rest:])
	child.items = child.items[:rest]
	n.items[i-1] = Item{Key: child.items[0].Key}
}

// split divides the full child at index i of parent n.
func (t *Tree) split(n *node, i int) {
	child := n.children[i]
	mid := len(child.items) / 2
	var sep Item
	right := &node{leaf: child.leaf}
	if child.leaf {
		// B+tree: separator is a copy of the first right key; items stay
		// in leaves.
		right.items = make([]Item, len(child.items)-mid, maxItems)
		copy(right.items, child.items[mid:])
		clear(child.items[mid:])
		child.items = child.items[:mid]
		sep = Item{Key: right.items[0].Key}
	} else {
		sep = Item{Key: child.items[mid].Key}
		right.items = append(right.items, child.items[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.items = child.items[:mid]
		child.children = child.children[:mid+1]
	}
	n.items = append(n.items, Item{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// Delete removes key, returning whether it was present. Underflowed nodes
// are left in place (lazy deletion), which keeps the structure valid for
// the workloads here (TPC-C only grows its local tables).
func (t *Tree) Delete(key uint64) bool {
	n := t.root
	for {
		i, eq := search(n.items, key)
		if n.leaf {
			if !eq {
				return false
			}
			n.items = append(n.items[:i], n.items[i+1:]...)
			t.count--
			return true
		}
		if eq {
			i++
		}
		n = n.children[i]
	}
}

// AscendRange calls fn for every item with lo <= key < hi, in order, until
// fn returns false.
func (t *Tree) AscendRange(lo, hi uint64, fn func(Item) bool) {
	t.ascend(t.root, lo, hi, fn)
}

func (t *Tree) ascend(n *node, lo, hi uint64, fn func(Item) bool) bool {
	i, _ := search(n.items, lo)
	if n.leaf {
		for ; i < len(n.items); i++ {
			if n.items[i].Key >= hi {
				return false
			}
			if !fn(n.items[i]) {
				return false
			}
		}
		return true
	}
	for ; i <= len(n.items); i++ {
		if !t.ascend(n.children[i], lo, hi, fn) {
			return false
		}
		if i < len(n.items) && n.items[i].Key >= hi {
			return false
		}
	}
	return true
}

// CheckInvariants validates ordering and structure.
func (t *Tree) CheckInvariants() error {
	n, err := check(t.root, 0, ^uint64(0))
	if err != nil {
		return err
	}
	if n != t.count {
		return fmt.Errorf("btree: count %d != resident %d", t.count, n)
	}
	return nil
}

func check(n *node, lo, hi uint64) (int, error) {
	for i := 1; i < len(n.items); i++ {
		if n.items[i-1].Key >= n.items[i].Key {
			return 0, fmt.Errorf("btree: unordered items at %d", i)
		}
	}
	for _, it := range n.items {
		if it.Key < lo || it.Key > hi {
			return 0, fmt.Errorf("btree: key %d outside [%d,%d]", it.Key, lo, hi)
		}
	}
	if n.leaf {
		if len(n.items) > maxItems {
			return 0, fmt.Errorf("btree: leaf holds %d items, capacity %d", len(n.items), maxItems)
		}
		return len(n.items), nil
	}
	if len(n.children) != len(n.items)+1 {
		return 0, fmt.Errorf("btree: %d children for %d items", len(n.children), len(n.items))
	}
	total := 0
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = n.items[i-1].Key
		}
		if i < len(n.items) {
			chi = n.items[i].Key
		}
		cnt, err := check(c, clo, chi)
		if err != nil {
			return 0, err
		}
		total += cnt
	}
	return total, nil
}
