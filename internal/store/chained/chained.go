// Package chained implements DrTM+H's hash structure [44], the second
// comparison point of Table 2: a closed array of fixed-size B-element
// buckets with additional linked buckets allocated as necessary. A remote
// lookup reads whole buckets and follows chain links, so it fetches at
// least B objects and may take multiple roundtrips.
package chained

import (
	"fmt"
	"slices"

	"xenic/internal/store/cell"
	"xenic/internal/store/robinhood"
)

// entry is one stored object: 24 pointer-free bytes, so the entry array —
// most of a table's memory — is never scanned by the garbage collector.
type entry struct {
	key     uint64
	version uint64
	val     uint32 // 0: unused; else a cell of Table.cells
}

// Table is a chained-bucket hash table. Buckets are numbered: [0, Roots())
// is the closed root array, root bucket i owning roots[i*b : (i+1)*b];
// linked buckets take the numbers after that and live in links, which only
// grows (appending to the root array instead would copy it, and leave a
// quarter of it as slack, on a table's first chain link).
type Table struct {
	b     int
	mask  uint64
	roots []entry
	links []entry
	used  []int32 // per bucket: occupied prefix of its entries
	next  []int32 // per bucket: the linked bucket, 0 = none (bucket 0 is a root)
	// cells holds the values, one cell per stored entry; an entry's cell
	// travels with it when Delete compacts. A cell is only ever pointed at an
	// immutable slice, never written through: slices handed out by Lookup
	// outlive the call.
	cells cell.Table
	count int
}

// New creates a table with roots root buckets (rounded to a power of two)
// of b entries each.
func New(roots, b int) *Table {
	if b <= 0 {
		panic("chained: non-positive bucket size")
	}
	n := 1
	for n < roots {
		n <<= 1
	}
	return &Table{
		b:     b,
		mask:  uint64(n - 1),
		roots: make([]entry, n*b),
		used:  make([]int32, n),
		next:  make([]int32, n),
	}
}

// Clone returns a copy of t with the same buckets and chains, as if the same
// operations had been applied to a fresh table. The copy owns its root,
// link, used, next and cell storage, and shares the value slices: values
// are never written once stored (DESIGN.md §16).
func (t *Table) Clone() *Table {
	c := *t
	c.roots = slices.Clone(t.roots)
	c.links = slices.Clone(t.links)
	c.used = slices.Clone(t.used)
	c.next = slices.Clone(t.next)
	c.cells = t.cells.Clone()
	return &c
}

// B returns the bucket size.
func (t *Table) B() int { return t.b }

// Len reports stored keys; Roots the number of root buckets.
func (t *Table) Len() int   { return t.count }
func (t *Table) Roots() int { return int(t.mask) + 1 }

func (t *Table) rootOf(key uint64) int { return int(robinhood.Hash(key) & t.mask) }

// slots returns bucket bi's b entry slots.
func (t *Table) slots(bi int) []entry {
	if n := t.Roots(); bi >= n {
		bi -= n
		return t.links[bi*t.b : (bi+1)*t.b]
	}
	return t.roots[bi*t.b : (bi+1)*t.b]
}

// bucket returns bucket bi's occupied entries.
func (t *Table) bucket(bi int) []entry { return t.slots(bi)[:t.used[bi]] }

// find returns the entry holding key, walking the chain from its root.
func (t *Table) find(key uint64) *entry {
	for bi := t.rootOf(key); ; {
		es := t.bucket(bi)
		for i := range es {
			if es[i].key == key {
				return &es[i]
			}
		}
		if bi = int(t.next[bi]); bi == 0 {
			return nil
		}
	}
}

// Insert adds or updates key. The table adopts value instead of copying it,
// its capacity clipped: the caller must never write it again.
func (t *Table) Insert(key uint64, value []byte, version uint64) {
	v := value[:len(value):len(value)]
	if e := t.find(key); e != nil {
		t.cells.Set(e.val, v)
		e.version = version
		return
	}
	bi := t.rootOf(key)
	for int(t.used[bi]) == t.b {
		if t.next[bi] == 0 {
			t.next[bi] = int32(len(t.used))
			t.links = append(t.links, make([]entry, t.b)...)
			t.used = append(t.used, 0)
			t.next = append(t.next, 0)
		}
		bi = int(t.next[bi])
	}
	e := &t.slots(bi)[t.used[bi]]
	*e = entry{key: key, version: version, val: t.cells.New()}
	t.cells.Set(e.val, v)
	t.used[bi]++
	t.count++
}

// LookupResult reports a lookup and its remote-access cost: B objects per
// bucket visited, one roundtrip per chain hop.
type LookupResult struct {
	Found       bool
	Value       []byte
	Version     uint64
	ObjectsRead int
	Roundtrips  int
}

// Lookup traverses the chain from the root bucket.
func (t *Table) Lookup(key uint64) LookupResult {
	var r LookupResult
	for bi := t.rootOf(key); ; {
		r.Roundtrips++
		r.ObjectsRead += t.b
		es := t.bucket(bi)
		for i := range es {
			if es[i].key == key {
				r.Found = true
				r.Value = t.cells.Get(es[i].val)
				r.Version = es[i].version
				return r
			}
		}
		if bi = int(t.next[bi]); bi == 0 {
			return r
		}
	}
}

// Delete removes key, compacting the chain tail into the hole.
func (t *Table) Delete(key uint64) bool {
	for bi := t.rootOf(key); ; {
		es := t.bucket(bi)
		for i := range es {
			if es[i].key != key {
				continue
			}
			// The value slice is dropped, never written.
			t.cells.Release(es[i].val)
			// Find the last entry in the chain and move it into the hole.
			last := bi
			for n := int(t.next[last]); n != 0 && t.used[n] > 0; n = int(t.next[last]) {
				last = n
			}
			tail := t.bucket(last)
			es[i] = tail[len(tail)-1]
			tail[len(tail)-1] = entry{}
			t.used[last]--
			t.count--
			return true
		}
		if bi = int(t.next[bi]); bi == 0 {
			return false
		}
	}
}

// ForEach visits every stored entry until fn returns false.
func (t *Table) ForEach(fn func(key uint64, version uint64, value []byte) bool) {
	for ri := 0; ri < t.Roots(); ri++ {
		for bi := ri; ; {
			for _, e := range t.bucket(bi) {
				if !fn(e.key, e.version, t.cells.Get(e.val)) {
					return
				}
			}
			if bi = int(t.next[bi]); bi == 0 {
				break
			}
		}
	}
}

// CheckInvariants verifies bucket occupancy bookkeeping, key placement and
// that every stored entry owns exactly one value cell.
func (t *Table) CheckInvariants() error {
	n, buckets := 0, 0
	cellUsed := make([]bool, t.cells.Len())
	for ri := 0; ri < t.Roots(); ri++ {
		for bi := ri; ; {
			buckets++
			if buckets > len(t.used) {
				return fmt.Errorf("root %d: chain revisits a bucket", ri)
			}
			if t.used[bi] < 0 || int(t.used[bi]) > t.b {
				return fmt.Errorf("bucket %d: used=%d", ri, t.used[bi])
			}
			for _, e := range t.bucket(bi) {
				if t.rootOf(e.key) != ri {
					return fmt.Errorf("key %d in root %d, hashes to %d", e.key, ri, t.rootOf(e.key))
				}
				c := int(e.val) - 1
				if c < 0 || c >= len(cellUsed) || cellUsed[c] {
					return fmt.Errorf("key %d: value cell %d missing, out of range or shared", e.key, c)
				}
				cellUsed[c] = true
				n++
			}
			if bi = int(t.next[bi]); bi == 0 {
				break
			}
		}
	}
	if buckets != len(t.used) {
		return fmt.Errorf("%d buckets reachable from the roots, %d allocated", buckets, len(t.used))
	}
	if live := t.cells.Live(); live != n {
		return fmt.Errorf("%d live value cells != %d stored entries", live, n)
	}
	if n != t.count {
		return fmt.Errorf("count %d != resident %d", t.count, n)
	}
	return nil
}
