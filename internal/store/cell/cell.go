// Package cell is the value side table of the stores' pointer-free records.
// A record that has a value names one numbered cell instead of holding a
// slice header, so the record array stays pointer-free — allocated noscan and
// never walked by the garbage collector — and only the cells, one per value,
// carry pointers.
//
// A released cell's slice is dropped, never kept for the next owner: slices
// the stores hand out (lookup results, in-flight DMA responses, snapshot
// reads) outlive the call, so a buffer must never pass from one key to
// another. Whether a cell's own key may overwrite its buffer in place is the
// owning store's rule (DESIGN.md §4).
//
// Cells live in fixed pages of pageCells, cell c at pages[c>>pageShift]
// [c&pageMask], so the table grows by adding a page and never copies the
// cells it already holds. Cell 0 is the unused first entry of page 0.
package cell

import "slices"

const (
	pageShift = 12
	pageCells = 1 << pageShift
	pageMask  = pageCells - 1
)

type page [pageCells][]byte

// Table holds values in numbered cells. Numbers start at 1, so a record can
// use 0 for "no cell"; released numbers are reused LIFO.
type Table struct {
	pages []*page
	n     uint32 // highest number handed out
	free  []uint32
}

// New returns the number of an unused cell, holding nil.
func (t *Table) New() uint32 {
	if n := len(t.free); n > 0 {
		c := t.free[n-1]
		t.free = t.free[:n-1]
		return c
	}
	t.n++
	if int(t.n>>pageShift) == len(t.pages) {
		t.pages = append(t.pages, new(page))
	}
	return t.n
}

// Get returns cell c's value.
func (t *Table) Get(c uint32) []byte { return t.pages[c>>pageShift][c&pageMask] }

// Set points cell c at v.
func (t *Table) Set(c uint32, v []byte) { t.pages[c>>pageShift][c&pageMask] = v }

// Release gives up cell c, dropping its slice.
func (t *Table) Release(c uint32) {
	t.Set(c, nil)
	t.free = append(t.free, c)
}

// Len reports the highest cell number handed out so far: every cell in use
// is in [1, Len()].
func (t *Table) Len() int { return int(t.n) }

// Live reports the number of cells in use.
func (t *Table) Live() int { return int(t.n) - len(t.free) }

// Clone returns a table with the same numbering and free list whose cells
// point at the same value slices: the copy owns its pages, so a later Set,
// New or Release on either table leaves the other unchanged.
func (t *Table) Clone() Table {
	c := Table{pages: make([]*page, len(t.pages)), n: t.n, free: slices.Clone(t.free)}
	for i, p := range t.pages {
		q := *p
		c.pages[i] = &q
	}
	return c
}
