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
package cell

// Table holds values in numbered cells. Numbers start at 1, so a record can
// use 0 for "no cell"; released numbers are reused LIFO.
type Table struct {
	vals [][]byte
	free []uint32
}

// New returns the number of an unused cell, holding nil.
func (t *Table) New() uint32 {
	if n := len(t.free); n > 0 {
		c := t.free[n-1]
		t.free = t.free[:n-1]
		return c
	}
	t.vals = append(t.vals, nil)
	return uint32(len(t.vals))
}

// Get returns cell c's value.
func (t *Table) Get(c uint32) []byte { return t.vals[c-1] }

// Set points cell c at v.
func (t *Table) Set(c uint32, v []byte) { t.vals[c-1] = v }

// Release gives up cell c, dropping its slice.
func (t *Table) Release(c uint32) {
	t.vals[c-1] = nil
	t.free = append(t.free, c)
}

// Len reports the highest cell number handed out so far: every cell in use
// is in [1, Len()].
func (t *Table) Len() int { return len(t.vals) }

// Live reports the number of cells in use.
func (t *Table) Live() int { return len(t.vals) - len(t.free) }
