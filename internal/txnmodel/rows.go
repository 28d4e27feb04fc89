package txnmodel

import "xenic/internal/wire"

// Rows lends an execution function the buffers it builds its write values
// in, the way the paper keeps per-transaction state in preallocated memory
// (§4.3). A row the caller releases — one that no log record, replica or
// message ever saw — comes back from a later Row of the same size instead
// of a fresh allocation. Rows are reused one by one, never carved out of a
// shared chunk, so a row a store adopts pins nothing but itself.
//
// A nil *Rows allocates every row and every Writes slice: the callers whose
// write sets are kept (by OCC.Prepare) or sent pass nil. A Rows belongs to
// one caller's state and is not safe for concurrent use.
type Rows struct {
	classes []rowClass // released rows by size; a workload has a handful
	writes  []wire.KV  // scratch behind Writes
}

// rowClass is the free list of released rows of one size.
type rowClass struct {
	size int
	free [][]byte
}

// Row returns an n-byte row: a released one of exactly that size if there
// is one, else a fresh one. A reused row holds the bytes of the attempt
// that released it, so the function writes every byte of it.
func (r *Rows) Row(n int) []byte {
	if r != nil {
		for i := range r.classes {
			c := &r.classes[i]
			if c.size != n {
				continue
			}
			if last := len(c.free) - 1; last >= 0 {
				v := c.free[last]
				c.free[last] = nil
				c.free = c.free[:last]
				return v
			}
			break
		}
	}
	return make([]byte, n)
}

// Writes returns an n-entry slice of zero KVs for ExecResult.Writes. With a
// non-nil Rows it is scratch, valid until the next call, so its caller
// copies the entries out before it runs the function again.
func (r *Rows) Writes(n int) []wire.KV {
	if r == nil {
		return make([]wire.KV, n)
	}
	if cap(r.writes) < n {
		r.writes = make([]wire.KV, n)
	}
	w := r.writes[:n]
	clear(w)
	return w
}

// Release returns a row to the free list. Only a row Row handed out, and
// that nothing else holds, may be released; releasing it twice hands it to
// two writers.
func (r *Rows) Release(v []byte) {
	if r == nil || len(v) == 0 {
		return
	}
	for i := range r.classes {
		if c := &r.classes[i]; c.size == len(v) {
			c.free = append(c.free, v)
			return
		}
	}
	r.classes = append(r.classes, rowClass{size: len(v), free: [][]byte{v}})
}

// EachFree calls fn with every row on the free list.
func (r *Rows) EachFree(fn func(row []byte)) {
	if r == nil {
		return
	}
	for _, c := range r.classes {
		for _, v := range c.free {
			fn(v)
		}
	}
}
