package cell

import (
	"fmt"
	"testing"
)

func val(c uint32) []byte { return []byte(fmt.Sprint("v", c)) }

// TestNumbersCrossPages hands out cells past two page boundaries and reads
// every one back, the cells either side of each boundary included.
func TestNumbersCrossPages(t *testing.T) {
	var tb Table
	const n = 2*pageCells + 5
	for want := uint32(1); want <= n; want++ {
		if c := tb.New(); c != want {
			t.Fatalf("New = %d, want %d", c, want)
		}
		if got := tb.Get(want); got != nil {
			t.Fatalf("new cell %d holds %q", want, got)
		}
		tb.Set(want, val(want))
	}
	if len(tb.pages) != 3 {
		t.Fatalf("%d cells on %d pages, want 3", n, len(tb.pages))
	}
	for _, c := range []uint32{1, pageCells - 1, pageCells, pageCells + 1, 2*pageCells - 1, 2 * pageCells, n} {
		if got := string(tb.Get(c)); got != string(val(c)) {
			t.Fatalf("cell %d = %q, want %q", c, got, val(c))
		}
	}
	for c := uint32(1); c <= n; c++ {
		if got := string(tb.Get(c)); got != string(val(c)) {
			t.Fatalf("cell %d = %q", c, got)
		}
	}
	if tb.Len() != n || tb.Live() != n {
		t.Fatalf("Len %d Live %d, want %d", tb.Len(), tb.Live(), n)
	}
}

// TestReleaseReusesLIFO pins the free list: released numbers come back last
// released first, empty, and only then does numbering continue.
func TestReleaseReusesLIFO(t *testing.T) {
	var tb Table
	for c := uint32(1); c <= pageCells+1; c++ {
		tb.Set(tb.New(), val(c))
	}
	released := []uint32{pageCells - 1, pageCells + 1, 3, pageCells}
	for i, c := range released {
		tb.Release(c)
		if got := tb.Get(c); got != nil {
			t.Fatalf("released cell %d still holds %q", c, got)
		}
		if tb.Len() != pageCells+1 || tb.Live() != pageCells+1-(i+1) {
			t.Fatalf("after %d releases: Len %d Live %d", i+1, tb.Len(), tb.Live())
		}
	}
	for i := len(released) - 1; i >= 0; i-- {
		if c := tb.New(); c != released[i] {
			t.Fatalf("New = %d, want %d (last released first)", c, released[i])
		}
	}
	if c := tb.New(); c != pageCells+2 {
		t.Fatalf("New after the free list emptied = %d, want %d", c, pageCells+2)
	}
	if tb.Len() != pageCells+2 || tb.Live() != pageCells+2 {
		t.Fatalf("Len %d Live %d, want %d", tb.Len(), tb.Live(), pageCells+2)
	}
}

// TestCloneIndependent pins Clone: the copy has the original's numbering,
// free list and values, and New, Set and Release on either table leave the
// other unchanged.
func TestCloneIndependent(t *testing.T) {
	var tb Table
	for c := uint32(1); c <= pageCells+10; c++ {
		tb.Set(tb.New(), val(c))
	}
	tb.Release(7)
	tb.Release(pageCells + 3)

	cl := tb.Clone()
	if cl.Len() != tb.Len() || cl.Live() != tb.Live() {
		t.Fatalf("clone Len %d Live %d, original %d %d", cl.Len(), cl.Live(), tb.Len(), tb.Live())
	}
	for c := uint32(1); c <= uint32(tb.Len()); c++ {
		if string(cl.Get(c)) != string(tb.Get(c)) {
			t.Fatalf("cell %d: clone %q, original %q", c, cl.Get(c), tb.Get(c))
		}
	}

	// The clone reuses the same numbers in the same order, then grows onto
	// a page of its own.
	if c := cl.New(); c != pageCells+3 {
		t.Fatalf("clone New = %d, want %d", c, pageCells+3)
	}
	if c := cl.New(); c != 7 {
		t.Fatalf("clone New = %d, want 7", c)
	}
	cl.Set(7, []byte("clone"))
	cl.Set(1, []byte("clone"))
	cl.Release(pageCells)
	for i := 0; i < pageCells; i++ {
		cl.Set(cl.New(), []byte("grown"))
	}

	if tb.Get(7) != nil || tb.Get(pageCells+3) != nil || string(tb.Get(1)) != "v1" || string(tb.Get(pageCells)) != string(val(pageCells)) {
		t.Fatal("writes into the clone reached the original")
	}
	if tb.Len() != pageCells+10 || tb.Live() != pageCells+8 || len(tb.pages) != 2 {
		t.Fatalf("original Len %d Live %d pages %d after clone writes", tb.Len(), tb.Live(), len(tb.pages))
	}
	for _, want := range []uint32{pageCells + 3, 7, pageCells + 11} {
		if c := tb.New(); c != want {
			t.Fatalf("original New = %d, want %d: its free list changed", c, want)
		}
	}
	tb.Set(2, []byte("original"))
	if string(cl.Get(2)) != "v2" {
		t.Fatal("a write into the original reached the clone")
	}
}
