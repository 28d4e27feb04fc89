package tpcc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"xenic/internal/txnmodel"
)

// TestExecRowsMatchFiller pins the rows built at execution time, which copy
// a fill template, to the pattern filler computes byte by byte: for every
// size and tag stockVal and moneyVal build, the row is filler's with the
// encoded head, in a fresh array the caller owns — or in the released row
// the caller's Rows lends, whatever bytes that row held.
func TestExecRowsMatchFiller(t *testing.T) {
	want := func(n int, tag byte, head ...uint64) []byte {
		v := filler(n, tag)
		for i, h := range head {
			binary.LittleEndian.PutUint64(v[8*i:], h)
		}
		return v
	}
	le32pair := func(lo, hi uint32) uint64 { return uint64(hi)<<32 | uint64(lo) }
	for _, tc := range []struct {
		name      string
		got, want []byte
		fill      []byte
	}{
		{"stock", stockVal(nil, 37, 1234), want(stockSize, 's', le32pair(37, 1234)), stockFill},
		{"stock row", stockRow, want(stockSize, 's', le32pair(50, 0)), stockFill},
		{"customer", moneyVal(nil, customerFill, 1<<40+7), want(customerSize, 'c', 1<<40+7), customerFill},
		{"customer row", customerRow, want(customerSize, 'c', 1000), customerFill},
		{"warehouse", moneyVal(nil, warehouseFill, 99), want(warehouseSize, 'w', 99), warehouseFill},
		{"warehouse row", warehouseRow, want(warehouseSize, 'w', 0), warehouseFill},
	} {
		if !bytes.Equal(tc.got, tc.want) {
			t.Errorf("%s: row differs from filler's pattern:\n got %v\nwant %v", tc.name, tc.got, tc.want)
		}
		if &tc.got[0] == &tc.fill[0] {
			t.Errorf("%s: row shares its template's array", tc.name)
		}
	}
	for _, tc := range []struct {
		name  string
		build func(rows *txnmodel.Rows) []byte
		want  []byte
	}{
		{"stock", func(r *txnmodel.Rows) []byte { return stockVal(r, 37, 1234) }, want(stockSize, 's', le32pair(37, 1234))},
		{"customer", func(r *txnmodel.Rows) []byte { return moneyVal(r, customerFill, 1<<40+7) }, want(customerSize, 'c', 1<<40+7)},
		{"warehouse", func(r *txnmodel.Rows) []byte { return moneyVal(r, warehouseFill, 99) }, want(warehouseSize, 'w', 99)},
	} {
		rows := &txnmodel.Rows{}
		poisoned := bytes.Repeat([]byte{0xFF}, len(tc.want))
		rows.Release(poisoned)
		got := tc.build(rows)
		if &got[0] != &poisoned[0] {
			t.Errorf("%s: built in a fresh array, not the released row", tc.name)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: reused row differs from filler's pattern:\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
	for _, tc := range []struct {
		fill []byte
		n    int
		tag  byte
	}{{stockFill, stockSize, 's'}, {customerFill, customerSize, 'c'}, {warehouseFill, warehouseSize, 'w'}} {
		if !bytes.Equal(tc.fill, filler(tc.n, tc.tag)) {
			t.Errorf("template %q: not filler(%d, %q)", tc.tag, tc.n, tc.tag)
		}
	}
}
