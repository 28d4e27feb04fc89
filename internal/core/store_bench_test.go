package core

import (
	"encoding/binary"
	"testing"

	"xenic/internal/raceflag"
	"xenic/internal/wire"
)

// applyOp returns one op of the committed-write install on a single key.
// With chain set, the key's version chain is first filled to its retention
// cap, so every op displaces the row into the chain history and drops the
// tail entry (ApplyTS); without it, ops take the plain MVCC-off Apply.
//
// The store adopts the value it installs, so no op may write a value an
// earlier op handed over: the values are built up front, each written once,
// and ops cycle through them.
func applyOp(chain bool) func() {
	g := &kvGen{keys: 16}
	sd := newShardData(g.Spec(), modPlace{nodes: 1})
	const keep = 8
	vals := make([][]byte, 1024)
	for i := range vals {
		vals[i] = make([]byte, 8)
		binary.LittleEndian.PutUint64(vals[i], uint64(i))
	}
	v := uint64(0)
	op := func() {
		v++
		kv := wire.KV{Key: 1, Value: vals[v%uint64(len(vals))], Version: v}
		if chain {
			sd.ApplyTS(kv, v, keep, 1)
		} else {
			sd.Apply(kv)
		}
	}
	for i := 0; i <= keep; i++ {
		op()
	}
	return op
}

// BenchmarkMVCCApplyTS measures the update hot path with a version chain
// held at its retention cap.
func BenchmarkMVCCApplyTS(b *testing.B) {
	op := applyOp(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestMVCCApplyTSAllocsWithinApply is the exact gate on the chain hold: it
// must add no allocation to the plain apply path (the store adopts the
// installed value, so a warmed plain apply allocates nothing; the chain
// packs displaced values into a per-key buffer).
func TestMVCCApplyTSAllocsWithinApply(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	plain := testing.AllocsPerRun(1000, applyOp(false))
	chained := testing.AllocsPerRun(1000, applyOp(true))
	if chained > plain {
		t.Fatalf("version-chain hold allocates: ApplyTS %v objects per op, Apply %v", chained, plain)
	}
}
