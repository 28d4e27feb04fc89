package txnmodel

import (
	"slices"
	"testing"

	"xenic/internal/wire"
)

func TestTxnDescReadOnly(t *testing.T) {
	if (&TxnDesc{ReadKeys: []uint64{1}, UpdateKeys: []uint64{3}}).ReadOnly() {
		t.Fatal("update transaction reported read-only")
	}
	if (&TxnDesc{BlindWrites: []wire.KV{{Key: 4}}}).ReadOnly() {
		t.Fatal("blind-write transaction reported read-only")
	}
	if !(&TxnDesc{ReadKeys: []uint64{1}}).ReadOnly() {
		t.Fatal("read transaction not read-only")
	}
}

// TestTxnDescKeyOrder pins the key order every system derives its
// execution-input order and lock order from: ReadKeys, then UpdateKeys, then
// the BlindWrites keys, duplicates kept.
func TestTxnDescKeyOrder(t *testing.T) {
	kv := func(keys ...uint64) []wire.KV {
		var out []wire.KV
		for _, k := range keys {
			out = append(out, wire.KV{Key: k, Value: []byte("v")})
		}
		return out
	}
	cases := []struct {
		name        string
		d           TxnDesc
		writes, all []uint64
	}{
		{"empty", TxnDesc{}, nil, nil},
		{"reads only", TxnDesc{ReadKeys: []uint64{9, 8}}, nil, []uint64{9, 8}},
		{"updates only", TxnDesc{UpdateKeys: []uint64{3, 1}}, []uint64{3, 1}, []uint64{3, 1}},
		{"blind only", TxnDesc{BlindWrites: kv(7, 2)}, []uint64{7, 2}, []uint64{7, 2}},
		{"updates then blind",
			TxnDesc{ReadKeys: []uint64{1, 2}, UpdateKeys: []uint64{3}, BlindWrites: kv(4, 5)},
			[]uint64{3, 4, 5}, []uint64{1, 2, 3, 4, 5}},
		{"duplicates kept",
			TxnDesc{ReadKeys: []uint64{5, 5}, UpdateKeys: []uint64{5, 6}, BlindWrites: kv(6, 5)},
			[]uint64{5, 6, 6, 5}, []uint64{5, 5, 5, 6, 6, 5}},
	}
	for _, tc := range cases {
		d := &tc.d
		var writes, all []uint64
		for i := 0; i < d.NumWriteKeys(); i++ {
			writes = append(writes, d.WriteKey(i))
		}
		for i := 0; i < d.NumKeys(); i++ {
			all = append(all, d.Key(i))
		}
		if !slices.Equal(writes, tc.writes) {
			t.Errorf("%s: write keys %v, want %v", tc.name, writes, tc.writes)
		}
		if !slices.Equal(all, tc.all) {
			t.Errorf("%s: keys %v, want %v", tc.name, all, tc.all)
		}
		prefix := []uint64{42}
		if got := d.AppendWriteKeys(prefix); !slices.Equal(got, append([]uint64{42}, tc.writes...)) {
			t.Errorf("%s: AppendWriteKeys = %v", tc.name, got)
		}
	}
	d := &TxnDesc{UpdateKeys: []uint64{1, 2}, BlindWrites: kv(3)}
	buf := make([]uint64, 0, 8)
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < d.NumKeys(); i++ {
			_ = d.Key(i)
		}
		buf = d.AppendWriteKeys(buf[:0])
	}); n != 0 {
		t.Errorf("key accessors allocate %v per run", n)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	fn := &ExecFunc{ID: 7, Run: func(state []byte, reads []wire.KV, rows *Rows) ExecResult {
		return ExecResult{}
	}}
	r.Register(fn)
	got, ok := r.Get(7)
	if !ok || got != fn {
		t.Fatal("registered function not found")
	}
	if _, ok := r.Get(8); ok {
		t.Fatal("unknown id found")
	}
}

func TestRegistryRejectsReservedID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("id 0 accepted")
		}
	}()
	NewRegistry().Register(&ExecFunc{ID: 0})
}

func TestRegistryRejectsDuplicate(t *testing.T) {
	r := NewRegistry()
	r.Register(&ExecFunc{ID: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate id accepted")
		}
	}()
	r.Register(&ExecFunc{ID: 1})
}
