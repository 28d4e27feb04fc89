package wire

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

func randBytes(rng *rand.Rand, n int) []byte {
	if n == 0 {
		return nil // decoder yields nil for empty payloads
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func randKeys(rng *rand.Rand) []uint64 {
	ks := make([]uint64, rng.Intn(6))
	for i := range ks {
		ks[i] = rng.Uint64()
	}
	return ks
}

func randKVs(rng *rand.Rand) []KV {
	kvs := make([]KV, rng.Intn(5))
	for i := range kvs {
		kvs[i] = KV{Key: rng.Uint64(), Version: rng.Uint64(), Value: randBytes(rng, rng.Intn(80))}
	}
	return kvs
}

func randKeyVers(rng *rand.Rand) []KeyVer {
	kvs := make([]KeyVer, rng.Intn(5))
	for i := range kvs {
		kvs[i] = KeyVer{Key: rng.Uint64(), Version: rng.Uint64()}
	}
	return kvs
}

func randHeader(rng *rand.Rand) Header {
	return Header{TxnID: rng.Uint64(), Src: uint8(rng.Intn(6))}
}

// allMessages generates one random instance of every message type.
func allMessages(rng *rand.Rand) []Msg {
	return []Msg{
		&TxnRequest{Header: randHeader(rng), FnID: uint16(rng.Intn(100)),
			ReadKeys: randKeys(rng), WriteSet: randKVs(rng), WriteKeys: randKeys(rng),
			ExecState: randBytes(rng, rng.Intn(40)), Flags: uint8(rng.Intn(4)),
			LocalReadVers: randKeyVers(rng)},
		&ReadReturn{Header: randHeader(rng), Items: randKVs(rng)},
		&WriteSet{Header: randHeader(rng), Writes: randKVs(rng), MoreReads: randKeys(rng)},
		&TxnDone{Header: randHeader(rng), Status: Status(rng.Intn(4)), ReadSet: randKVs(rng)},
		&LogApplyAck{Header: randHeader(rng), Seq: rng.Uint64()},
		&Execute{Header: randHeader(rng), ReadKeys: randKeys(rng), LockKeys: randKeys(rng),
			LockOnly: rng.Intn(2) == 0, LockVers: randKeyVers(rng)},
		&ExecuteResp{Header: randHeader(rng), Status: Status(rng.Intn(4)),
			Items: randKVs(rng), Locked: randKeys(rng)},
		&Validate{Header: randHeader(rng), Items: randKeyVers(rng)},
		&ValidateResp{Header: randHeader(rng), Status: Status(rng.Intn(4))},
		&Log{Header: randHeader(rng), RespondTo: uint8(rng.Intn(6)), Writes: randKVs(rng)},
		&LogResp{Header: randHeader(rng), Status: Status(rng.Intn(4))},
		&Commit{Header: randHeader(rng), Writes: randKVs(rng)},
		&CommitResp{Header: randHeader(rng), Status: Status(rng.Intn(4))},
		&Abort{Header: randHeader(rng), LockedKeys: randKeys(rng)},
		&ShipExec{Header: randHeader(rng), FnID: uint16(rng.Intn(9)), Coord: uint8(rng.Intn(6)),
			ReadKeys: randKeys(rng), WriteKeys: randKeys(rng), WriteSet: randKVs(rng),
			ExecState: randBytes(rng, rng.Intn(30)), LocalReads: randKVs(rng)},
		&ShipResult{Header: randHeader(rng), Status: Status(rng.Intn(4)),
			NumLogs: uint8(rng.Intn(3)), ReadSet: randKVs(rng), Writes: randKVs(rng)},
		&LogCommit{Header: randHeader(rng), Shard: uint8(rng.Intn(6))},
		&RecoveryQuery{Header: randHeader(rng), Shard: uint8(rng.Intn(6))},
		&RecoveryResp{Header: randHeader(rng), Shard: uint8(rng.Intn(6)),
			Has: rng.Intn(2) == 0, Writes: randKVs(rng)},
		&RecoveryDecide{Header: randHeader(rng), Shard: uint8(rng.Intn(6)),
			Commit: rng.Intn(2) == 0},
	}
}

// normalize maps empty slices to nil so reflect.DeepEqual treats an encoded
// empty list and a decoded nil list as equal.
func normalize(m Msg) Msg {
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Slice && f.Len() == 0 && !f.IsNil() {
			f.Set(reflect.Zero(f.Type()))
		}
	}
	return m
}

func TestRoundTripAllTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		for _, m := range allMessages(rng) {
			enc := m.Marshal(nil)
			if len(enc) != m.WireSize() {
				t.Fatalf("%v: WireSize()=%d but encoded %d bytes", m.Type(), m.WireSize(), len(enc))
			}
			dec, err := Unmarshal(enc)
			if err != nil {
				t.Fatalf("%v: %v", m.Type(), err)
			}
			if !reflect.DeepEqual(normalize(m), normalize(dec)) {
				t.Fatalf("%v round trip:\n in: %#v\nout: %#v", m.Type(), m, dec)
			}
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range allMessages(rng) {
		enc := m.Marshal(nil)
		// Truncations at every length must error, never panic.
		for cut := 0; cut < len(enc); cut++ {
			if _, err := Unmarshal(enc[:cut]); err == nil {
				t.Fatalf("%v: truncation to %d bytes decoded successfully", m.Type(), cut)
			}
		}
		// Trailing garbage must be rejected.
		if _, err := Unmarshal(append(append([]byte{}, enc...), 0xff)); err == nil {
			t.Fatalf("%v: trailing byte accepted", m.Type())
		}
	}
	if _, err := Unmarshal([]byte{200, 0, 0, 0, 0, 0, 0, 0, 0, 1}); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestTypeAndStatusStrings(t *testing.T) {
	if TExecute.String() != "execute" || TLog.String() != "log" {
		t.Fatalf("%v %v", TExecute, TLog)
	}
	if Type(200).String() == "" {
		t.Fatal("unknown type empty string")
	}
	if StatusOK.String() != "ok" || StatusAbortLocked.String() != "abort-locked" {
		t.Fatal("status strings")
	}
	if Status(99).String() == "" {
		t.Fatal("unknown status empty string")
	}
}

func TestWireSizeScalesWithPayload(t *testing.T) {
	small := &Commit{Writes: []KV{{Key: 1, Version: 1, Value: make([]byte, 12)}}}
	big := &Commit{Writes: []KV{{Key: 1, Version: 1, Value: make([]byte, 256)}}}
	if big.WireSize()-small.WireSize() != 244 {
		t.Fatalf("size delta %d, want 244", big.WireSize()-small.WireSize())
	}
	// Smallbank-scale sanity: a 12B-value commit message stays compact.
	if small.WireSize() > 48 {
		t.Fatalf("small commit is %dB", small.WireSize())
	}
}

// TestTxnRequestSize pins the request to 152 bytes: ExecWrites rides in
// Flags' padding, so every remote request keeps its allocation size class.
func TestTxnRequestSize(t *testing.T) {
	if n := unsafe.Sizeof(TxnRequest{}); n != 152 {
		t.Fatalf("TxnRequest is %d bytes, want 152", n)
	}
}

func TestMarshalAppends(t *testing.T) {
	m := &ValidateResp{Header: Header{TxnID: 7, Src: 2}, Status: StatusOK}
	prefix := []byte{1, 2, 3}
	out := m.Marshal(prefix)
	if len(out) != 3+m.WireSize() || out[0] != 1 {
		t.Fatalf("marshal did not append: %v", out)
	}
	dec, err := Unmarshal(out[3:])
	if err != nil || dec.(*ValidateResp).TxnID != 7 {
		t.Fatalf("decode appended: %v %v", dec, err)
	}
}

func BenchmarkMarshalExecute(b *testing.B) {
	m := &Execute{Header: Header{TxnID: 1, Src: 0},
		ReadKeys: []uint64{1, 2, 3, 4}, LockKeys: []uint64{5, 6}}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = m.Marshal(buf[:0])
	}
}
