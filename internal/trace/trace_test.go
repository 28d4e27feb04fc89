package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"xenic/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// jsonEvent mirrors the wire shape of one emitted trace event.
type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   *float64       `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

type jsonDoc struct {
	DisplayTimeUnit string      `json:"displayTimeUnit"`
	TraceEvents     []jsonEvent `json:"traceEvents"`
}

// buildSample emits the event shapes core produces: a two-node committed
// transaction and an aborted one, then one telemetry counter sample.
func buildSample() *Tracer {
	tr := New()
	tr.MetaProcess(0, "node0")
	tr.MetaThread(0, 0, "nic-core0")
	tr.MetaProcess(1, "node1")
	tr.MetaThread(1, 0, "nic-core0")

	us := func(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }
	// Txn 0x10: coordinated by node 0, one remote hop to node 1, commits.
	tr.BeginAsync("txn", "txn", 0x10, 0, us(1), nil)
	tr.BeginAsync("phase", "execute", 0x10, 0, us(1), nil)
	tr.Instant("net", "frame-tx", 0, 0, us(2), Args{"dst": 1, "bytes": 128, "msgs": 1})
	tr.Instant("net", "frame-rx", 1, 0, us(3), Args{"src": 0, "bytes": 128, "msgs": 1})
	tr.Instant("lock", "lock", 1, 0, us(3), Args{"key": uint64(7), "shard": 1, "txn": uint64(0x10)})
	tr.EndAsync("phase", "execute", 0x10, 0, us(4), nil)
	tr.BeginAsync("phase", "validate", 0x10, 0, us(4), nil)
	tr.EndAsync("phase", "validate", 0x10, 0, us(5), nil)
	tr.BeginAsync("phase", "commit", 0x10, 0, us(5), nil)
	tr.Instant("lock", "unlock", 1, 0, us(6), Args{"key": uint64(7), "shard": 1, "txn": uint64(0x10)})
	tr.EndAsync("phase", "commit", 0x10, 0, us(6), nil)
	tr.EndAsync("txn", "txn", 0x10, 0, us(6), Args{"status": "ok"})
	// Txn 0x11: lock conflict at node 1, aborts.
	tr.BeginAsync("txn", "txn", 0x11, 1, us(7), nil)
	tr.BeginAsync("phase", "execute", 0x11, 1, us(7), nil)
	tr.Instant("lock", "lock-fail", 1, 0, us(8), Args{"key": uint64(7), "shard": 1, "txn": uint64(0x11)})
	tr.Instant("txn", "abort", 1, 0, us(8), Args{"reason": "abort-locked", "txn": uint64(0x11)})
	tr.EndAsync("phase", "execute", 0x11, 1, us(8), nil)
	tr.EndAsync("txn", "txn", 0x11, 1, us(8), Args{"status": "abort-locked"})
	tr.Counter("nic.occupancy", 0, us(10), 0.25)
	return tr
}

func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildSample().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sample.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace output differs from %s (run with -update to regenerate)\ngot:\n%s", golden, buf.String())
	}

	var doc jsonDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// Metadata first (ph "M", no ts), then events with non-decreasing ts.
	inMeta := true
	last := -1.0
	for i, e := range doc.TraceEvents {
		if e.Ph == "M" {
			if !inMeta {
				t.Fatalf("event %d: metadata after non-metadata", i)
			}
			if e.TS != nil {
				t.Fatalf("event %d: metadata has ts", i)
			}
			continue
		}
		inMeta = false
		if e.TS == nil {
			t.Fatalf("event %d (%s): missing ts", i, e.Name)
		}
		if *e.TS < last {
			t.Fatalf("event %d (%s): ts %v < previous %v", i, e.Name, *e.TS, last)
		}
		last = *e.TS
		switch e.Ph {
		case "b", "e":
			if e.ID == "" {
				t.Fatalf("event %d (%s): async event without id", i, e.Name)
			}
		case "i":
			if e.S != "t" {
				t.Fatalf("event %d (%s): instant scope = %q", i, e.Name, e.S)
			}
		case "C":
			if _, ok := e.Args["value"].(float64); !ok {
				t.Fatalf("event %d (%s): counter without a numeric value", i, e.Name)
			}
		}
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildSample().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildSample().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical traces serialized differently")
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// Every method must be a safe no-op on a nil receiver.
	tr.MetaProcess(0, "x")
	tr.MetaThread(0, 0, "x")
	tr.BeginAsync("c", "n", 1, 0, 0, nil)
	tr.EndAsync("c", "n", 1, 0, 0, nil)
	tr.Instant("c", "n", 0, 0, 0, nil)
	tr.Counter("n", 0, 0, 1)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded events")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc jsonDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer output not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("nil tracer emitted %d events", len(doc.TraceEvents))
	}
}
