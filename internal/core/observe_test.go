package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"xenic/internal/metrics"
	"xenic/internal/sim"
	"xenic/internal/trace"
)

// tracedRun runs the high-contention counter workload with a tracer and a
// stats registry attached and returns the serialized trace plus the
// registry snapshot. Hot keys guarantee both commits and aborts appear.
func tracedRun(t *testing.T) ([]byte, map[string]any) {
	t.Helper()
	g := &kvGen{keys: 12, keysPer: 2, readFrac: 0, nicExec: true}
	tr := trace.New()
	reg := metrics.NewRegistry()
	cl, err := New(testConfig(4, AllFeatures()), g, Observers{Tracer: tr, Stats: reg})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(3 * sim.Millisecond)
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatal("cluster did not quiesce")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), reg.Snapshot()
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   *float64       `json:"ts"`
	Pid  int            `json:"pid"`
	ID   string         `json:"id"`
	Args map[string]any `json:"args"`
}

func TestClusterTraceWellFormed(t *testing.T) {
	raw, _ := tracedRun(t)
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	last := -1.0
	phases := map[string]int{}
	spans := map[string]int{} // open txn spans by id
	var commits, aborts, frames, locks int
	for i, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		// Engine callbacks run in time order, so the whole file must be
		// globally non-decreasing — the property Perfetto relies on.
		if e.TS == nil {
			t.Fatalf("event %d (%s): missing ts", i, e.Name)
		}
		if *e.TS < last {
			t.Fatalf("event %d (%s): ts %v < previous %v — trace not monotonic", i, e.Name, *e.TS, last)
		}
		last = *e.TS
		switch {
		case e.Cat == "phase" && e.Ph == "b":
			phases[e.Name]++
		case e.Cat == "txn" && e.Name == "txn" && e.Ph == "b":
			spans[e.ID]++
		case e.Cat == "txn" && e.Name == "txn" && e.Ph == "e":
			spans[e.ID]--
			st, _ := e.Args["status"].(string)
			if st == "ok" {
				commits++
			}
		case e.Cat == "txn" && e.Name == "abort":
			aborts++
			if _, ok := e.Args["reason"].(string); !ok {
				t.Fatalf("abort instant without reason: %+v", e)
			}
		case e.Cat == "net":
			frames++
		case e.Cat == "lock":
			locks++
		}
	}
	for _, name := range []string{"execute", "validate", "commit"} {
		if phases[name] == 0 {
			t.Errorf("no %q phase spans in trace", name)
		}
	}
	if commits == 0 {
		t.Error("no committed transaction spans")
	}
	if aborts == 0 {
		t.Error("no abort instants despite hot-key contention")
	}
	if frames == 0 || locks == 0 {
		t.Errorf("missing hop/lock events: frames=%d locks=%d", frames, locks)
	}
	// After drain every transaction span must be balanced.
	for id, open := range spans {
		if open != 0 {
			t.Errorf("txn span %s left %+d unbalanced begin/end events", id, open)
		}
	}
}

func TestClusterTraceDeterministic(t *testing.T) {
	a, _ := tracedRun(t)
	b, _ := tracedRun(t)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different trace bytes")
	}
}

func TestClusterStatsSnapshot(t *testing.T) {
	_, snap := tracedRun(t)
	for _, key := range []string{
		"cluster.txn",
		"cluster.aborts_by_reason",
		"cluster.latency",
		"cluster.phase.execute",
		"node0.txn",
		"node0.latency",
		"node0.phase.commit",
		"node0.nicindex",
		"node0.nic.frames",
		"node0.nic.batch_msgs_per_frame",
		"node0.nic.pcie",
	} {
		if _, ok := snap[key]; !ok {
			t.Errorf("snapshot missing %q", key)
		}
	}
	txn := snap["cluster.txn"].(map[string]any)
	if txn["committed"].(int64) == 0 {
		t.Error("no committed transactions in stats")
	}
	if txn["aborts"].(int64) == 0 {
		t.Error("no aborts in stats despite contention")
	}
	reasons := snap["cluster.aborts_by_reason"].(map[string]int64)
	if len(reasons) == 0 {
		t.Error("abort reason breakdown empty")
	}
	var total int64
	for _, v := range reasons {
		total += v
	}
	if total != txn["aborts"].(int64) {
		t.Errorf("abort reasons sum %d != aborts %d", total, txn["aborts"])
	}
	frames := snap["node0.nic.frames"].(map[string]any)
	if frames["tx_frames"].(int64) == 0 {
		t.Error("NIC transmitted no frames")
	}
	pcie := snap["node0.nic.pcie"].(map[string]any)
	if pcie["bytes"].(int64) == 0 {
		t.Error("no PCIe bytes counted")
	}
	// The snapshot must render as one valid JSON document.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}
