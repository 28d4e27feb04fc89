package metrics

import (
	"encoding/json"
	"strings"
	"testing"

	"xenic/internal/sim"
)

func TestHistogramMergeMinMaxPropagation(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(10 * sim.Microsecond)
	a.Record(20 * sim.Microsecond)
	b.Record(2 * sim.Microsecond)
	b.Record(50 * sim.Microsecond)
	a.Merge(b)
	if a.Min() != 2*sim.Microsecond {
		t.Fatalf("merged min = %v, want 2us", a.Min())
	}
	if a.Max() != 50*sim.Microsecond {
		t.Fatalf("merged max = %v, want 50us", a.Max())
	}
	if a.Count() != 4 {
		t.Fatalf("merged count = %d", a.Count())
	}

	// Merging into an empty histogram adopts the source's extremes.
	c := NewHistogram()
	c.Merge(b)
	if c.Min() != 2*sim.Microsecond || c.Max() != 50*sim.Microsecond {
		t.Fatalf("empty-merge min/max = %v/%v", c.Min(), c.Max())
	}

	// Merging an empty histogram must not drag min to zero.
	a.Merge(NewHistogram())
	if a.Min() != 2*sim.Microsecond || a.Count() != 4 {
		t.Fatalf("after merging empty: min=%v count=%d", a.Min(), a.Count())
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
}

func TestIntHist(t *testing.T) {
	var h IntHist
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty IntHist not all-zero")
	}
	h.Record(3)
	h.Record(3)
	h.Record(1)
	h.Record(200) // overflow bucket
	h.Record(-5)  // clamps to 0
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 || h.Max() != 200 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	snap := h.Snapshot()
	buckets := snap["buckets"].(map[string]int64)
	if buckets["3"] != 2 || buckets["1"] != 1 || buckets["0"] != 1 || buckets["64+"] != 1 {
		t.Fatalf("buckets = %v", buckets)
	}
	if len(buckets) != 4 {
		t.Fatalf("expected only non-empty buckets, got %v", buckets)
	}
}

func TestRegistryScopesAndSnapshot(t *testing.T) {
	r := NewRegistry()
	sub := r.Sub("node0").Sub("nic")
	c := sub.Counter("tx_frames")
	c.Inc()
	c.Add(2)
	r.Gauge("cluster.load", func() float64 { return 0.5 })
	h := r.Sub("node0").Histogram("latency")
	h.Record(10 * sim.Microsecond)

	snap := r.Snapshot()
	if got := snap["node0.nic.tx_frames"]; got != int64(3) {
		t.Fatalf("counter snapshot = %v", got)
	}
	if got := snap["cluster.load"]; got != 0.5 {
		t.Fatalf("gauge snapshot = %v", got)
	}
	lat, ok := snap["node0.latency"].(map[string]any)
	if !ok || lat["count"] != int64(1) {
		t.Fatalf("histogram snapshot = %v", snap["node0.latency"])
	}

	names := r.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}

	// Re-registering a name replaces the sampler without duplicating it.
	r.RegisterFunc("cluster.load", func() any { return "replaced" })
	if got := r.Snapshot()["cluster.load"]; got != "replaced" {
		t.Fatalf("re-registered value = %v", got)
	}
	if len(r.Names()) != len(names) {
		t.Fatalf("re-registration grew names: %v", r.Names())
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	sub := r.Sub("node0")
	if sub != nil {
		t.Fatal("Sub on nil registry should stay nil")
	}
	c := sub.Counter("x") // must not panic, counter still usable
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("counter on nil registry = %d", c.Value())
	}
	sub.Gauge("g", func() float64 { return 1 })
	h := sub.Histogram("h")
	h.Record(1 * sim.Microsecond)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("nil snapshot = %v", got)
	}
	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "{\n}\n" {
		t.Fatalf("nil WriteJSON = %q", buf.String())
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(7)
	r.Gauge("a.val", func() float64 { return 1.5 })

	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var parsed map[string]any
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("WriteJSON output not valid JSON: %v\n%s", err, out)
	}
	if parsed["a.val"] != 1.5 || parsed["b.count"] != 7.0 {
		t.Fatalf("parsed = %v", parsed)
	}
	// Keys render in sorted order, one entry per line.
	if strings.Index(out, `"a.val"`) > strings.Index(out, `"b.count"`) {
		t.Fatalf("keys not sorted:\n%s", out)
	}
}
