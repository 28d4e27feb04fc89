package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"xenic/internal/metrics"
	"xenic/internal/sim"
	"xenic/internal/trace"
)

func TestSamplerProbes(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(100 * sim.Microsecond)

	// A synthetic workload the probes observe: a counter incremented by a
	// periodic event, busy time accrued at 50% duty, and a histogram fed one
	// sample per tick.
	var count, hits, lookups int64
	var busy sim.Time
	depth := 3.0
	h := metrics.NewHistogram()
	eng.Ticker(10*sim.Microsecond, func() bool {
		count += 5
		busy += 5 * sim.Microsecond // 5µs busy per 10µs → 0.5 occupancy
		hits += 3
		lookups += 4
		h.Record(20 * sim.Microsecond)
		return eng.Now() < 2*sim.Millisecond
	})

	sub := s.Sub("node0")
	sub.Rate("txn.commit_rate", func() int64 { return count })
	sub.Gauge("nic.queue_depth", func() float64 { return depth })
	sub.Occupancy("nic.occupancy", func() sim.Time { return busy }, 1)
	sub.Ratio("nicindex.hit_rate", func() int64 { return hits }, func() int64 { return lookups })
	sub.Quantiles("latency", h)
	s.Attach(eng)
	eng.Run(1 * sim.Millisecond)

	set := s.Set()
	if len(set.TimesUs) != 10 {
		t.Fatalf("samples = %d, want 10", len(set.TimesUs))
	}
	get := func(name string) []float64 {
		for _, se := range set.Series {
			if se.Name == name {
				return se.Vals
			}
		}
		t.Fatalf("series %q missing (have %d)", name, len(set.Series))
		return nil
	}
	// 5 events per 10µs = 500k/s.
	if v := get("node0.txn.commit_rate")[5]; v < 499_000 || v > 501_000 {
		t.Fatalf("commit_rate = %v, want ~500k", v)
	}
	if v := get("node0.nic.queue_depth")[0]; v != 3 {
		t.Fatalf("queue_depth = %v", v)
	}
	if v := get("node0.nic.occupancy")[5]; v < 0.49 || v > 0.51 {
		t.Fatalf("occupancy = %v, want ~0.5", v)
	}
	if v := get("node0.nicindex.hit_rate")[5]; v != 0.75 {
		t.Fatalf("hit_rate = %v, want 0.75", v)
	}
	if v := get("node0.latency.p50_us")[5]; v < 18 || v > 22 {
		t.Fatalf("latency p50 = %v, want ~20", v)
	}
	// Series are sorted by name in the export.
	for i := 1; i < len(set.Series); i++ {
		if set.Series[i-1].Name >= set.Series[i].Name {
			t.Fatalf("series not sorted: %q before %q", set.Series[i-1].Name, set.Series[i].Name)
		}
	}
}

func TestSamplerStop(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(100 * sim.Microsecond)
	s.Gauge("g", func() float64 { return 1 })
	s.Attach(eng)
	eng.Run(500 * sim.Microsecond)
	s.Stop()
	eng.Run(2 * sim.Millisecond)
	if n := len(s.Set().TimesUs); n != 5 {
		t.Fatalf("samples after stop = %d, want 5", n)
	}
}

func TestNilSamplerSafe(t *testing.T) {
	var s *Sampler
	// Every method must be a no-op, including through Sub.
	s.Gauge("g", nil)
	s.Rate("r", nil)
	s.Occupancy("o", nil, 4)
	s.Ratio("x", nil, nil)
	s.Quantiles("q", nil)
	s.Window("w", nil)
	s.Sub("node0").Gauge("g", nil)
	s.Attach(nil)
	s.Stop()
	if s.Set() != nil || s.Interval() != 0 {
		t.Fatal("nil sampler leaked state")
	}
}

// synthSet builds a one-sample-per-value set from name → series, sorted by
// name like Sampler.Set exports.
func synthSet(series map[string][]float64) *Set {
	set := &Set{IntervalUs: 100}
	n := 0
	for name, vals := range series {
		set.Series = append(set.Series, Series{Name: name, Vals: vals})
		if len(vals) > n {
			n = len(vals)
		}
	}
	sort.Slice(set.Series, func(i, j int) bool { return set.Series[i].Name < set.Series[j].Name })
	for i := 0; i < n; i++ {
		set.TimesUs = append(set.TimesUs, float64(100*(i+1)))
	}
	return set
}

func flat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestAnalyzeVerdicts(t *testing.T) {
	// Saturated NIC cores win over a cooler host pool.
	v := Analyze(synthSet(map[string][]float64{
		"node1.nic.occupancy":  flat(0.92, 20),
		"node1.host.occupancy": flat(0.40, 20),
	}))
	if v.Resource != "nic-core" || v.Node != "node1" {
		t.Fatalf("verdict = %+v, want nic-core@node1", v)
	}
	// Lock pressure wins even when a pool is saturated.
	v = Analyze(synthSet(map[string][]float64{
		"node0.nic.occupancy":          flat(0.92, 20),
		"node2.txn.lock_conflict_frac": flat(0.35, 20),
	}))
	if v.Resource != "lock" || v.Node != "node2" {
		t.Fatalf("verdict = %+v, want lock@node2", v)
	}
	// Nothing saturated → the offered load is the limit.
	v = Analyze(synthSet(map[string][]float64{
		"node0.dma.occupancy": flat(0.10, 20),
	}))
	if v.Resource != "load" {
		t.Fatalf("verdict = %+v, want load", v)
	}
	// Empty set.
	if v = Analyze(&Set{}); v.Resource != "none" {
		t.Fatalf("verdict = %+v, want none", v)
	}
	if v = Analyze(nil); v.Resource != "none" {
		t.Fatalf("nil verdict = %+v, want none", v)
	}
}

func TestAnalyzeDominantPhase(t *testing.T) {
	v := Analyze(synthSet(map[string][]float64{
		"node0.nic.occupancy":          flat(0.8, 20),
		"node0.phase.commit.mean_us":   flat(30, 20),
		"node0.phase.commit.rate":      flat(1000, 20),
		"node0.phase.validate.mean_us": flat(5, 20),
		"node0.phase.validate.rate":    flat(1000, 20),
	}))
	if !strings.Contains(v.Detail, "dominant phase commit") {
		t.Fatalf("detail %q does not cite the dominant phase", v.Detail)
	}
}

func TestWriteJSONShape(t *testing.T) {
	set := synthSet(map[string][]float64{"node0.txn.commit_rate": {10, 20}})
	v := Analyze(set)
	var buf bytes.Buffer
	err := WriteJSON(&buf, map[string]*Set{"cellA": set}, map[string]*Verdict{"cellA": &v})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Cells  []struct {
			Cell       string    `json:"cell"`
			Bottleneck *Verdict  `json:"bottleneck"`
			TimesUs    []float64 `json:"t_us"`
			Series     []Series  `json:"series"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != SchemaVersion {
		t.Fatalf("schema = %q", doc.Schema)
	}
	if len(doc.Cells) != 1 || doc.Cells[0].Cell != "cellA" || doc.Cells[0].Bottleneck == nil {
		t.Fatalf("cells = %+v", doc.Cells)
	}
	if len(doc.Cells[0].Series) != 1 || len(doc.Cells[0].TimesUs) != 2 {
		t.Fatalf("cell content = %+v", doc.Cells[0])
	}
}

// TestSamplerDeterministic runs two identical synthetic engines and expects
// byte-identical JSON and trace exports.
func TestSamplerDeterministic(t *testing.T) {
	run := func() []byte {
		eng := sim.NewEngine(7)
		s := New(50 * sim.Microsecond)
		var count int64
		eng.Ticker(7*sim.Microsecond, func() bool {
			count += int64(eng.Rand().Intn(10))
			return eng.Now() < 5*sim.Millisecond
		})
		s.Rate("events", func() int64 { return count })
		s.Attach(eng)
		eng.Run(2 * sim.Millisecond)
		s.Stop()
		set := s.Set()
		var buf bytes.Buffer
		if err := WriteJSON(&buf, map[string]*Set{"run": set}, nil); err != nil {
			t.Fatal(err)
		}
		tr := trace.New()
		AppendTrace(tr, 0, "", set, nil)
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("two identically-seeded runs exported different telemetry")
	}
}

// TestAppendTrace parses the counter-track export back and checks its
// layout: one track per series carrying the set's samples, node N under
// pid0+N, the cluster process after the nodes, and the verdict at the last
// sample.
func TestAppendTrace(t *testing.T) {
	set := synthSet(map[string][]float64{
		"cluster.alive":         {6, 6, 5},
		"load.offered_rate":     {1e6, 2e6, 3e6},
		"node0.nic.occupancy":   {0.5, 0.6, 0.7},
		"node0.txn.commit_rate": {10, 20, 30},
		"node2.nic.occupancy":   {0.9, 0.95, 0.99},
	})
	v := Analyze(set)
	const pid0 = 7
	tr := trace.New()
	tr.MetaProcess(0, "node0") // a span process already in the file
	if next := AppendTrace(tr, pid0, "fig/cell", set, &v); next != pid0+4 {
		t.Fatalf("next pid = %d, want %d", next, pid0+4)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	procs := map[int]string{}
	type key struct {
		pid  int
		name string
	}
	tracks := map[key][]float64{}
	var times []float64
	var verdicts []float64
	verdictPid := -1
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				procs[e.Pid] = e.Args["name"].(string)
			}
		case "C":
			k := key{e.Pid, e.Name}
			tracks[k] = append(tracks[k], e.Args["value"].(float64))
			if k == (key{pid0, "nic.occupancy"}) {
				times = append(times, e.TS)
			}
		case "i":
			verdicts = append(verdicts, e.TS)
			verdictPid = e.Pid
		}
	}
	wantProcs := map[int]string{0: "node0", pid0: "fig/cell node0", pid0 + 1: "fig/cell node1",
		pid0 + 2: "fig/cell node2", pid0 + 3: "fig/cell cluster"}
	if fmt.Sprint(procs) != fmt.Sprint(wantProcs) {
		t.Fatalf("processes = %v, want %v", procs, wantProcs)
	}
	want := map[key]string{
		{pid0 + 3, "cluster.alive"}:     "cluster.alive",
		{pid0 + 3, "load.offered_rate"}: "load.offered_rate",
		{pid0, "nic.occupancy"}:         "node0.nic.occupancy",
		{pid0, "txn.commit_rate"}:       "node0.txn.commit_rate",
		{pid0 + 2, "nic.occupancy"}:     "node2.nic.occupancy",
	}
	if len(tracks) != len(set.Series) {
		t.Fatalf("%d counter tracks for %d series", len(tracks), len(set.Series))
	}
	for k, series := range want {
		var vals []float64
		for _, s := range set.Series {
			if s.Name == series {
				vals = s.Vals
			}
		}
		if got := tracks[k]; fmt.Sprint(got) != fmt.Sprint(vals) || len(got) != len(set.TimesUs) {
			t.Fatalf("track %v = %v, want %v", k, got, vals)
		}
	}
	if fmt.Sprint(times) != fmt.Sprint(set.TimesUs) {
		t.Fatalf("sample times = %v, want %v", times, set.TimesUs)
	}
	last := set.TimesUs[len(set.TimesUs)-1]
	if len(verdicts) != 1 || verdicts[0] != last || verdictPid != pid0+2 {
		t.Fatalf("verdict instants at %v on pid %d, want one at %v on pid %d (%s)",
			verdicts, verdictPid, last, pid0+2, v)
	}
}
