package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"

	"xenic"
	"xenic/internal/metrics"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricRow `json:"end_to_end"`
	PerLayer   []metricRow `json:"per_layer"`
}

type metricRow struct {
	Name, Unit, Better string
	Bound              float64
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesTables: BENCHMARK.json declares exactly the workloads
// and metrics, with the units, directions and bounds, that the tables in
// this package emit and -compare enforces.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, windows are calibrated for %d", c.RunSeconds, referenceSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %q, defined %q", i, c.Workloads[i].Name, w.Name)
		}
	}
	check := func(kind string, declared []metricRow, defined []metricDef) {
		if len(declared) != len(defined) {
			t.Fatalf("%s: %d declared, %d defined", kind, len(declared), len(defined))
		}
		for i, d := range defined {
			got := declared[i]
			if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, got, d)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: bad metric name %q", kind, d.Name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer())
}

// TestSmoke runs every workload untraced and traced over a 0.2ms window and
// checks that each run is correct and emits exactly the declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 40 clusters")
	}
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	for i := range workloads {
		w := &workloads[i]
		seconds := referenceSeconds * 200 / float64(w.WindowUs)
		var sims [2]map[string]float64
		for trace, defs := range [][]metricDef{endToEnd, perLayer()} {
			rec := runWorkload(w, 1, seconds, trace == 1)
			if !rec.Correct {
				t.Errorf("%s trace=%d: %v", w.Name, trace, rec.Errors)
			}
			var got []string
			for name := range rec.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if want := names(defs); !slices.Equal(got, want) {
				t.Errorf("%s trace=%d: emitted %v, declared %v", w.Name, trace, got, want)
			}
			if rec.Attempted < 1 || rec.Failed != 0 {
				t.Errorf("%s trace=%d: attempted %d, failed %d", w.Name, trace, rec.Attempted, rec.Failed)
			}
			sims[trace] = rec.Sim
			if trace == 1 {
				sum := 0.0
				for _, l := range cpuLayers {
					sum += rec.Metrics[l+".host_cpu_share"].Value
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("%s: cpu shares sum to %v", w.Name, sum)
				}
			}
		}
		for name, v := range sims[0] {
			if sims[1][name] != v {
				t.Errorf("%s: observers are not inert: %s is %v untraced, %v traced", w.Name, name, v, sims[1][name])
			}
		}
	}
}

// TestHistQuantile: the interpolated quantile stays inside the log bucket
// the histogram names and lands within 0.5% of the exact order statistic,
// in the body and in the tail of a skewed distribution.
func TestHistQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	worst := 0.0
	for trial := 0; trial < 40; trial++ {
		h := metrics.NewHistogram()
		var xs []float64
		for i := 0; i < 200000; i++ {
			us := 5 + rng.ExpFloat64()*float64(10+trial)
			if trial%2 == 1 {
				us = math.Exp(rng.NormFloat64()*0.6) * float64(20+trial)
			}
			h.Record(xenic.Time(us * float64(xenic.Microsecond)))
			xs = append(xs, us)
		}
		sort.Float64s(xs)
		for _, q := range []float64{0.5, 0.99} {
			exact := xs[int(q*float64(len(xs)-1))]
			mid, got := h.Quantile(q).Micros(), histQuantile(h, q).Micros()
			if got < mid/1.05 || got > mid*1.05 {
				t.Fatalf("q=%v: interpolated %v outside the bucket around %v", q, got, mid)
			}
			worst = math.Max(worst, math.Abs(got-exact)/exact)
		}
	}
	t.Logf("worst relative error %v", worst)
	if worst > 0.005 {
		t.Errorf("worst relative error %v", worst)
	}
}

func TestParseTop(t *testing.T) {
	text := `File: bench
Type: cpu
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     500ms 25.00% 25.00%      1.20s 60.00%  xenic/internal/sim.(*Engine).Step
     0.50s 25.00% 50.00%      0.50s 25.00%  runtime.mallocgc
     500ms 25.00% 75.00%      500ms 25.00%  runtime.scanobject
     250ms 12.50% 87.50%      250ms 12.50%  xenic/internal/store/robinhood.(*Table).findSlot (inline)
     250ms 12.50%   100%      250ms 12.50%  some/unknown.Func
         0     0%   100%         2s   100%  main.main
`
	got, total, err := parseTop(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.5, "runtime_malloc": 0.5, "runtime_gc": 0.5, "store.robinhood": 0.25, "other": 0.25}
	if math.Abs(total-2) > 1e-9 {
		t.Errorf("total %v", total)
	}
	for l, v := range want {
		if math.Abs(got[l]-v) > 1e-9 {
			t.Errorf("%s: %v, want %v", l, got[l], v)
		}
	}
	if _, _, err := parseTop("no table here"); err == nil {
		t.Error("no error for output without a table")
	}
}

func TestCompare(t *testing.T) {
	set := func(hostUs, p99 float64) *resultSet {
		s := &resultSet{Seed: 1, Seconds: referenceSeconds}
		for _, w := range workloads {
			r := &record{Workload: w.Name, Correct: true, Metrics: map[string]value{}}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = value{1, d.Unit}
			}
			r.Metrics["host_us_per_txn"] = value{hostUs, "us/txn"}
			r.Metrics["sim_p99_us"] = value{p99, "sim_us"}
			s.Runs = append(s.Runs, r)
		}
		return s
	}
	base := set(10, 50)
	bound := endToEnd[1].Bound // host_us_per_txn
	for _, c := range []struct {
		name string
		b    *resultSet
		want int
	}{
		{"identical", set(10, 50), 0},
		{"host within bound", set(10*(1+0.9*bound), 50), 0},
		{"host beyond bound", set(10*(1+1.1*bound), 50), 1},
		{"host better", set(5, 50), 0},
		{"sim changed", set(10, 50.01), 1},
	} {
		if got := compare(io.Discard, base, c.b); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
