package xenic_test

import (
	"bytes"
	"fmt"
	"testing"

	"xenic"
	"xenic/internal/telemetry"
)

// smallCfg is a small Xenic cluster configuration shared by the telemetry
// integration tests.
func smallCfg(seed int64) xenic.Config {
	cfg := xenic.DefaultConfig()
	cfg.Nodes = 4
	cfg.AppThreads = 2
	cfg.WorkerThreads = 2
	cfg.NICCores = 4
	cfg.Outstanding = 8
	cfg.Seed = seed
	return cfg
}

// TestTelemetryChargeFree is the overhead rule: a run with a sampler
// attached must report exactly the same measurement as one without — the
// probes are read-only and the ticker never perturbs the transaction
// schedule.
func TestTelemetryChargeFree(t *testing.T) {
	run := func(withTel bool) (xenic.Result, int) {
		var opts []xenic.Option
		var tel *xenic.Telemetry
		if withTel {
			tel = xenic.NewTelemetry(100 * xenic.Microsecond)
			opts = append(opts, xenic.WithTelemetry(tel))
		}
		cl, err := xenic.NewCluster(smallCfg(1), &tinyWorkload{keys: 4000}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res := cl.Measure(1*xenic.Millisecond, 3*xenic.Millisecond)
		samples := 0
		if tel != nil {
			tel.Stop()
			samples = len(tel.Set().TimesUs)
		}
		return res, samples
	}
	plain, _ := run(false)
	sampled, n := run(true)
	if fmt.Sprintf("%+v", plain) != fmt.Sprintf("%+v", sampled) {
		t.Fatalf("telemetry changed the measurement:\n  off: %+v\n  on:  %+v", plain, sampled)
	}
	if n == 0 {
		t.Fatal("sampler attached but recorded no samples")
	}
}

// TestTelemetryDeterministic runs two identically-seeded clusters with
// samplers attached and expects byte-identical trace and JSON exports.
func TestTelemetryDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		tel := xenic.NewTelemetry(100 * xenic.Microsecond)
		cl, err := xenic.NewCluster(smallCfg(3), &tinyWorkload{keys: 4000}, xenic.WithTelemetry(tel))
		if err != nil {
			t.Fatal(err)
		}
		cl.Measure(1*xenic.Millisecond, 3*xenic.Millisecond)
		tel.Stop()
		set := tel.Set()
		v := telemetry.Analyze(set)
		var tr, js bytes.Buffer
		counters := xenic.NewTracer()
		telemetry.AppendTrace(counters, 0, "", set, &v)
		if err := counters.WriteJSON(&tr); err != nil {
			t.Fatal(err)
		}
		err = telemetry.WriteJSON(&js, map[string]*telemetry.Set{"run": set},
			map[string]*telemetry.Verdict{"run": &v})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Bytes(), js.Bytes()
	}
	trA, jsA := run()
	trB, jsB := run()
	if !bytes.Equal(trA, trB) {
		t.Fatal("trace exports differ between identically-seeded runs")
	}
	if !bytes.Equal(jsA, jsB) {
		t.Fatal("JSON exports differ between identically-seeded runs")
	}
	if !bytes.Contains(trA, []byte(`"ph":"C"`)) {
		t.Fatal("trace export holds no counter samples")
	}
}

// TestTelemetryBaseline exercises the baseline cluster's probe set.
func TestTelemetryBaseline(t *testing.T) {
	cfg := xenic.DefaultBaselineConfig(xenic.DrTMH)
	cfg.Nodes = 4
	cfg.Threads = 4
	cfg.Outstanding = 4
	tel := xenic.NewTelemetry(100 * xenic.Microsecond)
	cl, err := xenic.NewBaseline(cfg, &tinyWorkload{keys: 4000}, xenic.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	cl.Measure(1*xenic.Millisecond, 2*xenic.Millisecond)
	tel.Stop()
	set := tel.Set()
	if len(set.TimesUs) == 0 || len(set.Series) == 0 {
		t.Fatal("baseline sampler recorded nothing")
	}
	found := false
	for _, s := range set.Series {
		if s.Name == "node0.txn.commit_rate" {
			found = true
			sum := 0.0
			for _, v := range s.Vals {
				sum += v
			}
			if sum <= 0 {
				t.Fatal("baseline commit rate series is all zero")
			}
		}
	}
	if !found {
		t.Fatal("node0.txn.commit_rate series missing from baseline sampler")
	}
}
