package xenic_test

import (
	"strings"
	"testing"

	"xenic"
)

// systems constructs one of each cluster type behind the System interface,
// with identical workload and scale.
func systems(t *testing.T, opts ...xenic.Option) map[string]xenic.System {
	t.Helper()
	cfg := xenic.DefaultConfig()
	cfg.Nodes = 4
	cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = 2, 1, 4
	xc, err := xenic.NewCluster(cfg, &tinyWorkload{keys: 4000}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := xenic.DefaultBaselineConfig(xenic.DrTMH)
	bcfg.Nodes = 4
	bcfg.Threads = 4
	bc, err := xenic.NewBaseline(bcfg, &tinyWorkload{keys: 4000}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]xenic.System{"xenic": xc, "DrTM+H": bc}
}

// TestSystemConformance drives all five systems through the full System
// lifecycle using only the interface: arrivals injected by an open-loop
// source, contended enough to abort and retry, measured, drained, and
// audited against the recorded history.
func TestSystemConformance(t *testing.T) {
	for _, name := range []string{"xenic", "DrTM+H", "DrTM+H NC", "FaSST", "DrTM+R"} {
		h := xenic.NewHistory()
		s := checkSystems(t, 5, nil, xenic.WithHistory(h),
			xenic.WithOpenLoop(xenic.OpenLoopConfig{Rate: 1e6, Sessions: 32, Seed: 5}))[name]
		s.Start()
		s.Run(1 * xenic.Millisecond)
		res := s.Measure(1*xenic.Millisecond, 2*xenic.Millisecond)
		if res.PerServerTput <= 0 || res.Committed == 0 || res.Median <= 0 {
			t.Errorf("%s: empty measurement: %+v", name, res)
		}
		if res.Aborts == 0 {
			t.Errorf("%s: no transaction aborted, retry path not exercised: %+v", name, res)
		}
		if !s.Drain(100 * xenic.Millisecond) {
			t.Errorf("%s: did not drain", name)
		}
		if !s.Quiesced() {
			t.Errorf("%s: not quiesced after drain", name)
		}
		if ol := s.OfferedLoad(); ol.Admitted == 0 || ol.Completed+ol.Failed != ol.Admitted {
			t.Errorf("%s: injected arrivals unaccounted for after drain: %+v", name, ol)
		}
		if rep := h.Check(); h.Len() == 0 || !rep.Ok() {
			t.Errorf("%s: history (%d records):\n%s", name, h.Len(), rep.String())
		}
		if err := s.AuditHistory(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestConfigDefects pins a hand-built-config defect fixed once in the shared
// chassis, over both constructors: more application threads than a
// transaction id can name are rejected instead of mis-routing completions.
func TestConfigDefects(t *testing.T) {
	build := map[string]func(threads int) (xenic.System, error){
		"xenic": func(threads int) (xenic.System, error) {
			cfg := xenic.DefaultConfig()
			cfg.Nodes, cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = 4, threads, 1, 4
			return xenic.NewCluster(cfg, &tinyWorkload{keys: 4000})
		},
		"baseline": func(threads int) (xenic.System, error) {
			cfg := xenic.DefaultBaselineConfig(xenic.FaSST)
			cfg.Nodes, cfg.Threads = 4, threads
			return xenic.NewBaseline(cfg, &tinyWorkload{keys: 4000})
		},
	}
	for name, mk := range build {
		if _, err := mk(256); err != nil {
			t.Errorf("%s: 256 application threads rejected: %v", name, err)
		}
		if _, err := mk(257); err == nil || !strings.Contains(err.Error(), "limit of 256") {
			t.Errorf("%s: 257 application threads: error %v does not name the limit", name, err)
		}
	}
}

// TestOptionsAttachObservers verifies WithTracer and WithStats wire the
// observers into both cluster types at construction.
func TestOptionsAttachObservers(t *testing.T) {
	for _, name := range []string{"xenic", "DrTM+H"} {
		tr := xenic.NewTracer()
		reg := xenic.NewStatsRegistry()
		s := systems(t, xenic.WithTracer(tr), xenic.WithStats(reg))[name]
		s.Measure(500*xenic.Microsecond, 1*xenic.Millisecond)
		// The baseline's fault-free data path records only process/thread
		// metadata; the Xenic cluster records per-phase spans too.
		if tr.Len()+tr.MetaLen() == 0 {
			t.Errorf("%s: tracer attached via WithTracer recorded nothing", name)
		}
		if len(reg.Names()) == 0 {
			t.Errorf("%s: registry attached via WithStats registered nothing", name)
		}
	}
}
