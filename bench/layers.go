package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"

	"xenic"
	"xenic/internal/telemetry"
)

// layerPrefixes maps Go function-name prefixes, as pprof prints them, to
// layer names. First match wins; a function no prefix matches is "other".
var layerPrefixes = []struct{ prefix, layer string }{
	{"xenic/internal/simnet.", "simnet"},
	{"xenic/internal/sim.", "sim"},
	{"xenic/internal/pcie.", "pcie"},
	{"xenic/internal/rdma.", "rdma"},
	{"xenic/internal/nicrt.", "nicrt"},
	{"xenic/internal/hostrt.", "hostrt"},
	{"xenic/internal/core.", "core"},
	{"xenic/internal/baseline.", "baseline"},
	{"xenic/internal/store/robinhood.", "store.robinhood"},
	{"xenic/internal/store/chained.", "store.chained"},
	{"xenic/internal/store/btree.", "store.btree"},
	{"xenic/internal/store/nicindex.", "store.nicindex"},
	{"xenic/internal/wire.", "wire"},
	{"xenic/internal/workload/", "workload"},
	{"xenic/internal/openloop.", "openloop"},
	{"xenic/internal/load.", "openloop"},
	{"xenic/internal/metrics.", "metrics"},
	{"xenic/internal/telemetry.", "telemetry"},
	// Garbage collector: marking, sweeping, write barriers, assists.
	{"runtime.gc", "runtime_gc"},
	{"runtime.(*gc", "runtime_gc"},
	{"runtime.scan", "runtime_gc"},
	{"runtime.greyobject", "runtime_gc"},
	{"runtime.findObject", "runtime_gc"},
	{"runtime.mark", "runtime_gc"},
	{"runtime.(*mspan).mark", "runtime_gc"},
	{"runtime.(*mspan).sweep", "runtime_gc"},
	{"runtime.(*sweepLocked)", "runtime_gc"},
	{"runtime.(*sweepLocker)", "runtime_gc"},
	{"runtime.sweep", "runtime_gc"},
	{"runtime.bgsweep", "runtime_gc"},
	{"runtime.bgscavenge", "runtime_gc"},
	{"runtime.(*scavenge", "runtime_gc"},
	{"runtime.wbBuf", "runtime_gc"},
	{"runtime.(*wbBuf)", "runtime_gc"},
	{"runtime.bulkBarrier", "runtime_gc"},
	{"runtime.(*gcWork)", "runtime_gc"},
	{"runtime.(*gcBits", "runtime_gc"},
	{"runtime.spanOf", "runtime_gc"},
	{"runtime.(*spanSet)", "runtime_gc"},
	{"runtime.typePointers", "runtime_gc"},
	{"gcWriteBarrier", "runtime_gc"},
	// Allocator: mallocgc and what it calls.
	{"runtime.malloc", "runtime_malloc"},
	{"runtime.newobject", "runtime_malloc"},
	{"runtime.newarray", "runtime_malloc"},
	{"runtime.makeslice", "runtime_malloc"},
	{"runtime.growslice", "runtime_malloc"},
	{"runtime.nextFree", "runtime_malloc"},
	{"runtime.(*mcache)", "runtime_malloc"},
	{"runtime.(*mcentral)", "runtime_malloc"},
	{"runtime.(*mheap)", "runtime_malloc"},
	{"runtime.(*mspan)", "runtime_malloc"},
	{"runtime.(*pageAlloc)", "runtime_malloc"},
	{"runtime.(*pageCache)", "runtime_malloc"},
	{"runtime.heapSetType", "runtime_malloc"},
	{"runtime.heapBits", "runtime_malloc"},
	{"runtime.memclr", "runtime_malloc"},
	{"runtime.deductAssistCredit", "runtime_malloc"},
	{"runtime.getMCache", "runtime_malloc"},
	{"runtime.makeSpanClass", "runtime_malloc"},
}

func layerOf(fn string) string {
	for _, p := range layerPrefixes {
		if strings.HasPrefix(fn, p.prefix) {
			return p.layer
		}
	}
	return "other"
}

// profileShares attributes a profile's flat samples to layers by running
// `go tool pprof -top` over it and summing each function's flat value into
// its layer, and stores <layer>.<suffix> for every layer in want. Shares are
// of the profile's total. A layer outside want counts as "other" when want
// has it (the CPU shares then sum to 1) and is left out otherwise.
func profileShares(path, sampleIndex string, want []string, suffix string, out map[string]float64) error {
	args := []string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0"}
	if sampleIndex != "" {
		args = append(args, "-sample_index="+sampleIndex)
	}
	text, err := exec.Command("go", append(args, path)...).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	byLayer, total, err := parseTop(string(text))
	if err != nil {
		return err
	}
	for _, l := range want {
		out[l+"."+suffix] = 0
	}
	if total == 0 {
		return nil
	}
	for l, v := range byLayer {
		key := l + "." + suffix
		if _, ok := out[key]; !ok {
			key = "other." + suffix
			if _, ok := out[key]; !ok {
				continue
			}
		}
		out[key] += v / total
	}
	return nil
}

// parseTop sums the flat column of `pprof -top` output per layer. Rows
// follow the "flat flat% sum% cum cum%" header and end with the name.
func parseTop(text string) (byLayer map[string]float64, total float64, err error) {
	byLayer = map[string]float64{}
	inRows := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if !inRows {
			inRows = len(f) == 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, perr := parseQuantity(f[0])
		if perr != nil {
			return nil, 0, fmt.Errorf("pprof row %q: %w", line, perr)
		}
		// A name may contain spaces ("runtime.mallocgc (inline)").
		byLayer[layerOf(f[5])] += v
		total += v
	}
	if !inRows {
		return nil, 0, fmt.Errorf("no table in pprof output")
	}
	return byLayer, total, nil
}

// pprofUnits are the unit suffixes pprof scales flat values to, in a common
// base per dimension (seconds, bytes); longer suffixes first.
var pprofUnits = []struct {
	suffix string
	scale  float64
}{
	{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"ms", 1e-3}, {"s", 1},
	{"kB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40}, {"PB", 1 << 50}, {"B", 1},
}

func parseQuantity(s string) (float64, error) {
	for _, u := range pprofUnits {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// num reads a registry snapshot leaf as a float.
func num(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	case int:
		return float64(x)
	case uint64:
		return float64(x)
	}
	return 0
}

// field reads snapshot[key][field]; absent keys read as 0.
func field(snap map[string]any, key, f string) float64 {
	m, _ := snap[key].(map[string]any)
	return num(m[f])
}

// statDelta sums node<i>.<key>.<field> over all nodes and returns the
// growth between the two registry snapshots (the measure window).
func statDelta(snap0, snap1 map[string]any, key, f string) float64 {
	d := 0.0
	for i := 0; i < nodes; i++ {
		k := fmt.Sprintf("node%d.%s", i, key)
		d += field(snap1, k, f) - field(snap0, k, f)
	}
	return d
}

// seriesMean averages, over all nodes, the samples of series node<i>.<name>
// taken inside the simulated window (from, to].
func seriesMean(set *xenic.TelemetrySet, name string, from, to xenic.Time) float64 {
	sum, n := 0.0, 0
	for _, s := range set.Series {
		if !strings.HasPrefix(s.Name, "node") || !strings.HasSuffix(s.Name, "."+name) {
			continue
		}
		for i, v := range s.Vals {
			if t := set.TimesUs[i]; t > from.Micros() && t <= to.Micros() {
				sum += v
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simLayerMetrics fills family 2: simulated work, occupancy and waiting per
// layer, from the engine's event count, the registry's growth over the
// window, and the telemetry series' window means. A layer the workload does
// not use reads 0.
func simLayerMetrics(w *workload, rec *record, m *measured, snap0, snap1 map[string]any,
	set *xenic.TelemetrySet, out map[string]float64) {

	res := m.res
	txns := float64(res.Committed)
	delta := func(key, f string) float64 { return statDelta(snap0, snap1, key, f) }
	mean := func(name string) float64 { return seriesMean(set, name, m.from, m.to) }

	out["sim.events_per_txn"] = float64(m.events) / txns
	out["sim.events_per_host_s"] = float64(m.events) / m.host.Seconds()

	out["nicrt.core_occupancy"] = mean("nic.occupancy")
	out["nicrt.queue_depth_mean"] = mean("nic.queue_depth")
	// IntHist snapshots carry count and mean; their product is the sum.
	msgs := 0.0
	for i := 0; i < nodes; i++ {
		k := fmt.Sprintf("node%d.nic.batch_msgs_per_frame", i)
		msgs += field(snap1, k, "count")*field(snap1, k, "mean") - field(snap0, k, "count")*field(snap0, k, "mean")
	}
	out["nicrt.msgs_per_frame_mean"] = ratio(msgs, delta("nic.batch_msgs_per_frame", "count"))
	out["hostrt.thread_occupancy"] = mean("host.occupancy")
	out["hostrt.queue_depth_mean"] = mean("host.queue_depth")
	out["pcie.dma_occupancy"] = mean("dma.occupancy")
	out["pcie.elems_per_submission"] = ratio(delta("nic.pcie", "elements"), delta("nic.pcie", "submissions"))
	out["pcie.bytes_per_txn"] = delta("nic.pcie", "bytes") / txns
	out["simnet.tx_occupancy"] = mean("net.tx_occupancy")
	out["simnet.egress_backlog_us_mean"] = mean("net.egress_backlog_us")

	out["store.nicindex.hit_rate"] = ratio(delta("nicindex", "cache_hits"), delta("nicindex", "lookups"))
	out["store.nicindex.dma_lookups_per_txn"] = delta("nicindex", "dma_lookups") / txns
	out["store.nicindex.evictions_per_txn"] = delta("nicindex", "evictions") / txns

	for _, verb := range []string{"reads", "writes", "atomics", "sends"} {
		out["rdma."+verb+"_per_txn"] = delta("rdma", verb) / txns
	}
	if w.System == "xenic" {
		out["simnet.frames_per_txn"] = delta("nic.frames", "tx_frames") / txns
	} else {
		// The baselines keep no frame counter a caller can reach; derive one
		// from the verbs: a request and a response frame per one-sided verb,
		// one frame per send (fragmentation of large sends ignored).
		out["simnet.frames_per_txn"] = 2*(out["rdma.reads_per_txn"]+out["rdma.writes_per_txn"]+
			out["rdma.atomics_per_txn"]) + out["rdma.sends_per_txn"]
	}

	// Measure resets the phase histograms at the window's start, so the
	// snapshot after it covers the window alone.
	for _, ph := range []string{"execute", "validate", "log", "commit", "shipped", "host-exec"} {
		name := "core.phase_" + strings.ReplaceAll(ph, "-", "_") + "_mean_us"
		out[name] = field(snap1, "cluster.phase."+ph, "mean_us")
	}
	out["core.abort_locked_share"] = ratio(float64(res.AbortLocked), float64(res.Aborts))
	out["core.abort_version_share"] = ratio(float64(res.AbortVersion), float64(res.Aborts))
	out["core.attempts_per_commit"] = float64(res.Committed+res.Aborts) / txns

	if w.Loop == "open" {
		out["openloop.offered_ktps"] = float64(m.load1.Offered-m.load0.Offered) / (m.to - m.from).Seconds() / 1000
		out["openloop.inflight_end"] = float64(m.load1.InFlight)
		out["openloop.p999_us"] = m.open.P999Us
	}

	v := telemetry.Analyze(set)
	out["telemetry.bottleneck_util"] = v.Util
	rec.Notes["bottleneck"] = v.String()
}
