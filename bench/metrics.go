package main

// This file is the benchmark's vocabulary: every metric it emits, with unit,
// clock, direction and (for end-to-end metrics) regression bound. The same
// table drives printing, -compare, the smoke test's cross-check against
// BENCHMARK.json, and README.md's tables.

// Clock says which of the two clocks a number is read from.
type clock string

const (
	hostClock clock = "host" // what the Go simulator costs to run: noisy, bounded
	simClock  clock = "sim"  // what the modelled hardware does: exact per (commit, seed, seconds)
)

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Clock  clock
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// endToEnd are reported by every untraced run, in this order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", hostClock, 0.25},
	{"host_us_per_txn", "us/txn", "lower", hostClock, 0.25},
	{"host_allocs_per_txn", "allocs/txn", "lower", hostClock, 0.03},
	{"host_alloc_kb_per_txn", "KiB/txn", "lower", hostClock, 0.03},
	{"peak_rss_mb", "MiB", "lower", hostClock, 0.15},
	{"sim_goodput_ktps", "ktxn/s/server", "higher", simClock, 0.02},
	{"sim_mean_us", "sim_us", "lower", simClock, 0.02},
	{"sim_p50_us", "sim_us", "lower", simClock, 0.03},
	{"sim_p99_us", "sim_us", "lower", simClock, 0.08},
	{"sim_commit_ratio", "ratio", "higher", simClock, 0.02},
	{"ok_ops_share", "ratio", "higher", simClock, 0.02},
}

// cpuLayers and allocLayers are the packages whose flat pprof samples are
// reported as <layer>.host_cpu_share / <layer>.host_alloc_share.
var cpuLayers = []string{"sim", "simnet", "pcie", "rdma", "nicrt", "hostrt", "core",
	"baseline", "store.robinhood", "store.chained", "store.btree", "store.nicindex", "wire", "workload",
	"openloop", "metrics", "telemetry", "runtime_gc", "runtime_malloc", "other"}

var allocLayers = []string{"core", "baseline", "nicrt", "simnet", "sim", "wire",
	"workload", "store.robinhood", "store.nicindex"}

// simLayer are the simulated work / occupancy / waiting metrics of the traced
// run (family 2), driverLayer the leaf-package driver loops (family 3).
var simLayer = []metricDef{
	{Name: "sim.events_per_txn", Unit: "events/txn", Better: "lower", Clock: simClock},
	{Name: "sim.events_per_host_s", Unit: "events/s", Better: "higher", Clock: hostClock},
	{Name: "nicrt.core_occupancy", Unit: "ratio", Better: "lower", Clock: simClock},
	{Name: "nicrt.queue_depth_mean", Unit: "msgs", Better: "lower", Clock: simClock},
	{Name: "nicrt.msgs_per_frame_mean", Unit: "msgs/frame", Better: "higher", Clock: simClock},
	{Name: "hostrt.thread_occupancy", Unit: "ratio", Better: "lower", Clock: simClock},
	{Name: "hostrt.queue_depth_mean", Unit: "msgs", Better: "lower", Clock: simClock},
	{Name: "pcie.dma_occupancy", Unit: "ratio", Better: "lower", Clock: simClock},
	{Name: "pcie.elems_per_submission", Unit: "elems/vec", Better: "higher", Clock: simClock},
	{Name: "pcie.bytes_per_txn", Unit: "B/txn", Better: "lower", Clock: simClock},
	{Name: "simnet.tx_occupancy", Unit: "ratio", Better: "lower", Clock: simClock},
	{Name: "simnet.frames_per_txn", Unit: "frames/txn", Better: "lower", Clock: simClock},
	{Name: "simnet.egress_backlog_us_mean", Unit: "sim_us", Better: "lower", Clock: simClock},
	{Name: "store.nicindex.hit_rate", Unit: "ratio", Better: "higher", Clock: simClock},
	{Name: "store.nicindex.dma_lookups_per_txn", Unit: "1/txn", Better: "lower", Clock: simClock},
	{Name: "store.nicindex.evictions_per_txn", Unit: "1/txn", Better: "lower", Clock: simClock},
	{Name: "rdma.reads_per_txn", Unit: "1/txn", Better: "lower", Clock: simClock},
	{Name: "rdma.writes_per_txn", Unit: "1/txn", Better: "lower", Clock: simClock},
	{Name: "rdma.atomics_per_txn", Unit: "1/txn", Better: "lower", Clock: simClock},
	{Name: "rdma.sends_per_txn", Unit: "1/txn", Better: "lower", Clock: simClock},
	{Name: "core.phase_execute_mean_us", Unit: "sim_us", Better: "lower", Clock: simClock},
	{Name: "core.phase_validate_mean_us", Unit: "sim_us", Better: "lower", Clock: simClock},
	{Name: "core.phase_log_mean_us", Unit: "sim_us", Better: "lower", Clock: simClock},
	{Name: "core.phase_commit_mean_us", Unit: "sim_us", Better: "lower", Clock: simClock},
	{Name: "core.phase_shipped_mean_us", Unit: "sim_us", Better: "lower", Clock: simClock},
	{Name: "core.phase_host_exec_mean_us", Unit: "sim_us", Better: "lower", Clock: simClock},
	{Name: "core.abort_locked_share", Unit: "ratio", Better: "lower", Clock: simClock},
	{Name: "core.abort_version_share", Unit: "ratio", Better: "lower", Clock: simClock},
	{Name: "core.attempts_per_commit", Unit: "1/txn", Better: "lower", Clock: simClock},
	{Name: "openloop.offered_ktps", Unit: "ktxn/s", Better: "higher", Clock: simClock},
	{Name: "openloop.inflight_end", Unit: "txns", Better: "lower", Clock: simClock},
	{Name: "openloop.p999_us", Unit: "sim_us", Better: "lower", Clock: simClock},
	{Name: "telemetry.bottleneck_util", Unit: "ratio", Better: "lower", Clock: simClock},
}

var driverLayer = []metricDef{
	{Name: "sim.schedule_ns", Unit: "ns/op"},
	{Name: "sim.schedule_deep_ns", Unit: "ns/op"},
	{Name: "sim.schedule_allocs", Unit: "allocs/op"},
	{Name: "simnet.frame_ns", Unit: "ns/op"},
	{Name: "simnet.frame_allocs", Unit: "allocs/op"},
	{Name: "pcie.submit_ns", Unit: "ns/op"},
	{Name: "pcie.submit_allocs", Unit: "allocs/op"},
	{Name: "wire.marshal_ns", Unit: "ns/op"},
	{Name: "wire.unmarshal_ns", Unit: "ns/op"},
	{Name: "wire.roundtrip_allocs", Unit: "allocs/op"},
	{Name: "store.robinhood.lookup_hit_ns", Unit: "ns/op"},
	{Name: "store.robinhood.lookup_miss_ns", Unit: "ns/op"},
	{Name: "store.robinhood.upsert_ns", Unit: "ns/op"},
	{Name: "store.btree.get_ns", Unit: "ns/op"},
	{Name: "store.btree.insert_ns", Unit: "ns/op"},
	{Name: "store.nicindex.lookup_hit_ns", Unit: "ns/op"},
	{Name: "store.nicindex.lookup_miss_ns", Unit: "ns/op"},
	{Name: "store.nicindex.lock_unlock_ns", Unit: "ns/op"},
	{Name: "store.nicindex.apply_commit_ns", Unit: "ns/op"},
	{Name: "core.shard_apply_ns", Unit: "ns/op"},
	{Name: "core.shard_apply_allocs", Unit: "allocs/op"},
	{Name: "core.shard_apply_ts_ns", Unit: "ns/op"},
	{Name: "workload.next_ns", Unit: "ns/op"},
	{Name: "workload.next_allocs", Unit: "allocs/op"},
	{Name: "metrics.hist_record_ns", Unit: "ns/op"},
	{Name: "check.us_per_txn", Unit: "us/txn"},
	{Name: "trace.overhead_ratio", Unit: "ratio"},
}

// perLayer lists every per-layer metric a traced run reports, in print order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{Name: l + ".host_cpu_share", Unit: "ratio", Better: "lower", Clock: hostClock})
	}
	for _, l := range allocLayers {
		out = append(out, metricDef{Name: l + ".host_alloc_share", Unit: "ratio", Better: "lower", Clock: hostClock})
	}
	out = append(out, simLayer...)
	for _, d := range driverLayer {
		d.Better, d.Clock = "lower", hostClock
		out = append(out, d)
	}
	return out
}
