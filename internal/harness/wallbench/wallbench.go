// Package wallbench measures the harness itself rather than the simulated
// hardware: wall-clock time and cell throughput of a quick experiment
// sweep, peak RSS, and the per-op cost and allocation counts of the engine
// hot paths (event scheduling, frame delivery, DMA completion).
// cmd/xenic-bench -wallbench writes the result as BENCH_harness.json; CI
// compares a fresh run against the committed baseline and fails on
// regression.
package wallbench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"xenic/internal/core"
	"xenic/internal/harness"
	"xenic/internal/model"
	"xenic/internal/pcie"
	"xenic/internal/sim"
	"xenic/internal/simnet"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
	"xenic/internal/workload/smallbank"
)

// EngineBench is one engine hot-path benchmark result.
type EngineBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// MVCCBench is the version-chain overhead A/B: one update-only cell (no
// read-only transactions, so every commit drives the ApplyTS chain hold)
// run on the same runner with MVCC off and then on. Two ratios come out:
//
//   - EventsOverhead: the on/off ratio of simulator events processed. For a
//     fixed seed this is exactly reproducible on any machine, so it is the
//     gated number — it measures the simulated work version chains add to
//     the update path (extra DMA charges, messages, wakeups).
//   - Overhead: the on/off wall-time ratio, reported for humans. Shared
//     1-vCPU CI runners jitter wall time by ±15% run to run, so this only
//     gets the same loose variance allowance as the cells/sec gate.
type MVCCBench struct {
	OffSeconds     float64 `json:"off_seconds"`
	OnSeconds      float64 `json:"on_seconds"`
	Overhead       float64 `json:"overhead"`
	OffEvents      uint64  `json:"off_events"`
	OnEvents       uint64  `json:"on_events"`
	EventsOverhead float64 `json:"events_overhead"`
}

// Result is the BENCH_harness.json document.
type Result struct {
	Experiments []string `json:"experiments"`
	Workers     int      `json:"workers"`
	Seed        int64    `json:"seed"`
	Quick       bool     `json:"quick"`
	Telemetry   bool     `json:"telemetry"`
	GoMaxProcs  int      `json:"gomaxprocs"`

	WallSeconds  float64 `json:"wall_seconds"`
	Cells        int64   `json:"cells"`
	CellsPerSec  float64 `json:"cells_per_sec"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`

	Engine []EngineBench `json:"engine"`
	MVCC   MVCCBench     `json:"mvcc"`
}

// mvccOverheadBudget caps the deterministic simulated-work overhead of the
// update-only A/B cell at 5%: MVCC-on may process at most 5% more simulator
// events than MVCC-off. Event counts are reproducible for a fixed seed, so
// no hardware variance allowance applies to this gate.
const mvccOverheadBudget = 0.05

// DefaultSweep is the experiment set timed by default: small enough for CI,
// broad enough to exercise the cluster, microbench, and store paths.
func DefaultSweep() []string { return []string{"fig2", "fig4", "table2"} }

// Run times a sweep of the named experiments under opt and collects the
// engine hot-path benchmarks. When opt.Telemetry is set, every experiment
// runs with a fresh telemetry collector at the same interval — the point is
// to time the sampling overhead (CI gates telemetry-on cells/sec against a
// telemetry-off baseline), so the collected series are discarded.
func Run(opt harness.Options, ids []string) (*Result, error) {
	res := &Result{
		Experiments: ids,
		Workers:     opt.Workers,
		Seed:        opt.Seed,
		Quick:       opt.Quick,
		Telemetry:   opt.Telemetry != nil,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	exps := make([]*harness.Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := harness.ByID(id)
		if !ok {
			return nil, fmt.Errorf("wallbench: unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	cells0 := harness.CellsRun()
	start := time.Now()
	for _, e := range exps {
		o := opt
		if opt.Telemetry != nil {
			o.Telemetry = harness.NewTelemetryCollector(opt.Telemetry.Interval)
		}
		e.Run(o)
	}
	res.WallSeconds = time.Since(start).Seconds()
	res.Cells = harness.CellsRun() - cells0
	if res.WallSeconds > 0 {
		res.CellsPerSec = float64(res.Cells) / res.WallSeconds
	}
	res.PeakRSSBytes = peakRSS()
	res.Engine = engineBenches()
	res.MVCC = mvccAB(opt.Seed)
	return res, nil
}

// mvccAB times the version-chain A/B cell: an update-only Smallbank cluster
// (ReadOnlyFrac < 0 strips the Balance transactions, so every commit walks
// the ApplyTS chain hold) measured with MVCC off, then on. Single-run wall
// times on shared CI runners are noisy at this scale, so the arms interleave
// over several rounds and each keeps its best time — the floor is the run
// least disturbed by scheduler and GC transients, and both arms' floors are
// comparable.
func mvccAB(seed int64) MVCCBench {
	runArm := func(mvcc bool) (float64, uint64) {
		g := smallbank.New()
		g.AccountsPerServer = 5000
		g.ReadOnlyFrac = -1
		cfg := core.DefaultConfig()
		cfg.Nodes = 4
		cfg.Replication = 3
		cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = 2, 2, 4
		cfg.Outstanding = 8
		cfg.Seed = seed
		cfg.MVCC = mvcc
		cl, err := core.New(cfg, g, core.Observers{})
		if err != nil {
			panic(fmt.Sprintf("wallbench: mvcc A/B cell: %v", err))
		}
		// Collect the previous arm's garbage outside the timed window so
		// neither arm pays GC debt the other one ran up.
		runtime.GC()
		start := time.Now()
		cl.Measure(500*sim.Microsecond, 4*sim.Millisecond)
		return time.Since(start).Seconds(), cl.Engine().Events()
	}
	out := MVCCBench{OffSeconds: -1, OnSeconds: -1}
	for round := 0; round < 3; round++ {
		off, offEv := runArm(false)
		if out.OffSeconds < 0 || off < out.OffSeconds {
			out.OffSeconds = off
		}
		out.OffEvents = offEv
		on, onEv := runArm(true)
		if out.OnSeconds < 0 || on < out.OnSeconds {
			out.OnSeconds = on
		}
		out.OnEvents = onEv
	}
	if out.OffSeconds > 0 {
		out.Overhead = out.OnSeconds / out.OffSeconds
	}
	if out.OffEvents > 0 {
		out.EventsOverhead = float64(out.OnEvents) / float64(out.OffEvents)
	}
	return out
}

// Check compares a fresh result against the committed baseline at path.
// It returns an error when cells/sec fell more than frac below the
// baseline, or when an engine hot path allocates more per op than the
// baseline recorded (the alloc gate is exact: the hot paths are
// allocation-free and must stay that way).
func Check(res *Result, path string, frac float64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Result
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("wallbench: parse baseline %s: %w", path, err)
	}
	if base.CellsPerSec > 0 {
		floor := base.CellsPerSec * (1 - frac)
		if res.CellsPerSec < floor {
			return fmt.Errorf("wallbench: cells/sec regressed: %.2f < floor %.2f (baseline %.2f - %.0f%%)",
				res.CellsPerSec, floor, base.CellsPerSec, 100*frac)
		}
	}
	baseAllocs := map[string]int64{}
	for _, e := range base.Engine {
		baseAllocs[e.Name] = e.AllocsPerOp
	}
	allocs := map[string]int64{}
	for _, e := range res.Engine {
		allocs[e.Name] = e.AllocsPerOp
		if want, ok := baseAllocs[e.Name]; ok && e.AllocsPerOp > want {
			return fmt.Errorf("wallbench: %s allocates %d/op, baseline %d/op", e.Name, e.AllocsPerOp, want)
		}
	}
	// Version-chain gates. The 0-alloc hold: maintaining the chain must add
	// no allocations over the plain apply path (the one fresh-buffer insert
	// in the hash table is the pre-MVCC cost; the chain packs displaced
	// values into a per-key buffer). The work gate: the update-only A/B's
	// deterministic event-count overhead must stay within the fixed budget.
	// The A/B's wall-time ratio is reported but not gated — shared runners
	// jitter wall time far more than any real chain cost, and a CPU-side
	// regression surfaces in the gated cells/sec and alloc numbers anyway.
	if mv, pl, ok := allocsOf(allocs, "store/mvcc-apply", "store/apply"); ok && mv > pl {
		return fmt.Errorf("wallbench: version-chain hold allocates: store/mvcc-apply %d/op > store/apply %d/op", mv, pl)
	}
	if o := res.MVCC.EventsOverhead; o > 1+mvccOverheadBudget {
		return fmt.Errorf("wallbench: MVCC update-path overhead %.1f%% of simulated work exceeds the %.0f%% budget (events off %d, on %d)",
			100*(o-1), 100*mvccOverheadBudget, res.MVCC.OffEvents, res.MVCC.OnEvents)
	}
	return nil
}

// allocsOf fetches two engine benches' allocs/op, reporting whether both ran.
func allocsOf(m map[string]int64, a, b string) (int64, int64, bool) {
	av, aok := m[a]
	bv, bok := m[b]
	return av, bv, aok && bok
}

// engineBenches runs the hot-path microbenchmarks. They mirror the
// Benchmark* functions in the sim, simnet, and pcie packages' test files,
// so the committed BENCH_harness.json tracks the same numbers `go test
// -bench` reports.
func engineBenches() []EngineBench {
	return []EngineBench{
		runBench("sim/schedule", benchSchedule),
		runBench("simnet/frame-delivery", benchFrameDelivery),
		runBench("pcie/dma-completion", benchDMACompletion),
		runBench("store/apply", benchStoreApply),
		runBench("store/mvcc-apply", benchMVCCApply),
	}
}

func runBench(name string, fn func(b *testing.B)) EngineBench {
	r := testing.Benchmark(fn)
	out := EngineBench{Name: name, AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
	if r.N > 0 {
		out.NsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return out
}

// benchSchedule: one event scheduled and dispatched per op.
func benchSchedule(b *testing.B) {
	e := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+1, fn)
		e.Step()
	}
}

// benchFrameDelivery: one frame's full life cycle per op — NewFrame, Send,
// delivery, Recycle.
func benchFrameDelivery(b *testing.B) {
	eng := sim.NewEngine(1)
	nw := simnet.New(eng, model.Default(), 2)
	nw.Attach(0, func(f *simnet.Frame) {})
	nw.Attach(1, func(f *simnet.Frame) { nw.Recycle(f) })
	msg := struct{ x int }{42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := nw.NewFrame()
		f.Src, f.Dst, f.PayloadBytes, f.Flow = 0, 1, 256, 7
		f.Msgs = append(f.Msgs, &msg)
		nw.Send(f)
		eng.RunAll()
	}
}

// benchPlace is the trivial single-shard hash placement for the store
// benchmarks.
type benchPlace struct{}

func (benchPlace) ShardOf(key uint64) int  { return 0 }
func (benchPlace) IsBTree(key uint64) bool { return false }

func benchShard() *core.ShardData {
	spec := txnmodel.StoreSpec{HashSlots: 4096, InlineValueSize: 16, MaxDisplacement: 16}
	return core.NewShardData(spec, benchPlace{})
}

// benchStoreApply: one committed-write install per op on the plain (MVCC-off)
// path — the baseline the version-chain hold is gated against.
func benchStoreApply(b *testing.B) {
	sd := benchShard()
	val := make([]byte, 8)
	sd.Apply(wire.KV{Key: 1, Value: val, Version: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := uint64(2 + i)
		binary.LittleEndian.PutUint64(val, v)
		sd.Apply(wire.KV{Key: 1, Value: val, Version: v})
	}
}

// benchMVCCApply: one committed-write install per op with the key's version
// chain held at its retention cap, so every op displaces the row into the
// chain and recycles the tail entry's buffer. Mirrors core's
// BenchmarkMVCCApplyTS; CI gates its allocs/op to equal store/apply's — the
// chain hold itself must be allocation-free.
func benchMVCCApply(b *testing.B) {
	sd := benchShard()
	const keep = 8
	val := make([]byte, 8)
	for i := uint64(0); i <= keep; i++ {
		binary.LittleEndian.PutUint64(val, i)
		sd.ApplyTS(wire.KV{Key: 1, Value: val, Version: i + 1}, i+1, keep, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := uint64(keep + 2 + i)
		binary.LittleEndian.PutUint64(val, v)
		sd.ApplyTS(wire.KV{Key: 1, Value: val, Version: v}, v, keep, 1)
	}
}

// benchDMACompletion: one vector submission plus completion dispatch per
// op, with the vector reused as the NIC runtime's freelists do.
func benchDMACompletion(b *testing.B) {
	eng := sim.NewEngine(1)
	d := pcie.New(eng, model.Default())
	v := &pcie.Vector{Write: true, Sizes: []int{64, 128, 256, 512}, Complete: func() {}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Submit(0, v)
		eng.RunAll()
	}
}
