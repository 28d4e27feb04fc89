package harness

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"

	"xenic/internal/sim"
)

func quick() Options { return Options{Quick: true, Seed: 1} }

func runByID(t *testing.T, id string) *Report {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	r := e.Run(quick())
	if r.ID != id || len(r.Rows) == 0 {
		t.Fatalf("%s produced empty report", id)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), id) {
		t.Fatalf("%s report did not print", id)
	}
	return r
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig2", "fig3", "fig4", "fig8a", "fig8b", "fig8c", "fig8d",
		"fig9a", "fig9b", "table1", "table2", "table3",
		"ablate-cache", "ablate-dm", "ablate-k", "availability", "chaos", "checksweep",
		"mvcc", "slo"}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestAblateDm(t *testing.T) {
	r := runByID(t, "ablate-dm")
	// Bytes per lookup grow with Dm; overflow shrinks with Dm.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-2] // Dm=4 vs Dm=64
	if cell(t, first[1]) >= cell(t, last[1]) {
		t.Errorf("bytes/lookup did not grow with Dm: %s vs %s", first[1], last[1])
	}
	ov4 := cell(t, strings.TrimSuffix(first[3], "%"))
	ov64 := cell(t, strings.TrimSuffix(last[3], "%"))
	if ov4 <= ov64 {
		t.Errorf("overflow did not shrink with Dm: %.2f vs %.2f", ov4, ov64)
	}
}

func TestAblateK(t *testing.T) {
	r := runByID(t, "ablate-k")
	// Second-read rate decreases with k; objects per lookup increase.
	r0 := cell(t, strings.TrimSuffix(r.Rows[0][1], "%"))
	r1 := cell(t, strings.TrimSuffix(r.Rows[1][1], "%"))
	r4 := cell(t, strings.TrimSuffix(r.Rows[len(r.Rows)-1][1], "%"))
	if r0 <= r4 {
		t.Errorf("second-read rate did not drop with k: k=0 %.3f vs k=4 %.3f", r0, r4)
	}
	// k=1 removes most of k=0's second reads (the paper's observation that
	// d_i rarely grows by more than one).
	if r1 > r0/2 {
		t.Errorf("k=1 second-read rate %.3f%% not well below k=0's %.3f%%", r1, r0)
	}
}

func TestAblateCacheQuick(t *testing.T) {
	r := runByID(t, "ablate-cache")
	// Larger caches hit more.
	small := cell(t, strings.TrimSuffix(r.Rows[0][3], "%"))
	big := cell(t, strings.TrimSuffix(r.Rows[len(r.Rows)-1][3], "%"))
	if big <= small {
		t.Errorf("hit rate did not grow with cache: %.1f%% vs %.1f%%", small, big)
	}
}

// TestAvailabilityQuick runs the crash→promotion→restart→re-replication
// timeline once and checks the acceptance criteria: the replication factor
// is restored (with a reported time-to-restore), throughput recovers to at
// least 90% of the pre-crash steady state, and the arc shows in the
// telemetry series — cluster.alive dips and ends at its maximum, and
// cluster.epoch advances. The report renders from the same run.
func TestAvailabilityQuick(t *testing.T) {
	opt := quick()
	opt.Telemetry = NewTelemetryCollector(0)
	out := availabilityCell(opt, 1)
	if out.err != nil {
		t.Fatalf("availability run failed: %v", out.err)
	}
	if !out.drained {
		t.Fatal("availability run did not drain")
	}
	if out.restoredAt == 0 {
		t.Fatal("replication factor never restored")
	}
	if out.restoredAt <= out.restartAt {
		t.Fatalf("replication restored at %v, before the restart at %v", out.restoredAt, out.restartAt)
	}
	last := out.series[len(out.series)-1]
	if last.repl != 3 {
		t.Fatalf("final min replication factor %d, want 3", last.repl)
	}
	if last.epoch == 0 {
		t.Fatal("view epoch never moved despite eviction and rejoin")
	}
	if out.preTput == 0 || out.postTput == 0 {
		t.Fatalf("steady states not measured: pre=%.0f post=%.0f", out.preTput, out.postTput)
	}
	if ratio := out.recoveryRatio(); ratio < 0.9 {
		t.Fatalf("throughput recovered to only %.0f%% of pre-crash steady state", ratio*100)
	}

	set := opt.Telemetry.Sets["availability"]
	if set == nil {
		t.Fatal("no telemetry recorded for the availability cell")
	}
	series := map[string][]float64{}
	for _, s := range set.Series {
		series[s.Name] = s.Vals
	}
	alive, epoch := series["cluster.alive"], series["cluster.epoch"]
	if len(alive) == 0 || len(epoch) == 0 {
		t.Fatalf("cluster.alive (%d samples) or cluster.epoch (%d samples) missing", len(alive), len(epoch))
	}
	if lo, hi := slices.Min(alive), slices.Max(alive); !(lo < hi && alive[len(alive)-1] == hi) {
		t.Errorf("no crash -> restore arc in cluster.alive: min %g, max %g, last %g", lo, hi, alive[len(alive)-1])
	}
	if epoch[len(epoch)-1] <= epoch[0] {
		t.Errorf("cluster.epoch never advanced: %g -> %g", epoch[0], epoch[len(epoch)-1])
	}

	r := availabilityReport(opt, out)
	if len(r.Rows) < 10 {
		t.Fatalf("availability time series has only %d buckets", len(r.Rows))
	}
	if len(r.Bottlenecks) == 0 {
		t.Error("no bottleneck verdict for the availability cell")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "availability") {
		t.Fatal("availability report did not print")
	}
}

// cell parses a numeric prefix like "3.43" or "12.5us" or "710k".
func cell(t *testing.T, s string) float64 {
	t.Helper()
	mult := 1.0
	s = strings.TrimSpace(s)
	switch {
	case strings.HasSuffix(s, "us"):
		s = strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "M"):
		s = strings.TrimSuffix(s, "M")
		mult = 1e6
	case strings.HasSuffix(s, "k"):
		s = strings.TrimSuffix(s, "k")
		mult = 1e3
	case strings.HasSuffix(s, "x"):
		s = strings.TrimSuffix(s, "x")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v * mult
}

func TestFig2Shapes(t *testing.T) {
	r := runByID(t, "fig2")
	vals := map[string]float64{}
	for _, row := range r.Rows {
		vals[row[0]+"/"+row[1]+"/host"] = cell(t, row[2])
		if row[3] != "n/a" {
			vals[row[0]+"/"+row[1]+"/nic"] = cell(t, row[3])
		}
	}
	// CX5 WRITE ~3.5us (§3.2).
	if w := vals["CX5/WRITE/host"]; w < 2.8 || w > 4.2 {
		t.Errorf("CX5 WRITE %vus, want ~3.5", w)
	}
	// One-sided RDMA beats host-sourced LiquidIO equivalents.
	if vals["CX5/READ/host"] >= vals["LiquidIO/Read/host"] {
		t.Errorf("RDMA READ %v !< LiquidIO Read %v", vals["CX5/READ/host"], vals["LiquidIO/Read/host"])
	}
	// NIC-sourced LiquidIO RPC beats two-sided RDMA RPC (§3.2).
	if vals["LiquidIO/NIC RPC/nic"] >= vals["CX5/Host RPC/host"] {
		t.Errorf("NIC-sourced NIC RPC %v !< two-sided RDMA RPC %v",
			vals["LiquidIO/NIC RPC/nic"], vals["CX5/Host RPC/host"])
	}
	// NIC-sourced ops beat host-sourced (PCIe crossings removed).
	if vals["LiquidIO/NIC RPC/nic"] >= vals["LiquidIO/NIC RPC/host"] {
		t.Error("NIC-sourced not faster than host-sourced")
	}
	// Host RPC is the slowest LiquidIO op (§3.2).
	if vals["LiquidIO/Host RPC/host"] <= vals["LiquidIO/Write/host"] {
		t.Error("host RPC not slower than DMA write op")
	}
}

func TestFig3Shapes(t *testing.T) {
	r := runByID(t, "fig3")
	// Columns: size, batched NIC, single NIC, batched host, single host, CX5.
	first := r.Rows[0]            // 16B
	last := r.Rows[len(r.Rows)-1] // 256B
	bn16, sn16 := cell(t, first[1]), cell(t, first[2])
	bh16, sh16 := cell(t, first[3]), cell(t, first[4])
	cx16, cx256 := cell(t, first[5]), cell(t, last[5])

	if bn16 < 4*sn16 {
		t.Errorf("batched NIC-mem gain at 16B only %.1fx", bn16/sn16)
	}
	if bh16 < 2*sh16 {
		t.Errorf("batched host-mem gain at 16B only %.1fx", bh16/sh16)
	}
	if bn16 < bh16 {
		t.Error("NIC-memory writes should outpace host-memory writes (no DMA)")
	}
	// CX5 is flat across sizes (message-rate bound, §3.4)...
	if cx256 < cx16*0.7 || cx256 > cx16*1.3 {
		t.Errorf("CX5 not flat: %.1fM vs %.1fM", cx16/1e6, cx256/1e6)
	}
	// ...and below batched LiquidIO at small sizes.
	if cx16 >= bn16 {
		t.Errorf("CX5 %.1fM >= batched LiquidIO %.1fM at 16B", cx16/1e6, bn16/1e6)
	}
}

func TestFig4Shapes(t *testing.T) {
	r := runByID(t, "fig4")
	first := r.Rows[0]
	t1, t15 := cell(t, first[1]), cell(t, first[2])
	if t15 < 4*t1 {
		t.Errorf("vectoring gain %.1fx at 16B", t15/t1)
	}
	// Single-element rate is the 8.7M submission cap.
	if t1 < 7e6 || t1 > 9.2e6 {
		t.Errorf("single-element rate %.1fM, want ~8.7M", t1/1e6)
	}
}

func TestTable1Shapes(t *testing.T) {
	r := runByID(t, "table1")
	if cell(t, r.Rows[0][4]) < 3.0 {
		t.Error("multi-thread ratio below 3x")
	}
}

func TestTable2Shapes(t *testing.T) {
	r := runByID(t, "table2")
	get := func(prefix string) (float64, float64) {
		for _, row := range r.Rows {
			if strings.HasPrefix(row[0], prefix) {
				return cell(t, row[1]), cell(t, row[2])
			}
		}
		t.Fatalf("row %q missing", prefix)
		return 0, 0
	}
	dm8Obj, dm8RT := get("Xenic Robinhood, Dm=8")
	noLimObj, noLimRT := get("Xenic Robinhood, no limit")
	hopObj, _ := get("FaRM Hopscotch")
	c4Obj, c4RT := get("DrTM+H Chained, B=4")
	c16Obj, c16RT := get("DrTM+H Chained, B=16")

	if dm8Obj >= noLimObj {
		t.Error("Dm=8 should read fewer objects than unlimited")
	}
	if dm8RT <= noLimRT {
		t.Error("Dm=8 should take more roundtrips than unlimited")
	}
	if hopObj < 8 {
		t.Errorf("Hopscotch reads %.2f objects, must be >= H=8", hopObj)
	}
	if dm8Obj >= hopObj {
		t.Error("Xenic Dm=8 should read fewer objects than Hopscotch")
	}
	// Chained rows match the paper closely.
	if c4Obj < 4.2 || c4Obj > 5.2 || c4RT < 1.1 || c4RT > 1.25 {
		t.Errorf("chained B=4: %.2f obj %.3f rt, paper 4.65/1.16", c4Obj, c4RT)
	}
	if c16Obj < 16 || c16Obj > 18 || c16RT > 1.1 {
		t.Errorf("chained B=16: %.2f obj %.3f rt, paper 16.96/1.06", c16Obj, c16RT)
	}
}

// fig8Window measures the named systems of Figure 8 panel id at one
// offered-load window with runFig8's quick warmup and window, returning
// per-server throughput by system. The full quick curves are pinned byte for
// byte by testdata/identity.json; tier-1 asserts only the shape.
func fig8Window(id string, window int, systems ...string) map[string]float64 {
	s, opt := setupFor(id), quick()
	var specs []curveSpec
	for _, spec := range fig8Specs(s, opt) {
		if slices.Contains(systems, spec.name) {
			specs = append(specs, spec)
		}
	}
	series := runCurves(s, opt, specs, []int{window}, 1*sim.Millisecond, 3*sim.Millisecond)
	tput := map[string]float64{}
	for i, spec := range specs {
		tput[spec.name] = series[i][0].tput
	}
	return tput
}

// TestFig8QuickRuns: Xenic out-runs DrTM+H on Retwis and Smallbank at window
// 128, DrTM+H's Smallbank peak in the quick sweep.
func TestFig8QuickRuns(t *testing.T) {
	for _, id := range []string{"fig8c", "fig8d"} {
		tput := fig8Window(id, 128, "Xenic", "DrTM+H")
		if tput["Xenic"] <= tput["DrTM+H"] {
			t.Errorf("%s: Xenic %.0f <= DrTM+H %.0f at window 128", id, tput["Xenic"], tput["DrTM+H"])
		}
	}
}

// TestFig8TPCCQuickRuns: on TPC-C new-order Xenic out-runs DrTM+H at window
// 12, DrTM+H's peak in the quick sweep, and FaSST commits.
func TestFig8TPCCQuickRuns(t *testing.T) {
	tput := fig8Window("fig8a", 12, "Xenic", "DrTM+H", "FaSST")
	if tput["Xenic"] <= tput["DrTM+H"] {
		t.Errorf("fig8a: Xenic %.0f <= DrTM+H %.0f at window 12", tput["Xenic"], tput["DrTM+H"])
	}
	if tput["FaSST"] <= 0 {
		t.Error("fig8a: FaSST produced nothing")
	}
}

func TestFig9aQuick(t *testing.T) {
	r := runByID(t, "fig9a")
	// Cumulative feature gains are monotonic.
	var tputs []float64
	for _, row := range r.Rows[1:] {
		tputs = append(tputs, cell(t, row[1]))
	}
	if len(tputs) != 4 {
		t.Fatalf("want 4 xenic rows, got %d", len(tputs))
	}
	if tputs[3] <= tputs[0] {
		t.Errorf("full feature set %.0f not above baseline %.0f", tputs[3], tputs[0])
	}
}

// TestSLOQuick checks the open-loop hockey stick's shape: Xenic's p99 at
// the top offered-load fraction exceeds its low-load p99 (queueing past the
// knee), and the admission cell — same rate, queue-depth policy — stays
// below the unadmitted p99 while rejecting the excess.
func TestSLOQuick(t *testing.T) {
	r := runByID(t, "slo")
	// Quick mode: 3 fractions x 2 systems + 1 admission cell = 7 rows.
	if len(r.Cells) != 7 {
		t.Fatalf("want 7 rows, got %d", len(r.Cells))
	}
	p99 := func(i int) float64 { return r.Cells[i][7].Value.(float64) }
	low, top, adm := p99(0), p99(2), p99(6)
	if top <= low {
		t.Errorf("no hockey stick: p99 at 1.4xC %.1fus <= p99 at 0.3xC %.1fus", top, low)
	}
	if adm >= top {
		t.Errorf("admission did not bound p99: admitted %.1fus >= unadmitted %.1fus", adm, top)
	}
	if rej := r.Cells[6][5].Value.(float64); rej <= 0 {
		t.Errorf("admission cell rejected nothing at 1.4xC")
	}
}

func TestFig9bQuick(t *testing.T) {
	r := runByID(t, "fig9b")
	var lats []float64
	for _, row := range r.Rows[1:] {
		lats = append(lats, cell(t, row[1]))
	}
	if len(lats) != 4 {
		t.Fatalf("want 4 xenic rows, got %d", len(lats))
	}
	if lats[3] >= lats[0] {
		t.Errorf("full feature set latency %.1f not below baseline %.1f", lats[3], lats[0])
	}
}
