package harness

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"
)

// renderReport serializes everything an experiment reports — the printed
// table, the typed cells, and the stats snapshots — into one byte string.
func renderReport(t *testing.T, id string, opt Options) []byte {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	opt.Stats = NewStatsCollector()
	r := e.Run(opt)
	var buf bytes.Buffer
	r.Print(&buf)
	for _, v := range []any{r.Cells, opt.Stats.Snaps} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// checkSerialParallelIdentical runs one experiment serially and on eight
// workers and requires byte-identical output.
func checkSerialParallelIdentical(t *testing.T, id string, seed int64) {
	t.Helper()
	serial := renderReport(t, id, Options{Quick: true, Seed: seed, Workers: 1})
	parallel := renderReport(t, id, Options{Quick: true, Seed: seed, Workers: 8})
	if !bytes.Equal(serial, parallel) {
		t.Errorf("%s seed %d: serial and parallel runs diverge\n--- serial ---\n%s--- parallel ---\n%s",
			id, seed, serial, parallel)
	}
}

// TestSerialParallelIdentical is the harness's core guarantee: Workers
// changes wall-clock time only. Reports, typed cells, and stats snapshots
// must be byte-identical between serial and parallel runs, across seeds.
func TestSerialParallelIdentical(t *testing.T) {
	for _, id := range []string{"fig4", "ablate-k"} {
		for seed := int64(1); seed <= 3; seed++ {
			checkSerialParallelIdentical(t, id, seed)
		}
	}
}

// TestSerialParallelIdenticalStats covers an experiment whose cells record
// stats snapshots, so the "#N" duplicate-label resolution is exercised
// through the merge path.
func TestSerialParallelIdenticalStats(t *testing.T) {
	checkSerialParallelIdentical(t, "ablate-cache", 1)
}

// TestRunCellsStopsOnFirstError: a panicking cell stops further dispatch,
// and the panic with the lowest cell index wins at any worker count.
func TestRunCellsStopsOnFirstError(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 4} {
		var executed atomic.Int64
		got := func() (v any) {
			defer func() { v = recover() }()
			runCells(Options{Workers: workers}, n, func(i int, o Options) int {
				executed.Add(1)
				if i == 3 {
					panic("boom 3")
				}
				if i == 10 {
					panic("boom 10")
				}
				time.Sleep(time.Millisecond)
				return i
			})
			return nil
		}()
		if got != "boom 3" {
			t.Fatalf("workers=%d: panic %v, want lowest-index \"boom 3\"", workers, got)
		}
		if executed.Load() >= n {
			t.Errorf("workers=%d: pool dispatched all %d cells after a failure", workers, n)
		}
	}
}

// TestRunCellsNoStatsMergeOnFailure: a failed pool must not leak partial
// stats into the caller's collector.
func TestRunCellsNoStatsMergeOnFailure(t *testing.T) {
	stats := NewStatsCollector()
	func() {
		defer func() { recover() }()
		runCells(Options{Workers: 4, Stats: stats}, 8, func(i int, o Options) int {
			o.Stats.snaps.add("cell", i)
			if i == 2 {
				panic("fail")
			}
			return i
		})
	}()
	if len(stats.Snaps) != 0 {
		t.Errorf("failed pool merged %d snapshots into caller's collector", len(stats.Snaps))
	}
}

// TestRunCellsResultOrder: results land in cell order regardless of
// completion order.
func TestRunCellsResultOrder(t *testing.T) {
	got := runCells(Options{Workers: 8}, 32, func(i int, o Options) int {
		time.Sleep(time.Duration(31-i) * time.Millisecond) // finish in reverse
		return i * i
	})
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}
