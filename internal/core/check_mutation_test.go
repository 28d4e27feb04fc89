package core

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"xenic/internal/check"
	"xenic/internal/fault"
	"xenic/internal/sim"
	"xenic/internal/txnmodel"
)

// mutGen issues read-modify-write transactions with two plain (unlocked)
// read keys next to one update key: the shape whose correctness hangs on
// validation, unlike kvGen's update transactions whose whole read set is
// lock-protected from the first EXECUTE round.
type mutGen struct{ kvGen }

func (g *mutGen) Next(node, thread int, rng *rand.Rand) *txnmodel.TxnDesc {
	seen := map[uint64]bool{}
	pick := func() uint64 {
		for {
			k := uint64(rng.Intn(g.keys))
			if !seen[k] {
				seen[k] = true
				return k
			}
		}
	}
	st := make([]byte, 2)
	binary.LittleEndian.PutUint16(st, 1)
	return &txnmodel.TxnDesc{
		NICExec:    g.nicExec,
		ReadKeys:   []uint64{pick(), pick()},
		UpdateKeys: []uint64{pick()},
		FnID:       fnIncr,
		State:      st,
	}
}

// mutantRun drives the contended read-modify-write workload with a history
// attached and returns the checker's report. The caller sets one of the
// mutation knobs (mutation.go) before calling.
func mutantRun(t *testing.T, seed int64) *check.Report {
	t.Helper()
	g := &mutGen{kvGen{keys: 60, nicExec: true}}
	cfg := testConfig(4, AllFeatures())
	cfg.Seed = seed
	h := check.NewHistory()
	cl, err := New(cfg, g, Observers{History: h})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(4 * sim.Millisecond)
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatal("mutant cluster did not drain")
	}
	return h.Check()
}

// requireWitnessCycle asserts the checker produced at least one concrete,
// well-formed witness cycle — the proof the checker is not vacuously green.
func requireWitnessCycle(t *testing.T, rep *check.Report) {
	t.Helper()
	if rep.Ok() {
		t.Fatalf("mutant produced a clean report: %s", rep.String())
	}
	if len(rep.Cycles) == 0 {
		t.Fatalf("mutant detected only anomalies, no witness cycle:\n%s", rep.String())
	}
	c := rep.Cycles[0]
	if len(c.Edges) < 2 && c.Edges[0].From != c.Edges[0].To {
		t.Fatalf("degenerate witness cycle: %s", c.String())
	}
	for i := 1; i < len(c.Edges); i++ {
		if c.Edges[i].From != c.Edges[i-1].To {
			t.Fatalf("witness cycle does not chain: %s", c.String())
		}
	}
	if c.Edges[len(c.Edges)-1].To != c.Edges[0].From {
		t.Fatalf("witness cycle does not close: %s", c.String())
	}
	t.Logf("witness: %s", c.String())
}

const mutantSeed = 44

// TestCheckerCleanWithoutMutation is the control: the exact workload and
// seed the mutants run is serializable when the protocol is intact.
func TestCheckerCleanWithoutMutation(t *testing.T) {
	rep := mutantRun(t, mutantSeed)
	if !rep.Ok() {
		t.Fatalf("unmutated run not clean:\n%s", rep.String())
	}
	if rep.Txns == 0 || rep.Edges == 0 {
		t.Fatalf("control run vacuous: %s", rep.String())
	}
}

// TestCheckerCatchesSkipValidation mutates the coordinator to commit
// without re-checking read-set versions; stale reads must surface as a
// dependency cycle.
func TestCheckerCatchesSkipValidation(t *testing.T) {
	mutSkipValidation = true
	defer func() { mutSkipValidation = false }()
	requireWitnessCycle(t, mutantRun(t, mutantSeed))
}

// TestCheckerCatchesUnlockBeforeLog mutates the coordinator to release all
// locks on entering the log phase, before the writes are durable or
// applied: the classic lost update, visible as mutual ww edges.
func TestCheckerCatchesUnlockBeforeLog(t *testing.T) {
	mutUnlockBeforeLog = true
	defer func() { mutUnlockBeforeLog = false }()
	requireWitnessCycle(t, mutantRun(t, mutantSeed))
}

// TestCheckerCatchesStaleIndexRead mutates commit to skip the NIC-index
// update, leaving cached entries serving pre-commit versions to later
// reads and validations.
func TestCheckerCatchesStaleIndexRead(t *testing.T) {
	mutStaleIndexRead = true
	defer func() { mutStaleIndexRead = false }()
	requireWitnessCycle(t, mutantRun(t, mutantSeed))
}

// snapGen drives the SI-mutant scenario: single-key update transactions (so
// a stalled commit gridlocks only its own key while every other chain keeps
// advancing) mixed with multi-key read-only snapshot transactions.
type snapGen struct{ kvGen }

func (g *snapGen) Next(node, thread int, rng *rand.Rand) *txnmodel.TxnDesc {
	d := &txnmodel.TxnDesc{NICExec: true}
	if rng.Float64() < g.readFrac {
		seen := map[uint64]bool{}
		for len(d.ReadKeys) < 3 {
			k := uint64(rng.Intn(g.keys))
			if !seen[k] {
				seen[k] = true
				d.ReadKeys = append(d.ReadKeys, k)
			}
		}
		return d
	}
	d.UpdateKeys = []uint64{uint64(rng.Intn(g.keys))}
	d.FnID = fnIncr
	st := make([]byte, 2)
	binary.LittleEndian.PutUint16(st, 1)
	d.State = st
	return d
}

// snapMutantRun drives a hot-key single-key-update firehose mixed with
// multi-key read-only transactions over the MVCC snapshot path, with the
// shortest chain depth (so two installs suffice to GC a chain past an open
// snapshot) and staggered NIC core stalls. A stall delays the snapshot reads
// queued at that core while commits flowing through the node's other cores
// keep installing versions ahead of the reads' timestamps: exactly the
// chain-GC race the SI mutants corrupt. The intact protocol aborts such
// reads (StatusAbortSnapshot) and retries them at a fresher timestamp, so
// the control run stays clean.
func snapMutantRun(t *testing.T, seed int64) *check.Report {
	t.Helper()
	g := &snapGen{kvGen{keys: 8, readFrac: 0.25}}
	cfg := testConfig(4, AllFeatures())
	cfg.Seed = seed
	cfg.MVCC = true
	cfg.MVCCKeep = 1
	cfg.Outstanding = 8
	var stalls []fault.CoreStall
	for i := 0; i < 12; i++ {
		stalls = append(stalls, fault.CoreStall{
			Node: i % 4, Core: (i / 4) % 4,
			At:  sim.Time(i+1) * 700 * sim.Microsecond,
			Dur: 200 * sim.Microsecond,
		})
	}
	cfg.Faults = &fault.Plan{CoreStalls: stalls}
	h := check.NewHistory()
	cl, err := New(cfg, g, Observers{History: h})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	cl.Run(10 * sim.Millisecond)
	if !cl.Drain(500 * sim.Millisecond) {
		t.Fatal("snapshot mutant cluster did not drain")
	}
	return h.Check()
}

// requireSIViolation asserts the checker flagged at least one concrete
// snapshot-visibility violation (naming a transaction, key, and the
// version it should have seen) — the witness the SI pass owes us.
func requireSIViolation(t *testing.T, rep *check.Report) {
	t.Helper()
	if rep.Ok() {
		t.Fatalf("mutant produced a clean report: %s", rep.String())
	}
	for _, a := range rep.Anomalies {
		if strings.HasPrefix(a, "SI violation:") {
			t.Logf("witness: %s", a)
			return
		}
	}
	t.Fatalf("mutant flagged no SI violation:\n%s", rep.String())
}

// TestSnapshotCheckerCleanWithoutMutation is the control: the exact
// workload and seed the SI mutants run is clean when the snapshot protocol
// is intact, and actually exercised the snapshot path (non-vacuous).
func TestSnapshotCheckerCleanWithoutMutation(t *testing.T) {
	rep := snapMutantRun(t, mutantSeed)
	if !rep.Ok() {
		t.Fatalf("unmutated snapshot run not clean:\n%s", rep.String())
	}
	if rep.Txns == 0 || rep.Edges == 0 {
		t.Fatalf("control run vacuous: %s", rep.String())
	}
}

// TestCheckerCatchesSnapshotTSAfterRead mutates the snapshot servers to
// re-pick the timestamp as the fan-out proceeds instead of honoring the
// coordinator's choice: commits landing between two shards' reads fracture
// the snapshot, and the SI visibility pass must name the torn read.
func TestCheckerCatchesSnapshotTSAfterRead(t *testing.T) {
	mutSnapshotTSAfterRead = true
	defer func() { mutSnapshotTSAfterRead = false }()
	requireSIViolation(t, snapMutantRun(t, mutantSeed))
}

// TestCheckerCatchesGCIgnoringSnapshots mutates chain GC to ignore open
// snapshots when computing the low-water mark (and chain-miss reads to
// serve the oldest retained version instead of aborting): a long snapshot
// read racing committing updaters observes a version newer than its
// timestamp.
func TestCheckerCatchesGCIgnoringSnapshots(t *testing.T) {
	mutGCIgnoreSnapshots = true
	defer func() { mutGCIgnoreSnapshots = false }()
	requireSIViolation(t, snapMutantRun(t, mutantSeed))
}

// TestCheckerCatchesTrustObserved mutates checkKey to trust the host's
// observed version for a key the NIC index no longer tracks (DESIGN §9's
// TPC-C bug). Two attempts that observed the same row both commit its
// successor version, on the host-local path (the mix) and on the
// distributed blind-write path (the new-order variant) alike.
func TestCheckerCatchesTrustObserved(t *testing.T) {
	mutTrustObserved = true
	defer func() { mutTrustObserved = false }()
	for _, tc := range blindWriteCases {
		t.Run(tc.name, func(t *testing.T) {
			_, rep := blindWriteRun(t, tc.gen(), tc.seed)
			requireWitnessCycle(t, rep)
		})
	}
}
