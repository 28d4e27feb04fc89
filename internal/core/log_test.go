package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"xenic/internal/sim"
	"xenic/internal/wire"
)

// refLog is the host log as one slice that is never truncated — the
// implementation the segmented log replaced, kept as the model the
// segmented one is checked against. has also returns the index it answered
// from, so the test can tell whether the real log had reclaimed that record.
type refLog struct {
	records []logRecord
	byTxn   map[txnShard][]int
	ready   []int
	rhead   int
}

func (l *refLog) append(kind recordKind, txn uint64, shard int, writes []wire.KV, epoch int, cts uint64, kvTS []uint64) uint64 {
	idx := len(l.records)
	rec := logRecord{seq: uint64(idx + 1), kind: kind, txn: txn, shard: shard, writes: writes, epoch: epoch, cts: cts, kvTS: kvTS}
	rec.committed = kind == recCommit
	l.records = append(l.records, rec)
	if kind == recCommit {
		l.ready = append(l.ready, idx)
	} else {
		k := txnShard{txn: txn, shard: shard}
		l.byTxn[k] = append(l.byTxn[k], idx)
	}
	return rec.seq
}

func (l *refLog) markCommitted(txn uint64, shard int, cts uint64) {
	k := txnShard{txn: txn, shard: shard}
	for _, idx := range l.byTxn[k] {
		if r := &l.records[idx]; !r.committed && !r.dropped {
			r.committed = true
			if cts != 0 {
				r.cts = cts
			}
			l.ready = append(l.ready, idx)
		}
	}
	delete(l.byTxn, k)
}

func (l *refLog) dropBefore(txn uint64, shard, fence int) {
	k := txnShard{txn: txn, shard: shard}
	var kept []int
	for _, idx := range l.byTxn[k] {
		if l.records[idx].epoch < fence {
			l.records[idx].dropped = true
		} else {
			kept = append(kept, idx)
		}
	}
	if l.byTxn[k] = kept; len(kept) == 0 {
		delete(l.byTxn, k)
	}
}

func (l *refLog) has(txn uint64, shard int) (writes []wire.KV, idx int, ok bool) {
	if idxs := l.byTxn[txnShard{txn: txn, shard: shard}]; len(idxs) > 0 {
		return l.records[idxs[0]].writes, idxs[0], true
	}
	for i := range l.records {
		if r := &l.records[i]; r.kind == recBackup && r.txn == txn && r.shard == shard && !r.dropped {
			return r.writes, i, true
		}
	}
	return nil, 0, false
}

func (l *refLog) claim() (logRecord, bool) {
	for l.rhead < len(l.ready) {
		r := &l.records[l.ready[l.rhead]]
		l.rhead++
		if !r.dropped && !r.applied {
			r.applied = true
			return *r, true
		}
	}
	return logRecord{}, false
}

// logPair drives the segmented log and the model with the same operations
// and fails the test at the first answer that differs.
type logPair struct {
	t   *testing.T
	log *hostLog
	ref *refLog
	n   int // appends so far; names each record's write set
}

func newLogPair(t *testing.T, retain bool) *logPair {
	return &logPair{t: t, log: newHostLog(retain), ref: &refLog{byTxn: map[txnShard][]int{}}}
}

func (p *logPair) append(kind recordKind, txn uint64, shard, epoch int, cts uint64) {
	p.t.Helper()
	p.n++
	writes := []wire.KV{{Key: uint64(p.n), Version: txn}}
	var kvTS []uint64
	if txn == 0 {
		kvTS = []uint64{uint64(p.n)}
	}
	got := p.log.append(kind, txn, shard, writes, epoch, cts, kvTS)
	if want := p.ref.append(kind, txn, shard, writes, epoch, cts, kvTS); got != want {
		p.t.Fatalf("append %d: seq %d, model %d", p.n, got, want)
	}
}

func (p *logPair) markCommitted(txn uint64, shard int, cts uint64) {
	p.log.markCommitted(txn, shard, cts)
	p.ref.markCommitted(txn, shard, cts)
}

func (p *logPair) drop(txn uint64, shard int) {
	p.log.drop(txn, shard)
	p.ref.dropBefore(txn, shard, math.MaxInt)
}

func (p *logPair) dropBefore(txn uint64, shard, fence int) {
	p.log.dropBefore(txn, shard, fence)
	p.ref.dropBefore(txn, shard, fence)
}

func (p *logPair) claim() bool {
	p.t.Helper()
	got, ok := p.log.claim()
	want, wantOK := p.ref.claim()
	if ok != wantOK || !reflect.DeepEqual(got, want) {
		p.t.Fatalf("claim after %d appends: (%+v, %v), model (%+v, %v)", p.n, got, ok, want, wantOK)
	}
	return ok
}

// has compares the two answers. They must agree unless the model answered
// from a record the segmented log has reclaimed: then — and only then — the
// log may miss, or answer from a later record under the same key.
func (p *logPair) has(txn uint64, shard int) {
	p.t.Helper()
	got, ok := p.log.has(txn, shard)
	want, idx, wantOK := p.ref.has(txn, shard)
	if wantOK && idx < p.log.head<<segShift {
		return
	}
	if ok != wantOK || !reflect.DeepEqual(got, want) {
		p.t.Fatalf("has(%d,%d) after %d appends: (%v, %v), model (%v, %v) from record %d",
			txn, shard, p.n, got, ok, want, wantOK, idx)
	}
}

func (p *logPair) observe(shards int) {
	p.t.Helper()
	if got, want := p.log.pending(), len(p.ref.ready)-p.ref.rhead; got != want {
		p.t.Fatalf("pending after %d appends: %d, model %d", p.n, got, want)
	}
	for s := 0; s < shards; s++ {
		var want []txnShard
		for k := range p.ref.byTxn {
			if k.shard == s {
				want = append(want, k)
			}
		}
		slices.SortFunc(want, func(a, b txnShard) int { return int(a.txn) - int(b.txn) })
		if got := p.log.undecided(s); !slices.Equal(got, want) {
			p.t.Fatalf("undecided(%d) after %d appends: %v, model %v", s, p.n, got, want)
		}
	}
}

// TestHostLogAgainstModel drives the segmented log and the slice model with
// seeded random operation sequences: every return value must match, except
// that a log allowed to reclaim may miss in has on a reclaimed record.
// retainFrom is the operation at which the log starts retaining (Kill flips
// it mid-run); 0 retains from construction, -1 never.
func TestHostLogAgainstModel(t *testing.T) {
	const (
		shards = 3
		ops    = 40_000
	)
	for _, retainFrom := range []int{0, -1, ops / 2} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("retainFrom=%d/seed=%d", retainFrom, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				p := newLogPair(t, retainFrom == 0)
				var open []txnShard // keys appended and not yet decided by this driver
				nextTxn := uint64(1)
				pick := func() txnShard {
					if len(open) == 0 || rng.Intn(20) == 0 {
						// Unknown or long-decided key: every operation must shrug.
						return txnShard{txn: uint64(rng.Intn(int(nextTxn) + 1)), shard: rng.Intn(shards)}
					}
					// Mostly the oldest keys, so head segments do finish.
					i := rng.Intn(min(len(open), 8))
					k := open[i]
					open = slices.Delete(open, i, i+1)
					return k
				}
				for op := 0; op < ops; op++ {
					if op == retainFrom {
						p.log.retain = true
					}
					switch x := rng.Intn(100); {
					case x < 26: // backup record: fresh key, repeated key, or a (0, shard) chunk
						k := txnShard{txn: nextTxn, shard: rng.Intn(shards)}
						switch y := rng.Intn(10); {
						case y == 0 && len(open) > 0:
							k = open[rng.Intn(len(open))]
						case y == 1:
							k.txn = 0
						default:
							nextTxn++
						}
						p.append(recBackup, k.txn, k.shard, 1+rng.Intn(3), 0)
						open = append(open, k)
					case x < 34:
						p.append(recCommit, nextTxn, rng.Intn(shards), 1, uint64(rng.Intn(2))*uint64(op))
						nextTxn++
					case x < 58:
						k := pick()
						p.markCommitted(k.txn, k.shard, uint64(rng.Intn(2))*uint64(op))
					case x < 62:
						k := pick()
						p.drop(k.txn, k.shard)
					case x < 65:
						k := pick()
						p.dropBefore(k.txn, k.shard, 1+rng.Intn(4))
						if len(p.ref.byTxn[k]) > 0 {
							open = append(open, k) // a record at or past the fence survived
						}
					case x < 97:
						p.claim()
					default:
						p.has(uint64(rng.Intn(int(nextTxn)+1)), rng.Intn(shards))
						p.observe(shards)
					}
				}
				// Settle: decide what is open, apply what is decided.
				for _, k := range open {
					p.markCommitted(k.txn, k.shard, 0)
				}
				for p.claim() {
				}
				p.observe(shards)
				for txn := uint64(0); txn < nextTxn; txn += 97 {
					p.has(txn, int(txn)%shards)
				}
				live := len(p.log.segs)
				switch {
				case retainFrom == 0 && (p.log.head != 0 || len(p.log.free.free) != 0):
					t.Fatalf("retaining log reclaimed: head %d, %d free segments", p.log.head, len(p.log.free.free))
				case retainFrom == -1 && live > 1:
					t.Fatalf("settled log holds %d segments of %d records, want at most 1", live, p.n)
				case retainFrom == -1 && p.log.head < 5:
					t.Fatalf("only %d segments reclaimed over %d records: the run did not exercise recycling", p.log.head, p.n)
				case retainFrom > 0 && (p.log.head == 0 || live < 2):
					t.Fatalf("mid-run retain: head %d, %d live segments — want reclamation before the flip, none after", p.log.head, live)
				}
				if err := p.log.checkDrained(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestHostLogSegmentBoundary fills exactly one segment, and one record more,
// and applies everything: a full finished segment is zeroed and parked on the
// freelist, and the next append takes it back instead of allocating.
func TestHostLogSegmentBoundary(t *testing.T) {
	for _, n := range []int{segSize, segSize + 1} {
		p := newLogPair(t, false)
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				p.append(recCommit, uint64(i+1), 0, 1, 0)
			} else {
				p.append(recBackup, uint64(i+1), 1, 1, 0)
				p.markCommitted(uint64(i+1), 1, 7)
			}
		}
		if len(p.log.segs) != (n+segSize-1)/segSize {
			t.Fatalf("%d records: %d segments before any apply", n, len(p.log.segs))
		}
		first := p.log.segs[0]
		for p.claim() {
		}
		if got, want := len(p.log.segs), n-segSize; got != want {
			t.Fatalf("%d records applied: %d live segments, want %d", n, got, want)
		}
		if p.log.head != 1 || len(p.log.free.free) != 1 || p.log.free.free[0] != first {
			t.Fatalf("%d records applied: head %d, freelist %v, want the first segment parked", n, p.log.head, p.log.free.free)
		}
		if first.finished != 0 {
			t.Fatalf("recycled segment keeps finished=%d", first.finished)
		}
		for i := range first.recs {
			if r := &first.recs[i]; r.seq != 0 || r.writes != nil || r.kvTS != nil || r.applied {
				t.Fatalf("recycled segment slot %d not cleared: %+v", i, *r)
			}
		}
		p.has(2, 1) // reclaimed: the log may miss, the model still answers
		if _, ok := p.log.has(2, 1); ok {
			t.Fatal("has answered from a reclaimed record")
		}

		// Reclaim-then-append: the parked segment comes back, indices carry on.
		for i := n; i < n+segSize; i++ {
			p.append(recBackup, uint64(i+1), 2, 1, 0)
		}
		if len(p.log.free.free) != 0 || !slices.Contains(p.log.segs, first) {
			t.Fatalf("%d records then %d more: freed segment not reused (segs %d, free %d)",
				n, segSize, len(p.log.segs), len(p.log.free.free))
		}
		p.has(uint64(n+1), 2)
		p.markCommitted(uint64(n+1), 2, 0)
		if !p.claim() {
			t.Fatal("record appended into a reused segment was not claimable")
		}
		p.observe(3)
		// The rest stay undecided and pin their segments: the leak that
		// CheckInvariants must report.
		if err := p.log.checkDrained(); err == nil {
			t.Fatalf("checkDrained accepted %d undecided keys over %d segments", len(p.log.byTxn), len(p.log.segs))
		}
	}
}

// TestDrainedLogHoldsOneSegment is the log's footprint bound: on a
// fault-free cluster every node's log runs through many segments, and after
// a clean Drain each has shrunk back to its partly filled tail — nothing
// undecided, at most one live segment, a freelist no longer than the
// in-flight window ever was. CheckInvariants makes the same check wherever
// it is called (the benchmark's verify step among them).
func TestDrainedLogHoldsOneSegment(t *testing.T) {
	g := &kvGen{keys: 2000, keysPer: 3, readFrac: 0.1, nicExec: true}
	cl := runCounters(t, g, testConfig(4, AllFeatures()), 3*sim.Millisecond)
	for _, n := range cl.nodes {
		l := n.log
		if err := l.checkDrained(); err != nil {
			t.Fatalf("node %d: %v", n.id, err)
		}
		if l.retain {
			t.Fatalf("node %d: log retains on a fault-free cluster without a history", n.id)
		}
		if l.head < 2 {
			t.Fatalf("node %d: only %d segments reclaimed over %d records: the run is too short to show anything", n.id, l.head, l.nextSeq)
		}
		live, free := len(l.segs), len(l.free.free)
		t.Logf("node %d: %d records, %d live + %d free segments", n.id, l.nextSeq, live, free)
		if live+free > 3 {
			t.Fatalf("node %d: %d live + %d free segments after %d records, want at most 3", n.id, live, free, l.nextSeq)
		}
	}
}
