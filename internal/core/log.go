package core

import (
	"fmt"
	"iter"
	"math"

	"xenic/internal/wire"
)

// recordKind distinguishes backup log records from primary commit records.
type recordKind uint8

const (
	recBackup recordKind = iota // replicated write set at a backup (§4.2 step 5)
	recCommit                   // committed write set at the primary (§4.2 step 6)
)

// logRecord is one entry in a node's host-memory log, written by the NIC
// via DMA and applied by host worker threads off the critical path.
//
// Backup records are applied only after the transaction's commit point: the
// coordinator piggybacks LogCommit notifications once every backup ack is
// in (FaRM applies at log truncation for the same reason). Undecided
// records stay unapplied so recovery (§4.2.1) can commit or drop them.
type logRecord struct {
	seq   uint64
	kind  recordKind
	txn   uint64
	shard int // shard the writes belong to
	// epoch is the membership view epoch the record was logged under (the
	// Log frame's epoch, or the node's own at append time). The promotion
	// fence drops only records from epochs older than its own: a record a
	// new-view coordinator logs can race the fence frame and must survive it.
	epoch  int
	writes []wire.KV
	// cts is the MVCC commit timestamp the record's writes install at
	// (0 = MVCC off or pre-MVCC record). Stamped at append for commit
	// records; for backup records, stamped by the LogCommit / recovery
	// decision that decides them.
	cts uint64
	// kvTS carries per-KV snapshot-base timestamps for state-transfer chunk
	// records (rejoin re-replication); empty for ordinary records.
	kvTS      []uint64
	committed bool
	dropped   bool
	applied   bool
}

// recordBytes is the DMA-write size of a record: 8B seq + 1B kind + 8B txn
// + 1B shard plus the encoded write set.
func recordBytes(writes []wire.KV) int {
	n := 18
	for _, kv := range writes {
		n += 8 + 8 + 2 + len(kv.Value)
	}
	return n
}

// segSize is the number of records in one log segment. The in-flight log
// (appended, not yet applied or dropped) stays under two segments per node
// on every benchmark workload, so a drained log holds at most one.
const (
	segShift = 10
	segSize  = 1 << segShift
)

// logSegment is segSize consecutive records; record index i lives in segment
// i>>segShift at slot i&(segSize-1).
type logSegment struct {
	recs [segSize]logRecord
	// finished counts the segment's records that are applied or dropped:
	// nothing will claim, decide or apply them again.
	finished int
}

// hostLog is a node's log region in host memory. Records become visible to
// host pollers when the NIC's DMA write completes; worker threads claim
// decided records in order.
//
// The region is a run of fixed-size segments addressed by record index
// (index = seq-1). Once every record of the oldest segment is finished the
// segment is zeroed — releasing the write sets it pinned — and recycled
// through the log's own freelist, unless retain is set.
type hostLog struct {
	segs []*logSegment // live segments, oldest first
	head int           // segment number of segs[0]
	free freelist[logSegment]
	// retain keeps finished records: something may read them back — a
	// recovery vote answered from a decided record (has), or the history
	// audit. Set at construction for fault-plan and history runs, and by
	// Cluster.Kill from the first crash on (DESIGN.md §5).
	retain  bool
	nextSeq uint64
	// byTxn indexes undecided backup records: (txn, shard) -> record indices.
	byTxn map[txnShard]recIdx
	// ready queues indices of decided, unapplied records; its array is
	// reused whenever the queue drains.
	ready []int
	rhead int
	// appliedAnswers counts has() answers served from an applied record: the
	// read-back that the retention rule exists for (retention tests pin it).
	appliedAnswers int
}

type txnShard struct {
	txn   uint64
	shard int
}

// recIdx lists the undecided records under one (txn, shard) key in append
// order. It is almost always one record; more holds the rest (duplicated Log
// frames, state-transfer chunk records, which share key (0, shard)).
type recIdx struct {
	first int
	more  []int
}

func newHostLog(retain bool) *hostLog {
	return &hostLog{byTxn: map[txnShard]recIdx{}, retain: retain}
}

// at returns record idx, which must not have been reclaimed.
func (l *hostLog) at(idx int) *logRecord {
	return &l.segs[idx>>segShift-l.head].recs[idx&(segSize-1)]
}

// append makes a completed record visible and returns its sequence number.
// Commit records are decided by definition; backup records await their
// LogCommit (or a recovery decision).
func (l *hostLog) append(kind recordKind, txn uint64, shard int, writes []wire.KV, epoch int, cts uint64, kvTS []uint64) uint64 {
	idx := int(l.nextSeq)
	l.nextSeq++
	if idx>>segShift-l.head == len(l.segs) {
		l.segs = append(l.segs, l.free.get())
	}
	r := l.at(idx)
	*r = logRecord{seq: l.nextSeq, kind: kind, txn: txn, shard: shard, writes: writes, epoch: epoch, cts: cts, kvTS: kvTS}
	if kind == recCommit {
		r.committed = true
		l.ready = append(l.ready, idx)
		return l.nextSeq
	}
	k := txnShard{txn: txn, shard: shard}
	if e, ok := l.byTxn[k]; ok {
		e.more = append(e.more, idx)
		l.byTxn[k] = e
	} else {
		l.byTxn[k] = recIdx{first: idx}
	}
	return l.nextSeq
}

// finish notes that record idx is applied or dropped — exactly once per
// record — and reclaims every leading segment that is finished throughout.
func (l *hostLog) finish(idx int) {
	l.segs[idx>>segShift-l.head].finished++
	if l.retain && !mutReclaimUnderFaults {
		return
	}
	k := 0
	for ; k < len(l.segs) && l.segs[k].finished == segSize; k++ {
		*l.segs[k] = logSegment{}
		l.free.put(l.segs[k])
	}
	if k > 0 {
		l.segs = l.segs[:copy(l.segs, l.segs[k:])]
		l.head += k
	}
}

// markCommitted moves a transaction's backup records for shard to the
// ready queue, stamping them with the decision's MVCC commit timestamp
// (cts 0 = MVCC off). Idempotent; unknown (txn, shard) is a no-op (the
// LogCommit may arrive before the record's DMA completes — the coordinator
// only sends it after the ack, so in practice the record exists).
func (l *hostLog) markCommitted(txn uint64, shard int, cts uint64) {
	k := txnShard{txn: txn, shard: shard}
	e, ok := l.byTxn[k]
	if !ok {
		return
	}
	l.commitRecord(e.first, cts)
	for _, idx := range e.more {
		l.commitRecord(idx, cts)
	}
	delete(l.byTxn, k)
}

func (l *hostLog) commitRecord(idx int, cts uint64) {
	r := l.at(idx)
	r.committed = true
	if cts != 0 {
		r.cts = cts
	}
	l.ready = append(l.ready, idx)
}

// drop discards a transaction's undecided backup records for shard
// (recovery decided abort).
func (l *hostLog) drop(txn uint64, shard int) {
	l.dropBefore(txn, shard, math.MaxInt)
}

// dropBefore discards a transaction's undecided backup records for shard
// stamped with an epoch older than fence (the promotion fence). Records a
// new-view coordinator logged concurrently with the fence keep their epoch
// and survive; their own LogCommit or abort decision resolves them.
func (l *hostLog) dropBefore(txn uint64, shard, fence int) {
	k := txnShard{txn: txn, shard: shard}
	e, ok := l.byTxn[k]
	if !ok {
		return
	}
	firstKept := !l.dropIfBefore(e.first, fence)
	kept := e.more[:0]
	for _, idx := range e.more {
		if !l.dropIfBefore(idx, fence) {
			kept = append(kept, idx)
		}
	}
	switch {
	case firstKept:
		l.byTxn[k] = recIdx{first: e.first, more: kept}
	case len(kept) > 0:
		l.byTxn[k] = recIdx{first: kept[0], more: kept[1:]}
	default:
		delete(l.byTxn, k)
	}
}

// dropIfBefore drops undecided record idx if its epoch is older than fence.
func (l *hostLog) dropIfBefore(idx, fence int) bool {
	r := l.at(idx)
	if r.epoch >= fence {
		return false
	}
	r.dropped = true
	l.finish(idx)
	return true
}

// has reports whether the log holds a backup record for (txn, shard) —
// decided or not — and returns its writes (recovery queries). Undecided
// records answer from the index; a decided record answers only while the
// log still holds it, which retain guarantees wherever recovery can ask.
func (l *hostLog) has(txn uint64, shard int) ([]wire.KV, bool) {
	if e, ok := l.byTxn[txnShard{txn: txn, shard: shard}]; ok {
		return l.at(e.first).writes, true
	}
	for r := range l.records() {
		if r.kind == recBackup && r.txn == txn && r.shard == shard && !r.dropped {
			if r.applied {
				l.appliedAnswers++
			}
			return r.writes, true
		}
	}
	return nil, false
}

// records iterates over every record the log still holds, oldest first.
func (l *hostLog) records() iter.Seq[*logRecord] {
	return func(yield func(*logRecord) bool) {
		for si, s := range l.segs {
			n := min(int(l.nextSeq)-(l.head+si)<<segShift, segSize)
			for i := range s.recs[:n] {
				if !yield(&s.recs[i]) {
					return
				}
			}
		}
	}
}

// undecided lists (txn, writes) of undecided backup records for shard.
func (l *hostLog) undecided(shard int) []txnShard {
	var out []txnShard
	for k := range l.byTxn {
		if k.shard == shard {
			out = append(out, k)
		}
	}
	// Deterministic order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].txn < out[j-1].txn; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// claim hands the next decided, unapplied record to a worker and finishes
// it. The record is returned by value: its segment may be recycled before
// the caller is done applying it.
func (l *hostLog) claim() (logRecord, bool) {
	if l.rhead == len(l.ready) {
		return logRecord{}, false
	}
	idx := l.ready[l.rhead]
	l.rhead++
	if l.rhead == len(l.ready) {
		l.ready, l.rhead = l.ready[:0], 0
	}
	r := l.at(idx)
	r.applied = true
	rec := *r
	l.finish(idx)
	return rec, true
}

// checkDrained verifies that a quiesced log has reclaimed itself: no record
// is left undecided and at most one segment — the partly filled tail — is
// live. A record stuck undecided pins its segment and every later one, which
// is the unbounded log again. Logs in retain mode keep everything by design.
func (l *hostLog) checkDrained() error {
	if l.retain {
		return nil
	}
	if len(l.byTxn) > 0 {
		return fmt.Errorf("%d undecided record keys after drain", len(l.byTxn))
	}
	if len(l.segs) > 1 {
		return fmt.Errorf("%d live segments after drain (records %d..%d), want at most 1",
			len(l.segs), l.head<<segShift, l.nextSeq)
	}
	return nil
}

// pending reports decided records awaiting application.
func (l *hostLog) pending() int { return len(l.ready) - l.rhead }
