package nicrt

import (
	"sort"

	"xenic/internal/sim"
	"xenic/internal/wire"
)

// Scheduler is the conflict-aware NIC-core dispatcher (ROADMAP: Octopus-style
// scheduling on NIC cores). Instead of hashing every transaction-start frame
// straight to a core, the scheduler batches incoming starts, tracks per-key
// hotness with an O(1) decayed counter, and predicts conflicts from the
// declared read/write sets on the start frame. Transactions that would race
// on a hot key are serialized: the first claims the key, later arrivals park
// in a FIFO behind it and are admitted when the owner completes, which turns
// OCC abort/retry storms into orderly queueing. Independent transactions
// spread across live cores exactly like the legacy hash dispatch.
//
// Determinism: all state changes happen on the simulation engine (batch
// flushes and shed deadlines are engine timers; admissions and releases run
// inside protocol callbacks), waiter queues are FIFO, claim sets are sorted,
// and the hotness map is only ever iterated for order-independent deletions
// — so runs are byte-identical at any -j and across repeats of a seed.
//
// A nil scheduler (the default) leaves the NIC's legacy dispatch untouched
// byte-for-byte.
type Scheduler struct {
	nic *NIC
	eng *sim.Engine
	cfg SchedConfig

	heat      map[uint64]heatEntry
	nextSweep sim.Time

	batch      []*schedTxn
	flushArmed bool

	owner   map[uint64]int         // hot key -> in-flight holders (<= MaxOwners)
	claims  map[uint64][]uint64    // txn id -> claimed keys, sorted
	waiters map[uint64][]*schedTxn // hot key -> parked txns, FIFO

	parkedNow int
	gen       int // bumped on Reset so stale timers no-op

	// onShed delivers a parked transaction back to the protocol layer as an
	// abort (StatusAbortSched) when it waited past ShedAfter; installed by
	// the coordinator so the reply path stays protocol-owned.
	onShed func(req *wire.TxnRequest)

	stats SchedStats
}

// SchedConfig tunes the conflict-aware scheduler.
type SchedConfig struct {
	// BatchWindow is how long transaction starts accumulate before a flush
	// admits the batch in arrival order. 0 flushes at the same instant they
	// arrive (still via an engine timer, so intra-instant arrivals batch).
	BatchWindow sim.Time
	// HotThreshold is the decayed touch count at or above which a key counts
	// as hot; only hot keys are claimed and serialized.
	HotThreshold int
	// DecayHalfLife halves a key's touch count each elapsed interval.
	DecayHalfLife sim.Time
	// ShedAfter bounds how long a transaction may stay parked behind hot-key
	// owners before it is shed back to the host as StatusAbortSched. A
	// liveness backstop; generous enough to be rare under plain contention.
	ShedAfter sim.Time
	// MaxOwners is how many in-flight transactions may hold the same hot
	// key at once. The default of 1 is strict serialization; claims
	// already release at validation end (not close), which restores the
	// commit-tail overlap a second owner would otherwise buy. Measured:
	// 2 admits enough racing to give back most of the abort reduction.
	MaxOwners int
	// MaxTracked softly bounds the hotness map; cold entries are swept when
	// the map exceeds it (at most once per half-life).
	MaxTracked int
}

// DefaultSchedConfig returns the tuning used by the -sched flag defaults.
func DefaultSchedConfig() SchedConfig {
	return SchedConfig{
		BatchWindow:   2 * sim.Microsecond,
		HotThreshold:  8,
		DecayHalfLife: 50 * sim.Microsecond,
		ShedAfter:     2 * sim.Millisecond,
		MaxOwners:     1,
		MaxTracked:    1 << 15,
	}
}

// SchedStats counts scheduler events.
type SchedStats struct {
	Submitted  int64 // txn-start frames routed through the scheduler
	Batches    int64 // batch flushes
	Dispatched int64 // admitted to a core
	HotRouted  int64 // dispatched owning at least one hot key (serialized route)
	Parked     int64 // park events, including re-parks behind a second owner
	Shed       int64 // parked past ShedAfter and aborted back to the host
}

type schedState uint8

const (
	schedQueued schedState = iota
	schedParked
	schedDispatched
	schedShed
)

// schedTxn is one transaction start moving through the scheduler.
type schedTxn struct {
	req    *wire.TxnRequest
	reads  []uint64
	writes []uint64
	state  schedState
	timed  bool // shed deadline armed
}

type heatEntry struct {
	count uint32
	last  sim.Time
}

// NewScheduler creates a scheduler; attach it with NIC.SetScheduler.
func NewScheduler(eng *sim.Engine, cfg SchedConfig) *Scheduler {
	if cfg.HotThreshold <= 0 {
		cfg.HotThreshold = DefaultSchedConfig().HotThreshold
	}
	if cfg.DecayHalfLife <= 0 {
		cfg.DecayHalfLife = DefaultSchedConfig().DecayHalfLife
	}
	if cfg.ShedAfter <= 0 {
		cfg.ShedAfter = DefaultSchedConfig().ShedAfter
	}
	if cfg.MaxOwners <= 0 {
		cfg.MaxOwners = DefaultSchedConfig().MaxOwners
	}
	if cfg.MaxTracked <= 0 {
		cfg.MaxTracked = DefaultSchedConfig().MaxTracked
	}
	return &Scheduler{
		eng:     eng,
		cfg:     cfg,
		heat:    map[uint64]heatEntry{},
		owner:   map[uint64]int{},
		claims:  map[uint64][]uint64{},
		waiters: map[uint64][]*schedTxn{},
	}
}

// OnShed installs the protocol callback that aborts a shed transaction back
// to the host. Must be set before traffic flows when shedding can trigger.
func (s *Scheduler) OnShed(fn func(req *wire.TxnRequest)) { s.onShed = fn }

// Stats returns a copy of the counters.
func (s *Scheduler) Stats() SchedStats { return s.stats }

// QueueDepth reports transactions currently held by the scheduler: batched
// awaiting a flush plus parked behind hot-key owners. A telemetry gauge.
func (s *Scheduler) QueueDepth() int { return len(s.batch) + s.parkedNow }

// ParkedNow reports the number of currently parked transactions.
func (s *Scheduler) ParkedNow() int { return s.parkedNow }

// TrackedKeys reports the hotness map's current size.
func (s *Scheduler) TrackedKeys() int { return len(s.heat) }

// HotKeys reports how many tracked keys are currently at or above the hot
// threshold (decayed to now). O(tracked); stats/debug only.
func (s *Scheduler) HotKeys() int {
	now := s.eng.Now()
	hot := 0
	for _, e := range s.heat {
		if int(decayedCount(e, now, s.cfg.DecayHalfLife)) >= s.cfg.HotThreshold {
			hot++
		}
	}
	return hot
}

// Snapshot returns the scheduler's counters and gauges for the stats
// registry.
func (s *Scheduler) Snapshot() map[string]any {
	return map[string]any{
		"submitted":    s.stats.Submitted,
		"batches":      s.stats.Batches,
		"dispatched":   s.stats.Dispatched,
		"hot_routed":   s.stats.HotRouted,
		"parked":       s.stats.Parked,
		"shed":         s.stats.Shed,
		"queue_depth":  s.QueueDepth(),
		"tracked_keys": len(s.heat),
	}
}

// Reset wipes all scheduler state for a node restart. In-flight batch and
// shed timers from before the reset are fenced by a generation check; parked
// transactions are dropped (their host threads were failed with the node).
func (s *Scheduler) Reset() {
	s.gen++
	s.batch = nil
	s.flushArmed = false
	s.parkedNow = 0
	s.heat = map[uint64]heatEntry{}
	s.owner = map[uint64]int{}
	s.claims = map[uint64][]uint64{}
	s.waiters = map[uint64][]*schedTxn{}
}

// fromHost splits one host PCIe packet: transaction starts enter the batch
// queue, everything else (execution resumes, acks) takes the legacy path
// unchanged — later-phase messages must not queue behind admission.
func (s *Scheduler) fromHost(ms []wire.Msg) {
	var rest []wire.Msg
	for _, m := range ms {
		if req, ok := m.(*wire.TxnRequest); ok {
			s.submit(req)
			continue
		}
		rest = append(rest, m)
	}
	if len(rest) > 0 {
		s.nic.deliverHostPacket(rest)
	}
	if done := s.nic.hostPktDone; done != nil {
		done(ms) // split above; nothing retains the packet itself
	}
}

// submit enqueues one transaction start and arms the batch flush timer.
func (s *Scheduler) submit(req *wire.TxnRequest) {
	s.stats.Submitted++
	t := &schedTxn{req: req}
	t.reads = req.ReadHints(nil)
	t.writes = req.WriteHints(nil)
	s.batch = append(s.batch, t)
	if !s.flushArmed {
		s.flushArmed = true
		gen := s.gen
		s.eng.After(s.cfg.BatchWindow, func() {
			if gen != s.gen {
				return
			}
			s.flush()
		})
	}
}

// flush admits the accumulated batch in arrival order: touch hotness for
// every declared key, then dispatch or park each transaction.
func (s *Scheduler) flush() {
	s.flushArmed = false
	batch := s.batch
	s.batch = nil
	s.stats.Batches++
	now := s.eng.Now()
	for _, t := range batch {
		for _, k := range t.reads {
			s.touch(k, now)
		}
		for _, k := range t.writes {
			s.touch(k, now)
		}
	}
	for _, t := range batch {
		s.admit(t, now)
	}
}

// admit dispatches t if none of its declared keys is owned by an in-flight
// hot-key claimant, parking it FIFO behind the smallest conflicting key
// otherwise. Parked transactions own nothing, so there are no wait cycles.
func (s *Scheduler) admit(t *schedTxn, now sim.Time) {
	if t.state == schedShed {
		return
	}
	if k, conflict := s.conflictKey(t); conflict {
		t.state = schedParked
		s.waiters[k] = append(s.waiters[k], t)
		s.parkedNow++
		s.stats.Parked++
		if !t.timed {
			t.timed = true
			gen := s.gen
			s.eng.After(s.cfg.ShedAfter, func() {
				if gen != s.gen {
					return
				}
				s.maybeShed(t)
			})
		}
		return
	}
	s.dispatch(t, now)
}

// conflictKey returns the smallest declared key whose owner slots are all
// taken by in-flight transactions. Both reads and writes conflict with a
// saturated (written) key: serializing a reader behind the writers avoids
// the validation abort its stale read would cause.
func (s *Scheduler) conflictKey(t *schedTxn) (uint64, bool) {
	best, found := uint64(0), false
	for _, k := range t.reads {
		if s.owner[k] >= s.cfg.MaxOwners && (!found || k < best) {
			best, found = k, true
		}
	}
	for _, k := range t.writes {
		if s.owner[k] >= s.cfg.MaxOwners && (!found || k < best) {
			best, found = k, true
		}
	}
	return best, found
}

// dispatch claims t's currently-hot write keys and hands the start frame to
// a core: transactions claiming hot keys are routed by their smallest hot
// key (co-locating conflicters on one core), independents by the legacy
// txn-id hash so uncontended load spreads exactly as before.
func (s *Scheduler) dispatch(t *schedTxn, now sim.Time) {
	var claim []uint64
	for _, k := range t.writes {
		if !s.isHot(k, now) || containsKey(claim, k) {
			continue
		}
		s.owner[k]++
		claim = append(claim, k)
	}
	t.state = schedDispatched
	s.stats.Dispatched++
	var idx int
	if len(claim) > 0 {
		sort.Slice(claim, func(i, j int) bool { return claim[i] < claim[j] })
		s.claims[t.req.TxnID] = claim
		s.stats.HotRouted++
		idx = int(hash64(claim[0]) % uint64(len(s.nic.cores)))
	} else {
		idx = int(hash64(t.req.TxnID) % uint64(len(s.nic.cores)))
	}
	c := s.nic.liveCoreFrom(idx)
	if c == nil {
		// Same terminal behavior as the legacy dispatch with no live cores.
		s.nic.stats.DeadDrops++
		s.release(t.req.TxnID, now)
		return
	}
	c.inHost = append(c.inHost, []wire.Msg{t.req})
	c.poller.Wake()
}

// done releases the keys claimed by a completed transaction and re-admits
// its waiters in FIFO order. Called from the protocol layer exactly once per
// transaction close; unknown ids (nothing claimed) are no-ops, so the hook
// is safe on every close path including fence drops.
func (s *Scheduler) done(txn uint64) { s.release(txn, s.eng.Now()) }

func (s *Scheduler) release(txn uint64, now sim.Time) {
	claim, ok := s.claims[txn]
	if !ok {
		return
	}
	delete(s.claims, txn)
	for _, k := range claim {
		if s.owner[k] <= 1 {
			delete(s.owner, k)
		} else {
			s.owner[k]--
		}
	}
	// Wake waiters key by key in sorted claim order; each re-admission may
	// claim keys itself, re-parking later waiters deterministically.
	for _, k := range claim {
		q := s.waiters[k]
		if len(q) == 0 {
			continue
		}
		delete(s.waiters, k)
		for _, w := range q {
			if w.state != schedParked {
				continue
			}
			s.parkedNow--
			w.state = schedQueued
			s.admit(w, now)
		}
	}
}

// maybeShed aborts t back to the host if it is still parked when its shed
// deadline fires. The queue entry is left in place and skipped lazily.
func (s *Scheduler) maybeShed(t *schedTxn) {
	if t.state != schedParked {
		return
	}
	t.state = schedShed
	s.parkedNow--
	s.stats.Shed++
	if s.onShed == nil {
		panic("nicrt: scheduler shed with no OnShed handler installed")
	}
	s.onShed(t.req)
}

// touch bumps k's decayed hotness counter at now.
func (s *Scheduler) touch(k uint64, now sim.Time) {
	e, ok := s.heat[k]
	if !ok && len(s.heat) >= s.cfg.MaxTracked && now >= s.nextSweep {
		s.sweep(now)
	}
	if ok {
		e = decay(e, now, s.cfg.DecayHalfLife)
	} else {
		e = heatEntry{last: now}
	}
	if e.count < 1<<30 {
		e.count++
	}
	s.heat[k] = e
}

// isHot reports whether k's decayed count is at or above the hot threshold.
func (s *Scheduler) isHot(k uint64, now sim.Time) bool {
	e, ok := s.heat[k]
	if !ok {
		return false
	}
	return int(decayedCount(e, now, s.cfg.DecayHalfLife)) >= s.cfg.HotThreshold
}

// Heat returns k's decayed touch count at the current instant (tests).
func (s *Scheduler) Heat(k uint64) int {
	e, ok := s.heat[k]
	if !ok {
		return 0
	}
	return int(decayedCount(e, s.eng.Now(), s.cfg.DecayHalfLife))
}

// sweep deletes entries that have decayed to zero. Deletion order over the
// map does not affect the result, so determinism holds. Runs at most once
// per half-life; the map bound is soft between sweeps.
func (s *Scheduler) sweep(now sim.Time) {
	s.nextSweep = now + s.cfg.DecayHalfLife
	for k, e := range s.heat {
		if decayedCount(e, now, s.cfg.DecayHalfLife) == 0 {
			delete(s.heat, k)
		}
	}
}

// decay applies the elapsed half-lives to e, keeping the remainder interval
// so sub-half-life touches still accumulate decay across calls.
func decay(e heatEntry, now sim.Time, halfLife sim.Time) heatEntry {
	halv := (now - e.last) / halfLife
	if halv <= 0 {
		return e
	}
	if halv >= 32 {
		e.count = 0
	} else {
		e.count >>= uint(halv)
	}
	e.last += halv * halfLife
	return e
}

func decayedCount(e heatEntry, now sim.Time, halfLife sim.Time) uint32 {
	return decay(e, now, halfLife).count
}

// containsKey reports whether ks (a tiny claim list) already holds k.
func containsKey(ks []uint64, k uint64) bool {
	for _, v := range ks {
		if v == k {
			return true
		}
	}
	return false
}
