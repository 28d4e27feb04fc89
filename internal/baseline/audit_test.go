package baseline

import (
	"fmt"
	"regexp"
	"testing"

	"xenic/internal/chassis"
	"xenic/internal/check"
	"xenic/internal/core"
	"xenic/internal/fault"
	"xenic/internal/sim"
	"xenic/internal/store/chained"
	"xenic/internal/store/robinhood"
	"xenic/internal/txnmodel"
	"xenic/internal/wire"
	"xenic/internal/workload/smallbank"
)

// audited is what the drained-state checks need of a cluster, Xenic or
// baseline.
type audited interface {
	Start()
	Run(sim.Time)
	Drain(sim.Time) bool
	Replicas(s int) []chassis.Replica
	ReplicasConsistent() error
	CheckInvariants() error
	AuditHistory() error
}

// built is one system's cluster under test with what the tests reach into:
// a way to take (held) or release a lock on node 0, and each node's
// counters.
type built struct {
	audited
	lock  func(key, owner uint64, held bool)
	stats func(node int) *chassis.Stats
}

// system builds one of the five systems as a three-node cluster over g
// recording into h; maxRetries > 0 replaces the default retry cap.
type system struct {
	name  string
	build func(g txnmodel.Generator, h *check.History, maxRetries int) (built, error)
}

// fiveSystems returns Xenic and the four baselines.
func fiveSystems() []system {
	systems := []system{{"Xenic", func(g txnmodel.Generator, h *check.History, maxRetries int) (built, error) {
		cfg := core.DefaultConfig()
		cfg.Nodes, cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores, cfg.Outstanding = 3, 2, 2, 4, 4
		if maxRetries > 0 {
			cfg.MaxRetries = maxRetries
		}
		cl, err := core.New(cfg, g, core.Observers{History: h})
		if err != nil {
			return built{}, err
		}
		return built{cl, func(key, owner uint64, held bool) {
			if idx := cl.Node(0).Index(); held {
				idx.TryLock(key, owner)
			} else {
				idx.Unlock(key, owner)
			}
		}, func(i int) *chassis.Stats { return cl.Node(i).Stats().Stats }}, nil
	}}}
	for _, sys := range []System{DrTMH, DrTMHNC, FaSST, DrTMR} {
		systems = append(systems, system{sys.String(), func(g txnmodel.Generator, h *check.History, maxRetries int) (built, error) {
			cfg := DefaultConfig(sys)
			cfg.Nodes, cfg.Threads, cfg.Outstanding = 3, 4, 4
			if maxRetries > 0 {
				cfg.MaxRetries = maxRetries
			}
			cl, err := New(cfg, g, Observers{History: h})
			if err != nil {
				return built{}, err
			}
			return built{cl, func(key, owner uint64, held bool) {
				if held {
					cl.nodes[0].tryLock(key, owner)
				} else {
					cl.nodes[0].unlock(key, owner)
				}
			}, func(i int) *chassis.Stats { return cl.nodes[i].Stats() }}, nil
		}})
	}
	return systems
}

// TestDrainedChecksFailWhenTheyShould holds the drained-state checks of all
// five systems to their purpose on a tiny Smallbank cluster: after a short
// run and a drain all three pass; a lock left held at node 0 makes
// AuditHistory name it; one backup key raised a version makes
// ReplicasConsistent and AuditHistory each name that backup's node and
// shard.
func TestDrainedChecksFailWhenTheyShould(t *testing.T) {
	for _, sys := range fiveSystems() {
		t.Run(sys.name, func(t *testing.T) {
			g := smallbank.New()
			g.AccountsPerServer = 500
			h := check.NewHistory()
			cl, err := sys.build(g, h, 0)
			if err != nil {
				t.Fatal(err)
			}
			cl.Start()
			cl.Run(500 * sim.Microsecond)
			if !cl.Drain(200 * sim.Millisecond) {
				t.Fatal("did not drain")
			}
			if h.Len() == 0 {
				t.Fatal("history recorded nothing")
			}
			for name, c := range map[string]func() error{
				"ReplicasConsistent": cl.ReplicasConsistent, "CheckInvariants": cl.CheckInvariants, "AuditHistory": cl.AuditHistory,
			} {
				if err := c(); err != nil {
					t.Fatalf("%s on the drained cluster: %v", name, err)
				}
			}

			key := firstKey(cl.Replicas(0)[0])
			const owner = 0xfeed
			cl.lock(key, owner, true)
			if err := cl.AuditHistory(); !names(err, "orphan lock", fmt.Sprintf("key %d", key), fmt.Sprintf("%#x", owner)) {
				t.Fatalf("AuditHistory with key %d left locked by %#x = %v, want it to name the orphan lock", key, owner, err)
			}
			cl.lock(key, owner, false)

			b := cl.Replicas(1)[1]
			key = firstKey(b)
			v, ver, _ := b.Read(key)
			switch tb := b.Hash.(type) {
			case *robinhood.Table:
				if err := tb.Insert(key, v, ver+1); err != nil {
					t.Fatal(err)
				}
			case *chained.Table:
				tb.Insert(key, v, ver+1)
			default:
				t.Fatalf("backup table is a %T", tb)
			}
			for name, c := range map[string]func() error{"ReplicasConsistent": cl.ReplicasConsistent, "AuditHistory": cl.AuditHistory} {
				if err := c(); !names(err, fmt.Sprintf("node %d", b.Node), "shard 1", fmt.Sprintf("key %d", key)) {
					t.Errorf("%s with key %d at node %d's backup of shard 1 raised to version %d = %v, want it to name that node, shard and key",
						name, key, b.Node, ver+1, err)
				}
			}
		})
	}
}

// TestEveryAttemptRecordsOnce holds every system to one history record per
// finished attempt (DESIGN.md §9): after a fault-free Smallbank run with the
// retry cap lifted (so no attempt is both an abort and a failure) and a
// drain, each node's own records number its commits, aborts and failures,
// and the committed ones its commits. The Xenic MVCC crash-restart cell
// holds the same on every node that never crashed; a crashed node's NIC may
// record attempts whose host died first.
func TestEveryAttemptRecordsOnce(t *testing.T) {
	const lifted = 1 << 30
	for _, sys := range fiveSystems() {
		t.Run(sys.name, func(t *testing.T) {
			g := smallbank.New()
			g.AccountsPerServer = 500
			h := check.NewHistory()
			cl, err := sys.build(g, h, lifted)
			if err != nil {
				t.Fatal(err)
			}
			cl.Start()
			cl.Run(500 * sim.Microsecond)
			if !cl.Drain(200 * sim.Millisecond) {
				t.Fatal("did not drain")
			}
			recordsMatchOutcomes(t, h, cl.stats, []int{0, 1, 2})
		})
	}
	t.Run("Xenic MVCC crash-restart", func(t *testing.T) {
		g := smallbank.New()
		g.AccountsPerServer = 500
		cfg := core.DefaultConfig()
		cfg.Nodes, cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores, cfg.Outstanding = 4, 2, 2, 4, 4
		cfg.MVCC, cfg.MaxRetries = true, lifted
		plan, err := fault.Parse("crash=2@1ms,restart=2@4ms")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plan
		h := check.NewHistory()
		cl, err := core.New(cfg, g, core.Observers{History: h})
		if err != nil {
			t.Fatal(err)
		}
		cl.Start()
		cl.Run(6 * sim.Millisecond)
		if !cl.Drain(500 * sim.Millisecond) {
			t.Fatal("did not drain")
		}
		recordsMatchOutcomes(t, h, func(i int) *chassis.Stats { return cl.Node(i).Stats().Stats }, []int{0, 1, 3})
	})
}

// recordsMatchOutcomes checks, for each of nodes, that its non-recovered
// records number Committed + Aborts + Failed and its committed ones
// Committed.
func recordsMatchOutcomes(t *testing.T, h *check.History, stats func(int) *chassis.Stats, nodes []int) {
	t.Helper()
	recs, ok := map[int]int64{}, map[int]int64{}
	for _, r := range h.Records() {
		if r.Recovered {
			continue
		}
		recs[r.Node]++
		if r.Status == wire.StatusOK {
			ok[r.Node]++
		}
	}
	for _, i := range nodes {
		s := stats(i)
		if s.Committed == 0 {
			t.Errorf("node %d committed nothing", i)
		}
		if want := s.Committed + s.Aborts + s.Failed; recs[i] != want {
			t.Errorf("node %d: %d records for %d commits + %d aborts + %d failures = %d attempts",
				i, recs[i], s.Committed, s.Aborts, s.Failed, want)
		}
		if ok[i] != s.Committed {
			t.Errorf("node %d: %d committed records for %d commits", i, ok[i], s.Committed)
		}
	}
}

// names reports whether err is an error whose message holds each of words,
// none followed by a further digit.
func names(err error, words ...string) bool {
	if err == nil {
		return false
	}
	for _, w := range words {
		if !regexp.MustCompile(regexp.QuoteMeta(w) + `($|\D)`).MatchString(err.Error()) {
			return false
		}
	}
	return true
}

// firstKey returns the first key r's hash table visits.
func firstKey(r chassis.Replica) (key uint64) {
	r.Hash.ForEach(func(k, _ uint64, _ []byte) bool { key = k; return false })
	return key
}
