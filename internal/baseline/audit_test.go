package baseline

import (
	"fmt"
	"regexp"
	"testing"

	"xenic/internal/chassis"
	"xenic/internal/check"
	"xenic/internal/core"
	"xenic/internal/sim"
	"xenic/internal/store/chained"
	"xenic/internal/store/robinhood"
	"xenic/internal/txnmodel"
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

// TestDrainedChecksFailWhenTheyShould holds the drained-state checks of all
// five systems to their purpose on a tiny Smallbank cluster: after a short
// run and a drain all three pass; a lock left held at node 0 makes
// AuditHistory name it; one backup key raised a version makes
// ReplicasConsistent and AuditHistory each name that backup's node and
// shard.
func TestDrainedChecksFailWhenTheyShould(t *testing.T) {
	type system struct {
		name string
		// build returns the cluster and a way to take (held) or release a
		// lock on node 0.
		build func(g txnmodel.Generator, h *check.History) (audited, func(key, owner uint64, held bool), error)
	}
	systems := []system{{"Xenic", func(g txnmodel.Generator, h *check.History) (audited, func(uint64, uint64, bool), error) {
		cfg := core.DefaultConfig()
		cfg.Nodes, cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores, cfg.Outstanding = 3, 2, 2, 4, 4
		cl, err := core.New(cfg, g, core.Observers{History: h})
		if err != nil {
			return nil, nil, err
		}
		return cl, func(key, owner uint64, held bool) {
			if idx := cl.Node(0).Index(); held {
				idx.TryLock(key, owner)
			} else {
				idx.Unlock(key, owner)
			}
		}, nil
	}}}
	for _, sys := range []System{DrTMH, DrTMHNC, FaSST, DrTMR} {
		systems = append(systems, system{sys.String(), func(g txnmodel.Generator, h *check.History) (audited, func(uint64, uint64, bool), error) {
			cfg := DefaultConfig(sys)
			cfg.Nodes, cfg.Threads, cfg.Outstanding = 3, 4, 4
			cl, err := New(cfg, g, Observers{History: h})
			if err != nil {
				return nil, nil, err
			}
			return cl, func(key, owner uint64, held bool) {
				if held {
					cl.nodes[0].tryLock(key, owner)
				} else {
					cl.nodes[0].unlock(key, owner)
				}
			}, nil
		}})
	}
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			g := smallbank.New()
			g.AccountsPerServer = 500
			h := check.NewHistory()
			cl, lock, err := sys.build(g, h)
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
			lock(key, owner, true)
			if err := cl.AuditHistory(); !names(err, "orphan lock", fmt.Sprintf("key %d", key), fmt.Sprintf("%#x", owner)) {
				t.Fatalf("AuditHistory with key %d left locked by %#x = %v, want it to name the orphan lock", key, owner, err)
			}
			lock(key, owner, false)

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
