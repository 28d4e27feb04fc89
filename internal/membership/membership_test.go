package membership

import (
	"testing"

	"xenic/internal/model"
	"xenic/internal/sim"
)

func setup(t *testing.T) (*sim.Engine, *Manager) {
	t.Helper()
	eng := sim.NewEngine(1)
	m := New(eng, 6, 3)
	return eng, m
}

// renewAllExcept keeps every node but the listed ones renewing.
func renewAllExcept(eng *sim.Engine, m *Manager, dead map[int]bool) {
	for i := 0; i < 6; i++ {
		i := i
		eng.Ticker(model.LeaseRenewPeriod, func() bool {
			if !dead[i] {
				m.Renew(i)
			}
			return true
		})
	}
}

func TestInitialView(t *testing.T) {
	_, m := setup(t)
	v := m.View()
	if v.Epoch != 0 {
		t.Fatalf("epoch %d", v.Epoch)
	}
	for s := 0; s < 6; s++ {
		if v.PrimaryOf[s] != s {
			t.Fatalf("shard %d primary %d", s, v.PrimaryOf[s])
		}
		if len(v.BackupsOf[s]) != 2 || v.BackupsOf[s][0] != (s+1)%6 {
			t.Fatalf("shard %d backups %v", s, v.BackupsOf[s])
		}
	}
}

func TestNoChangeWhileRenewing(t *testing.T) {
	eng, m := setup(t)
	m.Start()
	changes := 0
	m.OnChange(func(View) { changes++ })
	renewAllExcept(eng, m, map[int]bool{})
	eng.Run(20 * sim.Millisecond)
	if changes != 0 {
		t.Fatalf("%d spurious view changes", changes)
	}
}

func TestPrimaryFailover(t *testing.T) {
	eng, m := setup(t)
	m.Start()
	var views []View
	m.OnChange(func(v View) { views = append(views, v) })
	dead := map[int]bool{}
	renewAllExcept(eng, m, dead)
	eng.Run(3 * sim.Millisecond)
	dead[2] = true // node 2 stops renewing
	eng.Run(20 * sim.Millisecond)

	if len(views) == 0 {
		t.Fatal("no view change after lease expiry")
	}
	v := views[len(views)-1]
	if v.Alive[2] {
		t.Fatal("node 2 still alive")
	}
	// Shard 2's primary fails over to node 3 (first backup).
	if v.PrimaryOf[2] != 3 {
		t.Fatalf("shard 2 primary %d, want 3", v.PrimaryOf[2])
	}
	if len(v.BackupsOf[2]) != 1 || v.BackupsOf[2][0] != 4 {
		t.Fatalf("shard 2 backups %v, want [4]", v.BackupsOf[2])
	}
	// Shards 0 and 1 lose node 2 as a backup.
	if len(v.BackupsOf[0]) != 1 || v.BackupsOf[0][0] != 1 {
		t.Fatalf("shard 0 backups %v", v.BackupsOf[0])
	}
	if len(v.BackupsOf[1]) != 1 || v.BackupsOf[1][0] != 3 {
		t.Fatalf("shard 1 backups %v", v.BackupsOf[1])
	}
	// Unrelated shard untouched.
	if v.PrimaryOf[5] != 5 || len(v.BackupsOf[5]) != 2 {
		t.Fatalf("shard 5 disturbed: %d %v", v.PrimaryOf[5], v.BackupsOf[5])
	}
	if v.Epoch < 1 {
		t.Fatalf("epoch %d", v.Epoch)
	}
}

func TestDeadNodeCannotRenew(t *testing.T) {
	eng, m := setup(t)
	m.Start()
	dead := map[int]bool{}
	renewAllExcept(eng, m, dead)
	eng.Run(3 * sim.Millisecond)
	dead[0] = true
	eng.Run(10 * sim.Millisecond)
	if m.View().Alive[0] {
		t.Fatal("node 0 alive")
	}
	m.Renew(0) // zombie renewal must be ignored
	eng.Run(10 * sim.Millisecond)
	if m.View().Alive[0] {
		t.Fatal("dead node resurrected by renewal")
	}
}

func TestDoubleFailure(t *testing.T) {
	eng, m := setup(t)
	m.Start()
	dead := map[int]bool{}
	renewAllExcept(eng, m, dead)
	eng.Run(3 * sim.Millisecond)
	dead[2] = true
	dead[3] = true
	eng.Run(20 * sim.Millisecond)
	v := m.View()
	// Shard 2: chain 2,3,4 -> primary 4, no backups left.
	if v.PrimaryOf[2] != 4 || len(v.BackupsOf[2]) != 0 {
		t.Fatalf("shard 2: primary %d backups %v", v.PrimaryOf[2], v.BackupsOf[2])
	}
	// Shard 1: chain 1,2,3 -> primary 1, no backups.
	if v.PrimaryOf[1] != 1 || len(v.BackupsOf[1]) != 0 {
		t.Fatalf("shard 1: primary %d backups %v", v.PrimaryOf[1], v.BackupsOf[1])
	}
}

func TestRejoinAdmit(t *testing.T) {
	eng, m := setup(t)
	m.Start()
	var views []View
	m.OnChange(func(v View) { views = append(views, v) })
	dead := map[int]bool{}
	renewAllExcept(eng, m, dead)
	eng.Run(3 * sim.Millisecond)
	dead[2] = true
	eng.Run(20 * sim.Millisecond)
	failEpoch := m.View().Epoch

	// Phase 1: re-register. The node is alive and joining — its lease
	// renews, but it serves no replicas yet.
	m.Rejoin(2)
	dead[2] = false
	eng.Run(21 * sim.Millisecond)
	v := m.View()
	if !v.Alive[2] || !v.Joining[2] {
		t.Fatalf("after Rejoin: alive=%v joining=%v", v.Alive[2], v.Joining[2])
	}
	if v.Epoch <= failEpoch {
		t.Fatalf("join did not bump epoch: %d <= %d", v.Epoch, failEpoch)
	}
	joinEpoch := v.Epoch
	if v.JoinedEpoch[2] != joinEpoch {
		t.Fatalf("JoinedEpoch %d, want %d", v.JoinedEpoch[2], joinEpoch)
	}
	for s := 0; s < 6; s++ {
		if v.PrimaryOf[s] == 2 {
			t.Fatalf("joining node serves shard %d as primary", s)
		}
		for _, b := range v.BackupsOf[s] {
			if b == 2 {
				t.Fatalf("joining node serves shard %d as backup", s)
			}
		}
	}

	// Joining is not a lease: without Admit the node stays joining.
	eng.Run(26 * sim.Millisecond)
	if v := m.View(); !v.Joining[2] {
		t.Fatal("node admitted without Admit")
	}

	// Phase 2: admit. The node re-enters its old chain positions as a
	// backup; the promoted primary keeps serving (stable-primary rule).
	m.Admit(2)
	eng.Run(27 * sim.Millisecond)
	v = m.View()
	if v.Joining[2] {
		t.Fatal("still joining after Admit")
	}
	if v.PrimaryOf[2] != 3 {
		t.Fatalf("rejoiner reclaimed primaryship: shard 2 primary %d, want 3", v.PrimaryOf[2])
	}
	if len(v.BackupsOf[2]) != 2 || v.BackupsOf[2][0] != 2 || v.BackupsOf[2][1] != 4 {
		t.Fatalf("shard 2 backups %v, want [2 4]", v.BackupsOf[2])
	}
	// Shards 0 and 1 regain node 2 as a backup: replication restored.
	if len(v.BackupsOf[0]) != 2 || len(v.BackupsOf[1]) != 2 {
		t.Fatalf("replication not restored: %v %v", v.BackupsOf[0], v.BackupsOf[1])
	}
	// The join epoch is sticky until the next rejoin.
	if v.JoinedEpoch[2] != joinEpoch {
		t.Fatalf("JoinedEpoch moved to %d after Admit", v.JoinedEpoch[2])
	}
	// Epochs observed by subscribers are strictly monotonic.
	for i := 1; i < len(views); i++ {
		if views[i].Epoch <= views[i-1].Epoch {
			t.Fatalf("epoch regressed: %d after %d", views[i].Epoch, views[i-1].Epoch)
		}
	}
}

func TestRejoinAdmitNoOps(t *testing.T) {
	eng, m := setup(t)
	m.Start()
	renewAllExcept(eng, m, map[int]bool{})
	eng.Run(3 * sim.Millisecond)
	before := m.View().Epoch
	m.Rejoin(1) // already alive
	m.Admit(1)  // not joining
	eng.Run(4 * sim.Millisecond)
	if got := m.View().Epoch; got != before {
		t.Fatalf("no-op join changed epoch %d -> %d", before, got)
	}
}

func TestJoiningNodeEvictedOnLeaseLapse(t *testing.T) {
	eng, m := setup(t)
	m.Start()
	dead := map[int]bool{}
	renewAllExcept(eng, m, dead)
	eng.Run(3 * sim.Millisecond)
	dead[2] = true
	eng.Run(20 * sim.Millisecond)

	// Rejoin but never renew: the fresh lease lapses mid-catch-up and the
	// joining node is evicted like any other member.
	m.Rejoin(2)
	eng.Run(30 * sim.Millisecond)
	v := m.View()
	if v.Alive[2] || v.Joining[2] {
		t.Fatalf("lapsed joiner not evicted: alive=%v joining=%v", v.Alive[2], v.Joining[2])
	}
	// A later Admit of the evicted node must be a no-op.
	before := v.Epoch
	m.Admit(2)
	eng.Run(31 * sim.Millisecond)
	if got := m.View().Epoch; got != before {
		t.Fatalf("Admit of evicted node changed epoch %d -> %d", before, got)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(sim.NewEngine(1), 1, 1)
}
