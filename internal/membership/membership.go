// Package membership implements the cluster manager Xenic relies on for
// reconfiguration (§4.2.1): "Xenic uses a typical Zookeeper-based cluster
// manager to determine membership. Each node holds a lease with the cluster
// manager, and lease expiration triggers reconfiguration." The manager runs
// off the critical path: nodes renew leases periodically, a checker expires
// stale leases, and each reconfiguration produces a new view with an
// incremented epoch in which every failed primary is replaced by its first
// surviving backup.
package membership

import (
	"fmt"

	"xenic/internal/model"
	"xenic/internal/sim"
)

// View is one configuration epoch.
type View struct {
	Epoch int
	// Alive[i] reports node i's membership.
	Alive []bool
	// Joining[i] marks a restarted node that has re-registered (messages
	// flow, its lease renews) but is still catching up via state transfer;
	// it serves no replicas until admitted.
	Joining []bool
	// JoinedEpoch[i] is the epoch of node i's most recent (re)join — 0 for
	// nodes alive since boot. Fencing drops frames stamped with an older
	// epoch than the endpoint's join.
	JoinedEpoch []int
	// PrimaryOf[s] is the node currently serving shard s.
	PrimaryOf []int
	// BackupsOf[s] lists the surviving backups of shard s.
	BackupsOf [][]int
}

// clone deep-copies a view.
func (v View) clone() View {
	out := View{Epoch: v.Epoch,
		Alive:       append([]bool(nil), v.Alive...),
		Joining:     append([]bool(nil), v.Joining...),
		JoinedEpoch: append([]int(nil), v.JoinedEpoch...),
		PrimaryOf:   append([]int(nil), v.PrimaryOf...)}
	for _, b := range v.BackupsOf {
		out.BackupsOf = append(out.BackupsOf, append([]int(nil), b...))
	}
	return out
}

// Manager is the lease service.
type Manager struct {
	eng      *sim.Engine
	nodes    int
	repl     int
	deadline []sim.Time
	view     View
	onChange []func(View)
	started  bool
}

// New creates a manager for nodes servers with the given replication
// factor (shard s is initially primary at node s with backups s+1..). Its
// timers are model's Lease* constants; the caller renews each live node's
// lease every model.LeaseRenewPeriod.
func New(eng *sim.Engine, nodes, replication int) *Manager {
	if nodes < 2 || replication < 1 || replication > nodes {
		panic(fmt.Sprintf("membership: bad cluster %d/%d", nodes, replication))
	}
	m := &Manager{eng: eng, nodes: nodes, repl: replication,
		deadline: make([]sim.Time, nodes)}
	v := View{Epoch: 0, Alive: make([]bool, nodes), Joining: make([]bool, nodes),
		JoinedEpoch: make([]int, nodes), PrimaryOf: make([]int, nodes)}
	for i := 0; i < nodes; i++ {
		v.Alive[i] = true
		v.PrimaryOf[i] = i
		var backups []int
		for r := 1; r < replication; r++ {
			backups = append(backups, (i+r)%nodes)
		}
		v.BackupsOf = append(v.BackupsOf, backups)
	}
	m.view = v
	for i := range m.deadline {
		m.deadline[i] = eng.Now() + model.LeaseDuration
	}
	return m
}

// View returns a copy of the current view.
func (m *Manager) View() View { return m.view.clone() }

// OnChange registers a view-change callback; it fires LeaseNotifyDelay after
// each reconfiguration (modeling manager-to-node propagation).
func (m *Manager) OnChange(fn func(View)) { m.onChange = append(m.onChange, fn) }

// Renew extends node's lease. Dead nodes cannot renew their way back in —
// rejoining goes through the explicit Rejoin/Admit path below.
func (m *Manager) Renew(node int) {
	if !m.view.Alive[node] {
		return
	}
	m.deadline[node] = m.eng.Now() + model.LeaseDuration
}

// Rejoin re-registers a restarted node: it gets a fresh lease and is
// admitted to the next view as a joining member (messages flow, the lease
// renews, but it serves no replicas until Admit). No-op if already alive.
func (m *Manager) Rejoin(node int) {
	if m.view.Alive[node] {
		return
	}
	m.deadline[node] = m.eng.Now() + model.LeaseDuration
	m.view.Alive[node] = true
	m.view.Joining[node] = true
	m.reconfigure()
	m.view.JoinedEpoch[node] = m.view.Epoch
	// Re-publish so the join epoch is part of the announced view.
	m.notify()
}

// Admit completes a join: once the node has caught up via state transfer it
// re-enters every replica chain as a live backup, restoring the replication
// factor. No-op unless the node is alive and joining.
func (m *Manager) Admit(node int) {
	if !m.view.Alive[node] || !m.view.Joining[node] {
		return
	}
	m.view.Joining[node] = false
	m.reconfigure()
	m.notify()
}

// Start begins the expiry checker.
func (m *Manager) Start() {
	if m.started {
		return
	}
	m.started = true
	m.eng.Ticker(model.LeaseCheckPeriod, func() bool {
		m.check()
		return true
	})
}

// check expires stale leases and reconfigures. A joining node whose lease
// lapses mid-catch-up is evicted like any other member.
func (m *Manager) check() {
	changed := false
	for i := range m.deadline {
		if m.view.Alive[i] && m.eng.Now() > m.deadline[i] {
			m.view.Alive[i] = false
			m.view.Joining[i] = false
			changed = true
		}
	}
	if !changed {
		return
	}
	m.reconfigure()
	m.notify()
}

// reconfigure bumps the epoch and rebuilds every shard's replica chain from
// the nodes that are alive and fully admitted (joining members serve
// nothing yet). The serving primary is stable: it only changes when it
// leaves the view, so an admitted rejoiner re-enters its old chain
// positions as a backup while the promoted primary keeps serving.
func (m *Manager) reconfigure() {
	m.view.Epoch++
	for s := 0; s < m.nodes; s++ {
		// Candidate chain: original primary, then original backups.
		chain := []int{s}
		for r := 1; r < m.repl; r++ {
			chain = append(chain, (s+r)%m.nodes)
		}
		eligible := func(n int) bool { return m.view.Alive[n] && !m.view.Joining[n] }
		primary := -1
		if cur := m.view.PrimaryOf[s]; eligible(cur) {
			primary = cur
		}
		var backups []int
		for _, n := range chain {
			if !eligible(n) || n == primary {
				continue
			}
			if primary == -1 {
				primary = n
			} else {
				backups = append(backups, n)
			}
		}
		if primary == -1 {
			// All replicas lost: the shard is unavailable; keep the last
			// primary for deterministic routing, callers must check Alive.
			continue
		}
		m.view.PrimaryOf[s] = primary
		m.view.BackupsOf[s] = backups
	}
}

// notify publishes the current view to every registered callback after the
// manager-to-node propagation delay.
func (m *Manager) notify() {
	v := m.View()
	for _, fn := range m.onChange {
		fn := fn
		m.eng.After(model.LeaseNotifyDelay, func() { fn(v) })
	}
}
