package chassis

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"xenic/internal/store/btree"
)

// This file holds the drained-state checks of every system (DESIGN.md §9):
// ReplicasConsistent, CheckInvariants and AuditHistory, over one walk of each
// shard's copies, which the protocol lists through Protocol.Replicas. Call
// them after a successful Drain.

// Table is what the checks need of a hash table; robinhood.Table and
// chained.Table satisfy it.
type Table interface {
	ForEach(fn func(key, version uint64, value []byte) bool)
	Len() int
	CheckInvariants() error
}

// Replica is one copy of one shard. A nil Hash is a copy the view names but
// its node does not hold.
type Replica struct {
	Node int
	Hash Table
	Tree *btree.Tree
	// Read fetches key from whichever table placement puts it in.
	Read func(key uint64) (value []byte, version uint64, ok bool)
	// Locks, set on a primary, visits every lock held on the shard's keys,
	// in ascending key order.
	Locks func(yield func(key, owner uint64))
}

// Replicas lists shard s's serving primary followed by its live backups;
// nil once the shard lost every replica.
func (ch *Chassis) Replicas(s int) []Replica { return ch.proto.Replicas(s) }

// walk calls visit on every copy of every shard, shard by shard, the primary
// first, with where naming the copy and p the shard's primary.
func (ch *Chassis) walk(visit func(s int, where string, r, p Replica) error) error {
	for s := range ch.cfg.Nodes {
		rs := ch.proto.Replicas(s)
		for i, r := range rs {
			where := fmt.Sprintf("node %d backup of shard %d", r.Node, s)
			if i == 0 {
				where = fmt.Sprintf("node %d primary of shard %d", r.Node, s)
			}
			if r.Hash == nil {
				return fmt.Errorf("%s: node holds no copy", where)
			}
			if err := visit(s, where, r, rs[0]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Each calls fn on every key r holds, hash table first, until fn fails, and
// returns fn's error.
func (r Replica) Each(fn func(key, version uint64, value []byte) error) (err error) {
	visit := func(key, version uint64, value []byte) bool {
		err = fn(key, version, value)
		return err == nil
	}
	r.Hash.ForEach(visit)
	if err == nil {
		r.Tree.AscendRange(0, ^uint64(0), func(it btree.Item) bool { return visit(it.Key, it.Version, it.Value) })
	}
	return err
}

// ReplicasConsistent verifies that every live backup holds exactly its
// primary's keys, versions and values.
func (ch *Chassis) ReplicasConsistent() error {
	return ch.walk(func(s int, _ string, r, p Replica) error {
		if r.Hash == p.Hash {
			return nil // the primary itself
		}
		err := p.Each(func(key, version uint64, value []byte) error {
			if v, ver, ok := r.Read(key); !ok || ver != version || string(v) != string(value) {
				table := "hash"
				if ch.place.IsBTree(key) {
					table = "btree"
				}
				return fmt.Errorf("%s key %d diverges (found=%v v=%d vs %d)", table, key, ok, ver, version)
			}
			return nil
		})
		// Every key of the primary is in the backup, so a count that differs
		// means keys the primary lacks.
		if n, m := p.Hash.Len()+p.Tree.Len(), r.Hash.Len()+r.Tree.Len(); err == nil && n != m {
			err = fmt.Errorf("%d keys, primary has %d", m, n)
		}
		if err != nil {
			return fmt.Errorf("shard %d backup at node %d: %w", s, r.Node, err)
		}
		return nil
	})
}

// CheckInvariants validates the structure of every copy's hash table and
// B+tree, then the protocol's own structures (Protocol.Check).
func (ch *Chassis) CheckInvariants() error {
	err := ch.walk(func(_ int, where string, r, _ Replica) error {
		if err := cmp.Or(r.Hash.CheckInvariants(), r.Tree.CheckInvariants()); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		return nil
	})
	if err == nil && ch.proto.Check != nil {
		err = ch.proto.Check(nil)
	}
	return err
}

// AuditHistory cross-checks the drained cluster against the recorded
// history: the protocol's own records (Protocol.Check), then on every copy
// no lock still held and every version the last committed writer's (keys
// never written at their populate version), then every committed write
// present at its shard's primary. It returns nil when no history is attached.
func (ch *Chassis) AuditHistory() error {
	h := ch.History()
	if h == nil {
		return nil
	}
	if ch.proto.Check != nil {
		if err := ch.proto.Check(h); err != nil {
			return err
		}
	}
	last := h.LastVersions()
	prims := make([]Replica, ch.cfg.Nodes) // zero for a shard that lost every replica
	if err := ch.walk(func(s int, where string, r, p Replica) error {
		prims[s] = p
		var orphan error
		if r.Locks != nil {
			r.Locks(func(key, owner uint64) {
				if orphan == nil {
					orphan = fmt.Errorf("audit: %s: orphan lock on key %d held by txn %#x after drain", where, key, owner)
				}
			})
		}
		if orphan != nil {
			return orphan
		}
		return r.Each(func(key, version uint64, _ []byte) error {
			if want, written := last[key]; written && version != want || !written && version > 1 {
				return fmt.Errorf("audit: %s: key %d at version %d, last committed writer installed %d", where, key, version, want)
			}
			return nil
		})
	}); err != nil {
		return err
	}
	for _, key := range slices.Sorted(maps.Keys(last)) {
		s := ch.place.ShardOf(key)
		if p := prims[s]; p.Read != nil {
			if _, ver, ok := p.Read(key); !ok || ver != last[key] {
				return fmt.Errorf("audit: shard %d at node %d: committed key %d should be at version %d, store has %d (present=%v)",
					s, p.Node, key, last[key], ver, ok)
			}
		}
	}
	return nil
}
