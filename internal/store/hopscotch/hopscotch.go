// Package hopscotch implements FaRM's Hopscotch hash table variant [8],
// used as a comparison point in Table 2 of the Xenic paper: every key is
// stored within a fixed neighborhood of H slots starting at its home
// position (H=8 in FaRM's published results), so a remote lookup is one
// H-object read, with a second roundtrip to a per-bucket overflow chain
// when neighborhood displacement fails.
package hopscotch

import (
	"errors"
	"fmt"

	"xenic/internal/store/robinhood"
)

// Entry is one stored object.
type Entry struct {
	Key     uint64
	Version uint64
	Value   []byte
}

type slot struct {
	occupied bool
	home     int // home bucket of the resident key
	entry    Entry
}

// Table is a Hopscotch hash table.
type Table struct {
	h        int
	mask     uint64
	slots    []slot
	overflow map[int][]Entry
	count    int
	ovCount  int
}

// ErrFull is returned when no free slot can be found or moved into reach.
var ErrFull = errors.New("hopscotch: table full")

// New creates a table with at least slots main-table slots (rounded to a
// power of 2) and neighborhood size h.
func New(slots, h int) *Table {
	if h <= 0 {
		panic("hopscotch: non-positive neighborhood")
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	return &Table{h: h, mask: uint64(n - 1), slots: make([]slot, n), overflow: map[int][]Entry{}}
}

// H returns the neighborhood size.
func (t *Table) H() int { return t.h }

// Len reports stored keys, Slots the main-table capacity, OverflowCount the
// number of keys resident in overflow chains.
func (t *Table) Len() int           { return t.count }
func (t *Table) Slots() int         { return len(t.slots) }
func (t *Table) OverflowCount() int { return t.ovCount }

func (t *Table) home(key uint64) int { return int(robinhood.Hash(key) & t.mask) }

func (t *Table) idx(home, d int) int { return (home + d) & int(t.mask) }

// Insert adds or updates key. The table adopts value instead of copying it,
// its capacity clipped: the caller must never write it again.
func (t *Table) Insert(key uint64, value []byte, version uint64) error {
	value = value[:len(value):len(value)]
	home := t.home(key)
	// Update in place if present.
	for d := 0; d < t.h; d++ {
		s := &t.slots[t.idx(home, d)]
		if s.occupied && s.entry.Key == key {
			s.entry.Value = value
			s.entry.Version = version
			return nil
		}
	}
	for i, e := range t.overflow[home] {
		if e.Key == key {
			t.overflow[home][i].Value = value
			t.overflow[home][i].Version = version
			return nil
		}
	}

	// Linear probe for a free slot.
	free := -1
	for d := 0; d < len(t.slots); d++ {
		if !t.slots[t.idx(home, d)].occupied {
			free = d
			break
		}
	}
	if free < 0 {
		return ErrFull
	}
	// Hop the free slot back into the neighborhood.
	for free >= t.h {
		moved := false
		// Consider slots in the window [free-h+1, free) whose resident can
		// legally move to the free slot.
		for off := t.h - 1; off >= 1; off-- {
			candIdx := t.idx(home, free-off)
			cand := &t.slots[candIdx]
			if !cand.occupied {
				continue
			}
			// Distance of the free slot from the candidate's home.
			dist := (t.idx(home, free) - cand.home) & int(t.mask)
			if dist < t.h {
				t.slots[t.idx(home, free)] = *cand
				*cand = slot{}
				free = free - off
				moved = true
				break
			}
		}
		if !moved {
			// Cannot displace: spill to the home bucket's overflow chain,
			// costing lookups a second roundtrip (Table 2: 4% of keys at
			// 90% occupancy).
			t.overflow[home] = append(t.overflow[home], Entry{
				Key: key, Version: version, Value: value,
			})
			t.count++
			t.ovCount++
			return nil
		}
	}
	s := &t.slots[t.idx(home, free)]
	*s = slot{occupied: true, home: home, entry: Entry{
		Key: key, Version: version, Value: value,
	}}
	t.count++
	return nil
}

// LookupResult reports a lookup and its remote-access cost.
type LookupResult struct {
	Found       bool
	Value       []byte
	Version     uint64
	ObjectsRead int // objects fetched over the (simulated) wire
	Roundtrips  int
}

// Lookup models FaRM's remote lookup: one read of the H-slot neighborhood,
// plus one read of the overflow chain on a neighborhood miss.
func (t *Table) Lookup(key uint64) LookupResult {
	home := t.home(key)
	r := LookupResult{ObjectsRead: t.h, Roundtrips: 1}
	for d := 0; d < t.h; d++ {
		s := &t.slots[t.idx(home, d)]
		if s.occupied && s.entry.Key == key {
			r.Found = true
			r.Value = s.entry.Value
			r.Version = s.entry.Version
			return r
		}
	}
	if chain, ok := t.overflow[home]; ok {
		r.Roundtrips++
		r.ObjectsRead += len(chain)
		for i := range chain {
			if chain[i].Key == key {
				r.Found = true
				r.Value = chain[i].Value
				r.Version = chain[i].Version
				return r
			}
		}
	}
	return r
}

// Delete removes key, returning whether it was present.
func (t *Table) Delete(key uint64) bool {
	home := t.home(key)
	for d := 0; d < t.h; d++ {
		s := &t.slots[t.idx(home, d)]
		if s.occupied && s.entry.Key == key {
			*s = slot{}
			t.count--
			return true
		}
	}
	chain := t.overflow[home]
	for i := range chain {
		if chain[i].Key == key {
			t.overflow[home] = append(chain[:i], chain[i+1:]...)
			if len(t.overflow[home]) == 0 {
				delete(t.overflow, home)
			}
			t.count--
			t.ovCount--
			return true
		}
	}
	return false
}

// CheckInvariants verifies every main-table resident lies within H of its
// home.
func (t *Table) CheckInvariants() error {
	n := 0
	for i := range t.slots {
		s := &t.slots[i]
		if !s.occupied {
			continue
		}
		n++
		want := t.home(s.entry.Key)
		if s.home != want {
			return fmt.Errorf("slot %d: stored home %d != actual %d", i, s.home, want)
		}
		d := (i - s.home) & int(t.mask)
		if d >= t.h {
			return fmt.Errorf("slot %d: key %d at distance %d >= H=%d", i, s.entry.Key, d, t.h)
		}
	}
	for home, chain := range t.overflow {
		n += len(chain)
		for _, e := range chain {
			if t.home(e.Key) != home {
				return fmt.Errorf("overflow key %d in bucket %d, home %d", e.Key, home, t.home(e.Key))
			}
		}
	}
	if n != t.count {
		return fmt.Errorf("count %d != resident %d", t.count, n)
	}
	return nil
}
