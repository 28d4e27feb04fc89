// Package robinhood implements Xenic's host-side hash table (§4.1.2): a
// closed Robin Hood linear-probing table with a global displacement limit
// Dm, fixed-size segments with linked overflow buckets, overflow-swap or
// bounded backward-shift deletion, and large-object indirection for values
// above 256B so that DMA lookups never fetch large payloads inline.
//
// The table is a real data structure — the Table 2 lookup-efficiency results
// are measured on it — and it also reports the geometry the SmartNIC index
// needs: per-segment maximum displacements and the byte layout of probe
// regions fetched by DMA reads.
package robinhood

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"xenic/internal/store/cell"
)

// Hash is the 64-bit mix function used to derive home positions; exported so
// the NIC index, and the alternative table designs compared in Table 2, hash
// identically.
func Hash(key uint64) uint64 {
	// splitmix64 finalizer.
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Config sizes a table.
type Config struct {
	// Slots is the number of main-table slots; rounded up to a power of 2.
	Slots int
	// SegmentSlots is the number of slots per segment; one NIC index entry
	// covers one segment (§4.1.3). Must divide the rounded slot count.
	SegmentSlots int
	// MaxDisplacement is the global displacement limit Dm. 0 disables the
	// limit (the "no limit" row of Table 2).
	MaxDisplacement int
	// InlineValueSize is the fixed per-slot value capacity in bytes. Values
	// above LargeThreshold are stored out of table behind a pointer.
	InlineValueSize int
	// LargeThreshold is the inline-storage cutoff; the paper uses 256B.
	LargeThreshold int
}

// DefaultConfig returns a table configuration with the paper's defaults.
func DefaultConfig(slots int) Config {
	return Config{
		Slots:           slots,
		SegmentSlots:    4,
		MaxDisplacement: 16,
		InlineValueSize: 64,
		LargeThreshold:  256,
	}
}

// Slot is one main-table entry as visible to a DMA read: the modelled
// record of SlotBytes() bytes, materialised on demand (SlotAt, ReadRegion)
// from the compact in-memory slot below.
type Slot struct {
	Occupied bool
	Key      uint64
	Disp     int    // displacement from the key's home position
	Version  uint64 // sequence number, incremented on commit
	Value    []byte // inline value, or nil when Indirect
	Indirect bool   // value stored out of table (>LargeThreshold)
}

// OverflowEntry is one element of a segment's overflow bucket.
type OverflowEntry struct {
	Key     uint64
	Version uint64
	Value   []byte
	Home    int // home slot index, needed for overflow-swap deletion
}

// Stats counts structural events, several of which the paper reports
// (e.g. ~6% of insertions at 90% occupancy raise a segment's max
// displacement, and only ~0.2% raise it by more than one — §4.1.3).
type Stats struct {
	Inserts            int64
	Overflows          int64
	Swaps              int64 // occupied-slot swaps during insertion
	Deletes            int64
	BackwardShifts     int64
	OverflowSwapsIn    int64 // deletions resolved by pulling in an overflow element
	MaxDispRaised      int64 // insertions that raised their segment's max displacement
	MaxDispRaisedByTwo int64 // ... by more than one
	MultiLineSwaps     int64 // swaps spanning >1 host cache line (HTM-guarded, §4.1.2)
}

// slot is the in-memory form of one main-table entry: 24 pointer-free bytes,
// so the slot array — most of a table's memory, mostly empty — is never
// scanned by the garbage collector. It is not the modelled layout (Slot and
// SlotBytes are); disp is 32 bits because an unlimited-displacement table
// probes up to its whole length.
type slot struct {
	key     uint64
	version uint64
	disp    int32
	val     uint32 // 0: empty; a cell of Table.cells; or largeVal | a cell of Table.large
}

// largeVal marks a slot as indirect: the rest of val numbers a cell of
// Table.large. Cells number no more than the slots, which New caps below
// 2^31, so the bit is free.
const largeVal = 1 << 31

// segMeta is one segment's bookkeeping.
type segMeta struct {
	maxDisp int32 // exact max displacement among keys homed in the segment
	over    int32 // entries in the segment's overflow bucket
}

// Table is the host-side store for one shard.
type Table struct {
	cfg   Config
	mask  uint64
	slots []slot
	segs  []segMeta
	// cells holds the inline values, one cell per occupied inline slot, and
	// large the out-of-table ones, one per indirect slot; a slot's cell
	// travels with it through swaps and shifts. A cell is only ever pointed
	// at an immutable slice, never written through: slices handed out by
	// Lookup outlive the call (in-flight DMA results and snapshot
	// responses), so their bytes must stay immutable.
	cells cell.Table
	large cell.Table
	// overflow holds the buckets of segments that have entries, and is
	// consulted only where segs[seg].over > 0. It is never iterated: map
	// order must not reach an observable.
	overflow map[int][]OverflowEntry
	count    int
	stats    Stats
}

// ErrFull is returned when insertion cannot find a free slot within the
// probe bound.
var ErrFull = errors.New("robinhood: table full")

// New creates a table. It panics on invalid configuration, since table
// geometry is fixed at startup in the systems being modeled.
func New(cfg Config) *Table {
	n := 1
	for n < cfg.Slots {
		n <<= 1
	}
	if cfg.SegmentSlots <= 0 || n%cfg.SegmentSlots != 0 {
		panic(fmt.Sprintf("robinhood: segment size %d does not divide %d slots", cfg.SegmentSlots, n))
	}
	if cfg.MaxDisplacement < 0 {
		panic("robinhood: negative displacement limit")
	}
	if cfg.LargeThreshold <= 0 {
		cfg.LargeThreshold = 256
	}
	if cfg.InlineValueSize <= 0 {
		cfg.InlineValueSize = 64
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("robinhood: %d slots exceed the 32-bit displacement field", n))
	}
	cfg.Slots = n
	return &Table{
		cfg:      cfg,
		mask:     uint64(n - 1),
		slots:    make([]slot, n),
		segs:     make([]segMeta, n/cfg.SegmentSlots),
		overflow: make(map[int][]OverflowEntry),
	}
}

// Clone returns a copy of t with the same layout and Stats, as if the same
// operations had been applied to a fresh table. The copy owns its slots,
// segments, both cell tables and overflow buckets, and shares the value
// slices: values are never written once stored (DESIGN.md §16).
func (t *Table) Clone() *Table {
	c := *t
	c.slots = slices.Clone(t.slots)
	c.segs = slices.Clone(t.segs)
	c.cells = t.cells.Clone()
	c.large = t.large.Clone()
	c.overflow = make(map[int][]OverflowEntry, len(t.overflow))
	for seg, b := range t.overflow {
		c.overflow[seg] = slices.Clone(b)
	}
	return &c
}

// Config returns the table's effective configuration.
func (t *Table) Config() Config { return t.cfg }

// Len reports the number of stored keys (main table + overflow).
func (t *Table) Len() int { return t.count }

// Slots reports main-table capacity.
func (t *Table) Slots() int { return len(t.slots) }

// Segments reports the number of segments.
func (t *Table) Segments() int { return len(t.segs) }

// Stats returns a copy of the structural event counters.
func (t *Table) Stats() Stats { return t.stats }

// Home returns the home slot index for key.
func (t *Table) Home(key uint64) int { return int(Hash(key) & t.mask) }

// SegmentOf returns the segment index covering slot index idx.
func (t *Table) SegmentOf(idx int) int { return idx / t.cfg.SegmentSlots }

// SegmentMaxDisp returns the exact maximum displacement among keys whose
// home position lies in segment seg (0 when empty). The NIC index mirrors
// this value, possibly stale, as its lookup hint d_i.
func (t *Table) SegmentMaxDisp(seg int) int { return int(t.segs[seg].maxDisp) }

// OverflowLen reports the number of overflow entries for segment seg.
func (t *Table) OverflowLen(seg int) int { return int(t.segs[seg].over) }

// SlotBytes is the encoded size of one slot in the modelled host memory: 8B
// key + 2B displacement + 2B flags + 4B version + inline value capacity. DMA
// probe reads fetch multiples of this; it does not follow the simulator's
// own in-memory slot.
func (t *Table) SlotBytes() int { return 16 + t.cfg.InlineValueSize }

// dispLimited reports whether the displacement limit is enabled.
func (t *Table) dispLimited() bool { return t.cfg.MaxDisplacement > 0 }

// limit returns the probe bound: Dm when limited, else the table size.
func (t *Table) limit() int {
	if t.dispLimited() {
		return t.cfg.MaxDisplacement
	}
	return len(t.slots)
}

func (t *Table) idx(home, d int) int { return (home + d) & int(t.mask) }

// raiseSegMax records a displacement observation for a key homed in seg.
func (t *Table) raiseSegMax(seg, disp int) {
	m := &t.segs[seg]
	if disp > int(m.maxDisp) {
		if disp > int(m.maxDisp)+1 {
			t.stats.MaxDispRaisedByTwo++
		}
		t.stats.MaxDispRaised++
		m.maxDisp = int32(disp)
	}
}

// recomputeSegMax recalculates a segment's max displacement after deletion.
func (t *Table) recomputeSegMax(seg int) {
	maxD := int32(0)
	base := seg * t.cfg.SegmentSlots
	// A key homed in this segment can sit up to limit()-1 past segment end.
	for off := 0; off < t.cfg.SegmentSlots+t.limit(); off++ {
		s := &t.slots[(base+off)&int(t.mask)]
		if s.val != 0 && t.SegmentOf(t.Home(s.key)) == seg && s.disp > maxD {
			maxD = s.disp
		}
	}
	t.segs[seg].maxDisp = maxD
}

// cellOf resolves an occupied slot's val to its cell: its table and number.
func (t *Table) cellOf(val uint32) (*cell.Table, uint32) {
	if val&largeVal != 0 {
		return &t.large, val &^ largeVal
	}
	return &t.cells, val
}

// releaseValue gives up s's value cell when the record leaves the main
// table or changes representation. The slice itself is dropped, never
// written.
func (t *Table) releaseValue(s *slot) {
	if s.val != 0 {
		c, n := t.cellOf(s.val)
		c.Release(n)
	}
	s.val = 0
}

// valueOf returns an occupied slot's value, inline or large.
func (t *Table) valueOf(s *slot) []byte {
	c, n := t.cellOf(s.val)
	return c.Get(n)
}

// adopt returns value as the table keeps it: the caller's slice itself, its
// capacity clipped so no append through a handed-out copy can reach past it.
// Writers never write a value they handed to a store (Insert), so the table
// need not copy it.
func adopt(value []byte) []byte { return value[:len(value):len(value)] }

// storeValue installs value as s's value, adopting the slice, out of table
// when it is above the large threshold.
func (t *Table) storeValue(s *slot, value []byte) {
	large := len(value) > t.cfg.LargeThreshold
	if !large && len(value) > t.cfg.InlineValueSize {
		panic(fmt.Sprintf("robinhood: value of %dB exceeds inline capacity %dB (and is below the large threshold %dB)",
			len(value), t.cfg.InlineValueSize, t.cfg.LargeThreshold))
	}
	if s.val == 0 || (s.val&largeVal != 0) != large {
		t.releaseValue(s)
		if large {
			s.val = largeVal | t.large.New()
		} else {
			s.val = t.cells.New()
		}
	}
	c, n := t.cellOf(s.val)
	c.Set(n, adopt(value))
}

// Insert adds key with value and version. Inserting an existing key updates
// it in place. The table adopts value instead of copying it: the caller must
// never write it again (DESIGN.md §16, "Values are written once"). Returns
// ErrFull only when no free slot exists within reach and the overflow path
// also cannot apply (unlimited-displacement tables that are completely full).
func (t *Table) Insert(key uint64, value []byte, version uint64) error {
	if s := t.findSlot(key); s != nil {
		t.storeValue(s, value)
		s.version = version
		return nil
	}
	if e := t.findOverflow(key); e != nil {
		e.Value = adopt(value)
		e.Version = version
		return nil
	}
	t.stats.Inserts++

	carry := slot{key: key, version: version}
	t.storeValue(&carry, value)
	home := t.Home(key)
	carryHome := home
	d := 0
	for step := 0; step <= len(t.slots); step++ {
		if t.dispLimited() && d >= t.cfg.MaxDisplacement {
			// Displacement reached Dm: the carried element (which may be a
			// displaced victim, not the original key) goes to the overflow
			// bucket of ITS home segment (§4.1.2).
			t.appendOverflow(carry, carryHome)
			return nil
		}
		i := t.idx(carryHome, d)
		s := &t.slots[i]
		if s.val == 0 {
			carry.disp = int32(d)
			*s = carry
			t.count++
			t.raiseSegMax(t.SegmentOf(carryHome), d)
			return nil
		}
		if int(s.disp) < d {
			// Steal displacement wealth: swap the carried element with the
			// better-placed occupant and continue inserting the victim.
			carry.disp = int32(d)
			victim := *s
			*s = carry
			t.stats.Swaps++
			if t.slotSpansCacheLines() {
				t.stats.MultiLineSwaps++
			}
			t.raiseSegMax(t.SegmentOf(carryHome), d)
			carry = victim
			carryHome = t.Home(victim.key)
			d = int(victim.disp)
		}
		d++
	}
	// The record still carried found no slot and is dropped; so is its value.
	t.releaseValue(&carry)
	return ErrFull
}

// slotSpansCacheLines reports whether a modelled slot crosses a 64B host
// cache line, requiring the HTM-guarded swap path of §4.1.2.
func (t *Table) slotSpansCacheLines() bool { return t.SlotBytes() > 64 }

// setBucket installs b as segment seg's overflow bucket, keeping the map
// free of empty buckets and the segment's count in step.
func (t *Table) setBucket(seg int, b []OverflowEntry) {
	if len(b) == 0 {
		delete(t.overflow, seg)
	} else {
		t.overflow[seg] = b
	}
	t.segs[seg].over = int32(len(b))
}

// bucket returns segment seg's overflow bucket, nil when it has none.
func (t *Table) bucket(seg int) []OverflowEntry {
	if t.segs[seg].over == 0 {
		return nil
	}
	return t.overflow[seg]
}

// appendOverflow moves the carried record s, homed at home, to its segment's
// overflow bucket: the entry takes the value slice, read before
// releaseValue drops it, and the cell is released.
func (t *Table) appendOverflow(s slot, home int) {
	seg := t.SegmentOf(home)
	e := OverflowEntry{Key: s.key, Version: s.version, Value: t.valueOf(&s), Home: home}
	t.releaseValue(&s)
	t.setBucket(seg, append(t.bucket(seg), e))
	t.count++
	t.stats.Overflows++
	// When the carried element is a displaced victim (not the original
	// key), it just left the main table, so its segment's max displacement
	// may have dropped.
	t.recomputeSegMax(seg)
}

// findSlot returns the main-table slot holding key, or nil.
func (t *Table) findSlot(key uint64) *slot {
	home := t.Home(key)
	for d := 0; d < t.limit(); d++ {
		s := &t.slots[t.idx(home, d)]
		if s.val == 0 {
			return nil
		}
		if s.key == key {
			return s
		}
		if int(s.disp) < d {
			// Robin Hood invariant: key would have displaced this element.
			return nil
		}
	}
	return nil
}

func (t *Table) findOverflow(key uint64) *OverflowEntry {
	b := t.bucket(t.SegmentOf(t.Home(key)))
	for i := range b {
		if b[i].Key == key {
			return &b[i]
		}
	}
	return nil
}

// LookupResult describes a lookup, including the probe work a remote reader
// would have performed; the NIC index and Table 2 use these counts.
type LookupResult struct {
	Found    bool
	Value    []byte
	Version  uint64
	Disp     int  // displacement at which the key was found
	Overflow bool // found in (or required reading) the overflow bucket
}

// Lookup finds key via local memory access (the host fast path).
func (t *Table) Lookup(key uint64) LookupResult {
	if s := t.findSlot(key); s != nil {
		return LookupResult{Found: true, Value: t.valueOf(s), Version: s.version, Disp: int(s.disp)}
	}
	if e := t.findOverflow(key); e != nil {
		return LookupResult{Found: true, Value: e.Value, Version: e.Version, Overflow: true}
	}
	return LookupResult{}
}

// Update overwrites an existing key's value and version, returning false if
// the key is absent. Like Insert, it adopts value.
func (t *Table) Update(key uint64, value []byte, version uint64) bool {
	if s := t.findSlot(key); s != nil {
		t.storeValue(s, value)
		s.version = version
		return true
	}
	if e := t.findOverflow(key); e != nil {
		e.Value = adopt(value)
		e.Version = version
		return true
	}
	return false
}

// Delete removes key. Deletion prefers swapping in an overflow element of
// the same segment (if one can legally occupy the freed slot), otherwise it
// performs a backward shift bounded by the displacement limit (§4.1.2).
func (t *Table) Delete(key uint64) bool {
	home := t.Home(key)
	for d := 0; d < t.limit(); d++ {
		i := t.idx(home, d)
		s := &t.slots[i]
		if s.val == 0 {
			break
		}
		if s.key == key {
			t.releaseValue(s)
			shifted := t.removeAt(i)
			t.stats.Deletes++
			t.count--
			t.recomputeSegMax(t.SegmentOf(home))
			for _, seg := range shifted {
				if seg != t.SegmentOf(home) {
					t.recomputeSegMax(seg)
				}
			}
			return true
		}
		if int(s.disp) < d {
			break
		}
	}
	// Overflow-resident key.
	seg := t.SegmentOf(home)
	b := t.bucket(seg)
	for i := range b {
		if b[i].Key == key {
			t.setBucket(seg, append(b[:i], b[i+1:]...))
			t.stats.Deletes++
			t.count--
			return true
		}
	}
	return false
}

// removeAt frees slot i, whose value the caller has released, with a bounded
// backward shift, then tries to pull an overflow element of a covering
// segment back into the main table (§4.1.2's "swap an overflow element over
// the deleted element"). The pulled element goes through the normal
// insertion path so the Robin Hood run ordering — home positions
// non-decreasing within a probe run, which the early-stop lookup rule
// depends on — is preserved. It returns the home segments of every shifted
// element: their displacements decreased, so the caller must recompute
// those segments' max-displacement hints, not just the deleted key's.
func (t *Table) removeAt(i int) []int {
	// Backward shift: move subsequent displaced elements one slot back
	// until an empty slot or an element already at home.
	var shifted []int
	cur := i
	for {
		next := (cur + 1) & int(t.mask)
		n := &t.slots[next]
		if n.val == 0 || n.disp == 0 {
			break
		}
		moved := *n
		moved.disp--
		t.slots[cur] = moved
		t.stats.BackwardShifts++
		shifted = append(shifted, t.SegmentOf(t.Home(moved.key)))
		cur = next
	}
	t.slots[cur] = slot{}
	t.promoteOverflow(i)
	return shifted
}

// promoteOverflow re-inserts one overflow element homed near slot i, if any;
// insertion may succeed into the vacated space or legitimately overflow
// again.
func (t *Table) promoteOverflow(i int) {
	for _, seg := range t.segmentsCovering(i) {
		b := t.bucket(seg)
		if len(b) == 0 {
			continue
		}
		e := b[len(b)-1]
		t.setBucket(seg, b[:len(b)-1])
		t.count--
		before := t.stats.Overflows
		if err := t.Insert(e.Key, e.Value, e.Version); err != nil {
			// Should be impossible: we just freed a slot. Restore.
			t.setBucket(seg, append(t.bucket(seg), e))
			t.count++
			return
		}
		if t.stats.Overflows == before {
			t.stats.OverflowSwapsIn++
		}
		return
	}
}

// segmentsCovering lists segments whose homed keys could occupy slot i:
// the segment of i and the preceding segments within the probe bound.
func (t *Table) segmentsCovering(i int) []int {
	segs := []int{t.SegmentOf(i)}
	span := (t.limit() + t.cfg.SegmentSlots - 1) / t.cfg.SegmentSlots
	for k := 1; k <= span; k++ {
		idx := (i - k*t.cfg.SegmentSlots) & int(t.mask)
		segs = append(segs, t.SegmentOf(idx))
	}
	return segs
}

// SlotAt returns slot i (wrapping past the table end) as a DMA read sees it.
func (t *Table) SlotAt(i int) Slot {
	s := &t.slots[i&int(t.mask)]
	switch {
	case s.val == 0:
		return Slot{}
	case s.val&largeVal != 0:
		return Slot{Occupied: true, Key: s.key, Disp: int(s.disp), Version: s.version, Indirect: true}
	}
	return Slot{Occupied: true, Key: s.key, Disp: int(s.disp), Version: s.version, Value: t.cells.Get(s.val)}
}

// ReadRegion copies n slots starting at absolute slot index start; this is
// what a NIC DMA probe read returns.
func (t *Table) ReadRegion(start, n int) []Slot {
	out := make([]Slot, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, t.SlotAt(start+k))
	}
	return out
}

// ReadOverflow returns a copy of segment seg's overflow bucket, as a DMA
// read of the overflow page would.
func (t *Table) ReadOverflow(seg int) []OverflowEntry {
	return append([]OverflowEntry(nil), t.bucket(seg)...)
}

// LargeValue fetches an out-of-table value by key (the single-object DMA
// read that follows a pointer slot): (nil, false) unless key's main-table
// slot is indirect.
func (t *Table) LargeValue(key uint64) ([]byte, bool) {
	if s := t.findSlot(key); s != nil && s.val&largeVal != 0 {
		return t.valueOf(s), true
	}
	return nil, false
}

// ForEach visits every stored key (main table, then overflow buckets in
// segment order) until fn returns false. Values for indirect entries are
// resolved.
func (t *Table) ForEach(fn func(key uint64, version uint64, value []byte) bool) {
	for i := range t.slots {
		s := &t.slots[i]
		if s.val == 0 {
			continue
		}
		if !fn(s.key, s.version, t.valueOf(s)) {
			return
		}
	}
	for seg := range t.segs {
		for _, e := range t.bucket(seg) {
			if !fn(e.Key, e.Version, e.Value) {
				return
			}
		}
	}
}

// CheckInvariants verifies structural invariants, returning an error
// describing the first violation. Tests and failure-injection runs call it.
func (t *Table) CheckInvariants() error {
	n, indirect := 0, 0
	// maxDisp must be exact, as documented: a low hint breaks nothing (the
	// NIC's second adjacent read covers it) but an inflated one silently
	// widens every DMA probe read.
	exact := make([]int32, len(t.segs))
	cellUsed, largeUsed := make([]bool, t.cells.Len()), make([]bool, t.large.Len())
	for i := range t.slots {
		s := &t.slots[i]
		if s.val == 0 {
			continue
		}
		n++
		home := t.Home(s.key)
		d := (i - home) & int(t.mask)
		if d != int(s.disp) {
			return fmt.Errorf("slot %d: stored disp %d != actual %d", i, s.disp, d)
		}
		if t.dispLimited() && d >= t.cfg.MaxDisplacement {
			return fmt.Errorf("slot %d: disp %d >= limit %d", i, s.disp, t.cfg.MaxDisplacement)
		}
		if seg := t.SegmentOf(home); s.disp > exact[seg] {
			exact[seg] = s.disp
		}
		used := cellUsed
		if s.val&largeVal != 0 {
			used = largeUsed
			indirect++
		}
		c := int(s.val&^largeVal) - 1
		if c >= len(used) || used[c] {
			return fmt.Errorf("slot %d: value cell %d out of range or shared", i, c)
		}
		used[c] = true
	}
	if live := t.cells.Live(); live != n-indirect {
		return fmt.Errorf("%d live value cells != %d occupied inline slots", live, n-indirect)
	}
	if live := t.large.Live(); live != indirect {
		return fmt.Errorf("%d large objects != %d indirect slots", live, indirect)
	}
	buckets := 0
	for seg := range t.segs {
		m := t.segs[seg]
		if m.maxDisp != exact[seg] {
			return fmt.Errorf("segment %d: max disp hint %d != exact %d", seg, m.maxDisp, exact[seg])
		}
		if m.over == 0 {
			continue
		}
		buckets++
		b := t.overflow[seg]
		if len(b) != int(m.over) {
			return fmt.Errorf("segment %d: overflow count %d != bucket length %d", seg, m.over, len(b))
		}
		for _, e := range b {
			if t.SegmentOf(e.Home) != seg {
				return fmt.Errorf("overflow entry %d homed in segment %d stored in %d", e.Key, t.SegmentOf(e.Home), seg)
			}
			n++
		}
	}
	if buckets != len(t.overflow) {
		return fmt.Errorf("overflow map holds %d buckets, segments account for %d", len(t.overflow), buckets)
	}
	if n != t.count {
		return fmt.Errorf("count %d != resident %d", t.count, n)
	}
	return nil
}
