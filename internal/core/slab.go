package core

import (
	"slices"

	"github.com/skipwebs/skipwebs/internal/sim"
)

// Engine-side range storage. Every ground structure hands out RangeIDs as
// dense slab indices (ListLevel, quadtree.Tree and trie.Trie recycle freed
// ids through a free list; trapmap.Map numbers its trapezoids 0..n-1), so
// the engine keeps what it knows about a range — where it is placed, its
// hyperlinks, who is anchored at it — in a table indexed by RangeID rather
// than in hash tables keyed by it. The table holds no pointers, so the
// collector never scans it.

// inlineCap is how many members of a rangeSet live inside the slot itself.
// Nested families (quadtree cells, trie loci) and sorted lists have exactly
// one hyperlink per range and at most one anchored child range per kid, so
// two covers them; only trapezoid conflict lists spill.
const inlineCap = 2

// rangeSet is a small ordered set of RangeID-sized words stored inside a
// slot. Up to inlineCap members sit in v; a larger set keeps its members in
// one of the owning slab's spill lists, whose index is then v[0].
type rangeSet struct {
	n int32
	v [inlineCap]RangeID
}

// slot is everything the engine stores about one range of one level
// structure. A slot that is not in use equals emptySlot exactly.
type slot struct {
	// host is the primary replica, sim.None while the range is not placed;
	// secondary replicas live in rangeSlab.mirrors.
	host sim.HostID
	// anchors are the hyperlinks: ranges of the parent structure.
	anchors rangeSet
	// backs are the child ranges anchored here, packed by packBackref.
	backs rangeSet
}

var emptySlot = slot{host: sim.None}

// packBackref encodes "range r of kids[side]" in one word. A backref's
// child is always one of the two kids, so the bit replaces a node pointer;
// setNode.backref decodes it.
func packBackref(side uint8, r RangeID) RangeID { return r<<1 | RangeID(side) }

// rangeSlab is the RangeID-indexed slot table of one level structure.
type rangeSlab struct {
	slots []slot
	// mirrors holds each slot's secondary replica hosts, parallel to slots;
	// nil on an unreplicated web (Replicas <= 1), so the table stays
	// pointer-free there.
	mirrors [][]sim.HostID
	// spill holds the member lists of sets larger than inlineCap; free
	// lists the spill indices available for reuse.
	spill [][]RangeID
	free  []int32
}

// init sizes the table for RangeIDs below size, with no slack.
func (s *rangeSlab) init(size int, replicated bool) {
	s.slots = make([]slot, size)
	for i := range s.slots {
		s.slots[i] = emptySlot
	}
	if replicated {
		s.mirrors = make([][]sim.HostID, size)
	}
}

// grow makes slot r addressable. Pointers into the table and inline
// member views obtained before a grow must not be used after it.
func (s *rangeSlab) grow(r RangeID) {
	for int(r) >= len(s.slots) {
		s.slots = append(s.slots, emptySlot)
	}
	if s.mirrors != nil {
		s.mirrors = append(s.mirrors, make([][]sim.HostID, len(s.slots)-len(s.mirrors))...)
	}
}

// placed reports whether range r has a host; false for NoRange and for
// ids the table has never seen.
func (s *rangeSlab) placed(r RangeID) bool {
	return uint(r) < uint(len(s.slots)) && s.slots[r].host != sim.None
}

// members returns the set's members in insertion order. The view aliases
// the slot or a spill list: it is valid until the set is next modified or
// the table grows.
func (s *rangeSlab) members(set *rangeSet) []RangeID {
	if set.n <= inlineCap {
		return set.v[:set.n]
	}
	return s.spill[set.v[0]]
}

// acquire returns the index of an empty spill list.
func (s *rangeSlab) acquire() int32 {
	if k := len(s.free); k > 0 {
		idx := s.free[k-1]
		s.free = s.free[:k-1]
		return idx
	}
	s.spill = append(s.spill, nil)
	return int32(len(s.spill) - 1)
}

// anchorsOf returns range r's hyperlinks, a members view.
func (s *rangeSlab) anchorsOf(r RangeID) []RangeID { return s.members(&s.slots[r].anchors) }

// backsOf returns the packed backrefs anchored at range r, a members view.
func (s *rangeSlab) backsOf(r RangeID) []RangeID { return s.members(&s.slots[r].backs) }

// add appends x to the set.
func (s *rangeSlab) add(set *rangeSet, x RangeID) {
	switch {
	case set.n < inlineCap:
		set.v[set.n] = x
	case set.n == inlineCap:
		idx := s.acquire()
		s.spill[idx] = append(append(s.spill[idx], set.v[:]...), x)
		set.v[0] = RangeID(idx)
	default:
		s.spill[set.v[0]] = append(s.spill[set.v[0]], x)
	}
	set.n++
}

// shrink keeps the first k members of the set, moving a spilled set back
// inline (and recycling its list) once it fits.
func (s *rangeSlab) shrink(set *rangeSet, k int) {
	if set.n > inlineCap {
		idx := set.v[0]
		if k > inlineCap {
			s.spill[idx] = s.spill[idx][:k]
		} else {
			copy(set.v[:], s.spill[idx][:k])
			s.spill[idx] = s.spill[idx][:0]
			s.free = append(s.free, int32(idx))
		}
	}
	set.n = int32(k)
}

// assign replaces the set's members with vals, which must not alias them.
func (s *rangeSlab) assign(set *rangeSet, vals []RangeID) {
	s.shrink(set, 0)
	if len(vals) <= inlineCap {
		set.n = int32(copy(set.v[:], vals))
		return
	}
	idx := s.acquire()
	s.spill[idx] = append(s.spill[idx], vals...)
	set.v[0], set.n = RangeID(idx), int32(len(vals))
}

// remove deletes the first occurrence of x, moving the last member into
// its place; a set without x is left alone.
func (s *rangeSlab) remove(set *rangeSet, x RangeID) {
	m := s.members(set)
	if i := slices.Index(m, x); i >= 0 {
		m[i] = m[len(m)-1]
		s.shrink(set, len(m)-1)
	}
}

// replicas returns the slot view over range r's replica hosts.
func (s *rangeSlab) replicas(r RangeID) replicaSet {
	rs := replicaSet{primary: &s.slots[r].host}
	if s.mirrors != nil {
		rs.mirrors = &s.mirrors[r]
	}
	return rs
}

// release returns slot r to the empty state, recycling any spill lists,
// so a recycled RangeID inherits nothing from the range that last used it.
func (s *rangeSlab) release(r RangeID) {
	sl := &s.slots[r]
	s.shrink(&sl.anchors, 0)
	s.shrink(&sl.backs, 0)
	*sl = emptySlot
	if s.mirrors != nil {
		s.mirrors[r] = s.mirrors[r][:0]
	}
}

// nodeRange names one range of one set-tree node.
type nodeRange[N any] struct {
	node N
	r    RangeID
}

// updateScratch is the update path's reusable buffers: updates are
// single-writer (the batch engine serializes them), so one set per web
// lets the insert and delete climbs allocate nothing per level.
type updateScratch[N any] struct {
	dirty  []RangeID      // Added+Touched ranges of the level being applied
	todo   []nodeRange[N] // child ranges whose hyperlinks need recomputing
	frames []nodeRange[N] // Delete's terminal per level of the bit path
}
