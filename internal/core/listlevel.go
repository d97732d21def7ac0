package core

import (
	"fmt"
	"slices"
)

// Sorted-order index tuning. Levels of at most indexMin keys keep no
// index at all: every local search is a short walk over the (sorted)
// linked list, and the level fits entirely in its inline slot storage —
// the common case for the O(1)-size leaf levels the update path creates
// and destroys constantly, which therefore cost zero index maintenance.
//
// Larger levels maintain the base + pending index. The buffer bounds
// adapt to the level size: pending inserts and tombstoned deletes are
// absorbed into the base array once either exceeds ~sqrt(n) (never less
// than pendMax/deadMax), balancing the O(buffer) splice cost of an
// update against the amortized O(n/buffer) share of each rebuild — the
// fixed 64-entry bound of PR 2 paid an O(n/64) rebuild share per update,
// which dominated the update path at n in the hundreds of thousands.
const (
	indexMin = 16
	pendMax  = 64
	deadMax  = 64
)

// inlineSlots is the slot capacity embedded in the ListLevel struct
// itself. Leaf levels hold at most LeafMax+1 keys plus the head sentinel
// before splitting, so they never spill to a heap-allocated slot array.
const inlineSlots = 8

// lslot is one range record: the key and the doubly-linked-list wiring,
// fused in a single slot so a Step walk touches one cache line instead
// of four parallel arrays. up is the range's hyperlink for an owner
// that keeps one (BlockedWeb: the parent-level range holding the same
// key, 0 for the head sentinel); it sits in what was the slot's
// padding, so a slot stays 24 bytes.
type lslot struct {
	key  uint64
	prev RangeID
	next RangeID
	up   RangeID
	live bool
}

// ListLevel is the sorted doubly-linked list link structure of Section 2.1
// (and Lemma 1), with slot-stable range IDs. Range 0 is the head sentinel
// covering (-inf, firstKey); every other range r covers [key(r), nextKey).
// The ranges therefore partition the key universe.
//
// Alongside the linked list, levels above indexMin keys maintain the live
// ranges in a sorted-order index, so full local searches (Locate, ByKey,
// and InsertKey's fallback when the hint is dead) are O(log n) binary
// searches instead of O(n) head walks. The index is a base sorted array
// plus a small sorted pending buffer: inserts go to the buffer, deletes
// tombstone the base (or drop from the buffer), and either overflowing
// its adaptive bound triggers a merge rebuild into a reused scratch
// buffer. The index is pure execution-level state: routing still charges
// messages per linked-list hop, so the paper's cost accounting is
// unchanged.
type ListLevel struct {
	slots []lslot
	free  []RangeID
	n     int
	// tail is the last range in list order (the head sentinel when
	// empty): the O(1) floor for queries at or above the maximum key,
	// which is every probe of a log-structured (ascending) insert stream.
	tail RangeID

	// indexed reports whether the sorted-order index is maintained; it
	// turns on once the level outgrows indexMin and stays on (hysteresis:
	// dropping and rebuilding the index under a fluctuating size would
	// thrash).
	indexed bool
	// baseKeys holds live keys in ascending order; baseIDs[i] is the
	// range holding baseKeys[i], or NoRange for a tombstoned (deleted)
	// entry awaiting the next rebuild.
	baseKeys []uint64
	baseIDs  []RangeID
	// pendKeys/pendIDs buffer keys inserted since the last rebuild, in
	// ascending order, at most pendLimit() entries.
	pendKeys []uint64
	pendIDs  []RangeID
	dead     int // tombstones in baseIDs
	// mergeKeys/mergeIDs are the rebuild scratch, swapped with the base
	// arrays on each slow merge so steady-state rebuilds allocate nothing.
	mergeKeys []uint64
	mergeIDs  []RangeID

	// inline is the initial slot storage; slots aliases it until the
	// level outgrows inlineSlots and spills to the heap.
	inline [inlineSlots]lslot
}

// NewListLevel builds the structure over keys (which must be distinct).
func NewListLevel(keys []uint64) (*ListLevel, error) {
	sorted := append([]uint64(nil), keys...)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("core: duplicate key %d", sorted[i])
		}
	}
	l := &ListLevel{}
	l.reset(sorted, nil)
	return l, nil
}

// NewListLevelSorted builds the structure over keys already in strictly
// ascending order — the O(n) bulk-load path, which skips the sort and
// the defensive copy of NewListLevel.
func NewListLevelSorted(keys []uint64) (*ListLevel, error) {
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return nil, fmt.Errorf("core: duplicate key %d", keys[i])
		}
		if keys[i] < keys[i-1] {
			return nil, fmt.Errorf("core: keys not ascending at %d", i)
		}
	}
	l := &ListLevel{}
	l.reset(keys, nil)
	return l, nil
}

// reset (re)initializes the level over strictly ascending keys, reusing
// any slot and index capacity the receiver already owns — the level-pool
// entry point for BlockedWeb's split/merge recycling. sorted[j] lands at
// range j+1, whose hyperlink is ups[j] (0 when ups is nil). Neither
// slice is retained.
func (l *ListLevel) reset(sorted []uint64, ups []RangeID) {
	need := len(sorted) + 1
	switch {
	case cap(l.slots) >= need:
		l.slots = l.slots[:0]
	case need <= inlineSlots:
		l.slots = l.inline[:0]
	default:
		// Headroom beyond the exact need: bulk-loaded levels usually take
		// inserts next, and the slack absorbs the first growth spurts.
		l.slots = make([]lslot, 0, need+need/8+1)
	}
	l.free = l.free[:0]
	l.n = 0
	l.indexed = false
	l.baseKeys, l.baseIDs = l.baseKeys[:0], l.baseIDs[:0]
	l.pendKeys, l.pendIDs = l.pendKeys[:0], l.pendIDs[:0]
	l.dead = 0
	l.slots = append(l.slots, lslot{prev: NoRange, next: NoRange, live: true}) // head sentinel
	cur := RangeID(0)
	for j, k := range sorted {
		id := RangeID(len(l.slots))
		var up RangeID
		if ups != nil {
			up = ups[j]
		}
		l.slots = append(l.slots, lslot{key: k, prev: cur, next: NoRange, up: up, live: true})
		l.slots[cur].next = id
		cur = id
		l.n++
	}
	l.tail = cur
	if l.n > indexMin {
		l.buildIndex()
	}
}

// buildIndex materializes the sorted-order index from the linked list.
func (l *ListLevel) buildIndex() {
	l.indexed = true
	if cap(l.baseKeys) < l.n {
		l.baseKeys = make([]uint64, 0, l.n+l.n/2)
		l.baseIDs = make([]RangeID, 0, l.n+l.n/2)
	} else {
		l.baseKeys, l.baseIDs = l.baseKeys[:0], l.baseIDs[:0]
	}
	for r := l.slots[0].next; r != NoRange; r = l.slots[r].next {
		l.baseKeys = append(l.baseKeys, l.slots[r].key)
		l.baseIDs = append(l.baseIDs, r)
	}
	l.pendKeys, l.pendIDs = l.pendKeys[:0], l.pendIDs[:0]
	l.dead = 0
}

// pendLimit is the adaptive pending-buffer bound: ~sqrt(n), never below
// pendMax. Rounded to a power of two so it moves rarely.
func (l *ListLevel) pendLimit() int {
	lim := pendMax
	for lim*lim < l.n {
		lim <<= 1
	}
	return lim
}

// deadLimit is the adaptive tombstone bound, symmetric to pendLimit.
func (l *ListLevel) deadLimit() int {
	lim := deadMax
	for lim*lim < l.n {
		lim <<= 1
	}
	return lim
}

// Len returns the number of keys (excluding the sentinel).
func (l *ListLevel) Len() int { return l.n }

// Head returns the sentinel range.
func (l *ListLevel) Head() RangeID { return 0 }

// Key returns the key of range r; r must not be the head sentinel.
func (l *ListLevel) Key(r RangeID) uint64 { return l.slots[r].key }

// IsHead reports whether r is the sentinel.
func (l *ListLevel) IsHead(r RangeID) bool { return r == 0 }

// ByKey returns the range holding exactly key k — an O(log n) binary
// search over the sorted-order index (a bounded list walk below
// indexMin keys), allocation-free.
func (l *ListLevel) ByKey(k uint64) (RangeID, bool) {
	if !l.indexed {
		for r := l.slots[0].next; r != NoRange; r = l.slots[r].next {
			if kr := l.slots[r].key; kr == k {
				return r, true
			} else if kr > k {
				break
			}
		}
		return NoRange, false
	}
	// Base first: a live base hit is authoritative (a deleted key is
	// tombstoned there, never live), so the common case costs a single
	// binary search. A miss — tombstoned, or inserted since the last
	// rebuild — falls through to the pending buffer.
	if i := floorIndex(l.baseKeys, k); i >= 0 && l.baseKeys[i] == k && l.baseIDs[i] != NoRange {
		return l.baseIDs[i], true
	}
	if i := floorIndex(l.pendKeys, k); i >= 0 && l.pendKeys[i] == k {
		return l.pendIDs[i], true
	}
	return NoRange, false
}

// up returns range r's hyperlink (see lslot.up).
func (l *ListLevel) up(r RangeID) RangeID { return l.slots[r].up }

// setUp sets range r's hyperlink.
func (l *ListLevel) setUp(r, up RangeID) { l.slots[r].up = up }

// live reports whether r names a live range of the level.
func (l *ListLevel) live(r RangeID) bool {
	return r >= 0 && int(r) < len(l.slots) && l.slots[r].live
}

// Next and Prev expose the linked-list order.
func (l *ListLevel) Next(r RangeID) RangeID { return l.slots[r].next }

// Prev returns the predecessor range of r.
func (l *ListLevel) Prev(r RangeID) RangeID { return l.slots[r].prev }

// Ranges returns all live range IDs.
func (l *ListLevel) Ranges() []RangeID {
	out := make([]RangeID, 0, l.n+1)
	l.VisitRanges(func(r RangeID) bool {
		out = append(out, r)
		return true
	})
	return out
}

// VisitRanges calls visit for every live range ID (in slot order) until
// visit returns false. It performs no allocation.
func (l *ListLevel) VisitRanges(visit func(RangeID) bool) {
	for i := range l.slots {
		if l.slots[i].live && !visit(RangeID(i)) {
			return
		}
	}
}

// Contains reports whether range r covers q: key(r) <= q < key(next(r)),
// with the sentinel covering everything below the first key.
func (l *ListLevel) Contains(r RangeID, q uint64) bool {
	if r != 0 && q < l.slots[r].key {
		return false
	}
	nx := l.slots[r].next
	return nx == NoRange || q < l.slots[nx].key
}

// Step moves one range toward q's terminal, or NoRange if r is terminal.
func (l *ListLevel) Step(r RangeID, q uint64) RangeID {
	if r != 0 && q < l.slots[r].key {
		return l.slots[r].prev
	}
	if nx := l.slots[r].next; nx != NoRange && q >= l.slots[nx].key {
		return nx
	}
	return NoRange
}

// floorIndex returns the position in ks of the largest key <= q, or -1
// when q is below every key.
func floorIndex(ks []uint64, q uint64) int {
	lo, hi := 0, len(ks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ks[mid] <= q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// Locate finds the terminal range containing q by binary search over the
// sorted-order index — O(log n + buffer bounds), allocation-free. Levels
// below indexMin keys walk the list instead (bounded by indexMin steps).
func (l *ListLevel) Locate(q uint64) RangeID {
	// Tail fast path: q at or above the maximum key (always true for the
	// head sentinel of an empty level, whose key reads as 0 with no
	// ranges above it).
	if t := l.tail; q >= l.slots[t].key {
		return t
	}
	if !l.indexed {
		return l.locateWalk(q)
	}
	// Base floor, skipping tombstones leftward (dead runs are bounded by
	// deadLimit, the rebuild threshold).
	bi := floorIndex(l.baseKeys, q)
	for bi >= 0 && l.baseIDs[bi] == NoRange {
		bi--
	}
	// Pending floor.
	pi := floorIndex(l.pendKeys, q)
	// The true floor is the larger of the two candidates: every live key
	// is in exactly one of base (untombstoned) and pending.
	switch {
	case bi < 0 && pi < 0:
		return 0
	case bi < 0:
		return l.pendIDs[pi]
	case pi < 0:
		return l.baseIDs[bi]
	case l.pendKeys[pi] > l.baseKeys[bi]:
		return l.pendIDs[pi]
	default:
		return l.baseIDs[bi]
	}
}

// locateWalk is the head-walk search: the search path for unindexed
// (O(1)-size) levels, and the reference implementation for the Locate
// property test.
func (l *ListLevel) locateWalk(q uint64) RangeID {
	r := RangeID(0)
	for {
		nx := l.slots[r].next
		if nx == NoRange || q < l.slots[nx].key {
			return r
		}
		r = nx
	}
}

// rebuild merges the pending buffer into the base array and drops
// tombstones. Triggered once per O(min(pendLimit, deadLimit)) updates,
// so its O(n) cost amortizes to O(n / threshold) = O(sqrt n) per update.
// The merge writes into a scratch buffer that is swapped with the base,
// so steady-state rebuilds allocate nothing.
func (l *ListLevel) rebuild() {
	// Append-only fast path: a pending buffer entirely above a
	// tombstone-free base extends it in place (the common bulk-load and
	// log-structured workload).
	if l.dead == 0 && (len(l.baseKeys) == 0 || len(l.pendKeys) == 0 ||
		l.pendKeys[0] > l.baseKeys[len(l.baseKeys)-1]) {
		l.baseKeys = append(l.baseKeys, l.pendKeys...)
		l.baseIDs = append(l.baseIDs, l.pendIDs...)
		l.pendKeys, l.pendIDs = l.pendKeys[:0], l.pendIDs[:0]
		return
	}
	merged, mergedIDs := l.mergeKeys[:0], l.mergeIDs[:0]
	if cap(merged) < l.n {
		merged = make([]uint64, 0, l.n+l.n/2)
		mergedIDs = make([]RangeID, 0, l.n+l.n/2)
	}
	bi, pi := 0, 0
	for bi < len(l.baseKeys) || pi < len(l.pendKeys) {
		if bi < len(l.baseKeys) && l.baseIDs[bi] == NoRange {
			bi++
			continue
		}
		takeBase := pi >= len(l.pendKeys) ||
			(bi < len(l.baseKeys) && l.baseKeys[bi] < l.pendKeys[pi])
		if takeBase {
			merged = append(merged, l.baseKeys[bi])
			mergedIDs = append(mergedIDs, l.baseIDs[bi])
			bi++
		} else {
			merged = append(merged, l.pendKeys[pi])
			mergedIDs = append(mergedIDs, l.pendIDs[pi])
			pi++
		}
	}
	l.mergeKeys, l.baseKeys = l.baseKeys, merged
	l.mergeIDs, l.baseIDs = l.baseIDs, mergedIDs
	l.pendKeys, l.pendIDs = l.pendKeys[:0], l.pendIDs[:0]
	l.dead = 0
}

// indexInsert records (k, id) in the sorted-order index.
func (l *ListLevel) indexInsert(k uint64, id RangeID) {
	// A tombstoned base entry for k (delete then re-insert) is fine: the
	// pending entry is live and Locate prefers it by the larger-key rule
	// (equal keys: base tombstone is skipped leftward).
	i := floorIndex(l.pendKeys, k) + 1
	l.pendKeys = append(l.pendKeys, 0)
	copy(l.pendKeys[i+1:], l.pendKeys[i:])
	l.pendKeys[i] = k
	l.pendIDs = append(l.pendIDs, NoRange)
	copy(l.pendIDs[i+1:], l.pendIDs[i:])
	l.pendIDs[i] = id
	if len(l.pendKeys) > l.pendLimit() {
		l.rebuild()
	}
}

// indexDelete removes key k from the sorted-order index.
func (l *ListLevel) indexDelete(k uint64) {
	if i := floorIndex(l.pendKeys, k); i >= 0 && l.pendKeys[i] == k {
		l.pendKeys = append(l.pendKeys[:i], l.pendKeys[i+1:]...)
		l.pendIDs = append(l.pendIDs[:i], l.pendIDs[i+1:]...)
		return
	}
	i := floorIndex(l.baseKeys, k)
	if i < 0 || l.baseKeys[i] != k || l.baseIDs[i] == NoRange {
		return
	}
	l.baseIDs[i] = NoRange
	l.dead++
	if l.dead > l.deadLimit() {
		l.rebuild()
	}
}

// InsertKey splices k in after its terminal range, reached by Step from
// hint (the terminal range containing k, or a nearby range). A NoRange or
// dead hint falls back to the O(log n) local search rather than walking
// from the head sentinel. The duplicate check reads the terminal the walk
// reached: k is present exactly when that range holds it.
func (l *ListLevel) InsertKey(k uint64, hint RangeID) (RangeID, error) {
	cur := l.terminal(k, hint)
	if cur != 0 && l.slots[cur].key == k {
		return NoRange, fmt.Errorf("core: duplicate key %d", k)
	}
	return l.spliceAfter(cur, k), nil
}

// terminal returns the range containing k, walking by Step from hint, or
// from the local search when hint is not live.
func (l *ListLevel) terminal(k uint64, hint RangeID) RangeID {
	cur := hint
	if !l.live(cur) {
		cur = l.Locate(k)
	}
	for {
		nx := l.Step(cur, k)
		if nx == NoRange {
			return cur
		}
		cur = nx
	}
}

// spliceAfter links a new range holding k in after cur, which must be
// k's terminal range and must not hold k.
func (l *ListLevel) spliceAfter(cur RangeID, k uint64) RangeID {
	var id RangeID
	if len(l.free) > 0 {
		id = l.free[len(l.free)-1]
		l.free = l.free[:len(l.free)-1]
	} else {
		id = RangeID(len(l.slots))
		l.slots = append(l.slots, lslot{})
	}
	nx := l.slots[cur].next
	l.slots[id] = lslot{key: k, prev: cur, next: nx, live: true}
	l.slots[cur].next = id
	if nx != NoRange {
		l.slots[nx].prev = id
	} else {
		l.tail = id
	}
	l.n++
	if l.indexed {
		l.indexInsert(k, id)
	} else if l.n > indexMin {
		l.buildIndex()
	}
	return id
}

// DeleteKey removes key k, returning the dead range and its predecessor
// (which inherits the dead range's interval).
func (l *ListLevel) DeleteKey(k uint64) (dead, pred RangeID, err error) {
	return l.deleteKeyAt(k, NoRange)
}

// deleteKeyAt is DeleteKey for a caller that already holds k's range: at
// is used when it is k's live, non-head range, and any other hint falls
// back to ByKey, so the result is always DeleteKey's.
func (l *ListLevel) deleteKeyAt(k uint64, at RangeID) (dead, pred RangeID, err error) {
	id := at
	if id == 0 || !l.live(id) || l.slots[id].key != k {
		var ok bool
		if id, ok = l.ByKey(k); !ok {
			return NoRange, NoRange, fmt.Errorf("core: key %d not found", k)
		}
	}
	p, nx := l.slots[id].prev, l.slots[id].next
	l.slots[p].next = nx
	if nx != NoRange {
		l.slots[nx].prev = p
	} else {
		l.tail = p
	}
	l.slots[id].live = false
	l.free = append(l.free, id)
	l.n--
	if l.indexed {
		l.indexDelete(k)
	}
	return id, p, nil
}

// Keys returns all keys in ascending order.
func (l *ListLevel) Keys() []uint64 {
	return l.AppendKeys(make([]uint64, 0, l.n))
}

// AppendKeys appends all keys in ascending order to buf and returns the
// extended slice — the allocation-free variant of Keys for callers with
// a scratch buffer.
func (l *ListLevel) AppendKeys(buf []uint64) []uint64 {
	for r := l.slots[0].next; r != NoRange; r = l.slots[r].next {
		buf = append(buf, l.slots[r].key)
	}
	return buf
}

// CheckInvariants verifies list structure: ascending keys, consistent
// prev/next, and agreement between the linked list and the sorted-order
// index (base + pending merge) when the level is large enough to carry
// one.
func (l *ListLevel) CheckInvariants() error {
	count := 0
	prev := RangeID(0)
	for r := l.slots[0].next; r != NoRange; r = l.slots[r].next {
		if !l.slots[r].live {
			return fmt.Errorf("core: dead range %d linked", r)
		}
		if l.slots[r].prev != prev {
			return fmt.Errorf("core: range %d prev %d, want %d", r, l.slots[r].prev, prev)
		}
		if prev != 0 && l.slots[r].key <= l.slots[prev].key {
			return fmt.Errorf("core: keys out of order at range %d", r)
		}
		if got, ok := l.ByKey(l.slots[r].key); !ok || got != r {
			return fmt.Errorf("core: ByKey broken for key %d", l.slots[r].key)
		}
		if got := l.Locate(l.slots[r].key); got != r {
			return fmt.Errorf("core: Locate(%d) = %d, want %d", l.slots[r].key, got, r)
		}
		prev = r
		count++
	}
	if count != l.n {
		return fmt.Errorf("core: count %d, n %d", count, l.n)
	}
	if l.tail != prev {
		return fmt.Errorf("core: tail is %d, want %d", l.tail, prev)
	}
	if !l.indexed {
		if len(l.baseKeys) != 0 || len(l.pendKeys) != 0 || l.dead != 0 {
			return fmt.Errorf("core: unindexed level carries index state")
		}
		if l.n > indexMin {
			return fmt.Errorf("core: level of %d keys is unindexed (bound %d)", l.n, indexMin)
		}
		return nil
	}
	live := 0
	for i, id := range l.baseIDs {
		if i > 0 && l.baseKeys[i] <= l.baseKeys[i-1] {
			return fmt.Errorf("core: base index out of order at %d", i)
		}
		if id != NoRange {
			live++
			if l.slots[id].key != l.baseKeys[i] {
				return fmt.Errorf("core: base index key mismatch at %d", i)
			}
		}
	}
	for i, id := range l.pendIDs {
		if i > 0 && l.pendKeys[i] <= l.pendKeys[i-1] {
			return fmt.Errorf("core: pending index out of order at %d", i)
		}
		if id == NoRange || l.slots[id].key != l.pendKeys[i] {
			return fmt.Errorf("core: pending index broken at %d", i)
		}
		live++
	}
	if live != l.n {
		return fmt.Errorf("core: sorted-order index holds %d live keys, n %d", live, l.n)
	}
	if len(l.baseIDs) != len(l.baseKeys) || len(l.pendIDs) != len(l.pendKeys) {
		return fmt.Errorf("core: sorted-order index arrays diverge in length")
	}
	return nil
}
