package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/skipwebs/skipwebs/internal/quadtree"
	"github.com/skipwebs/skipwebs/internal/trie"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// refClimb is a per-structure child-terminal climb of the kind
// Web.childTerminal replaced, kept here as its reference: from range tp
// of parent it walks toward the root, looking each range up in child by
// what it covers, and counts the steps taken.
type refClimb[L any] func(child, parent L, tp RangeID) (RangeID, int, error)

var errNoAncestor = errors.New("no range above the terminal exists in the child")

func listClimb(child, parent *ListLevel, tp RangeID) (RangeID, int, error) {
	steps := 0
	for cur := tp; ; cur = parent.Prev(cur) {
		if parent.IsHead(cur) {
			return child.Head(), steps, nil
		}
		if cr, ok := child.ByKey(parent.Key(cur)); ok {
			return cr, steps, nil
		}
		steps++
	}
}

func quadClimb(child, parent *quadtree.Tree, tp RangeID) (RangeID, int, error) {
	steps := 0
	for cur := quadtree.NodeID(tp); cur != quadtree.NoNode; cur = parent.Parent(cur) {
		if cid, ok := child.NodeByCell(parent.CellOf(cur)); ok {
			return RangeID(cid), steps, nil
		}
		steps++
	}
	return NoRange, steps, errNoAncestor
}

func trieClimb(child, parent *trie.Trie, tp RangeID) (RangeID, int, error) {
	steps := 0
	for cur := trie.NodeID(tp); cur != trie.NoNode; cur = parent.Parent(cur) {
		if cid, ok := child.NodeByLocus(parent.Locus(cur)); ok {
			return RangeID(cid), steps, nil
		}
		steps++
	}
	return NoRange, steps, errNoAncestor
}

// checkChildTerminals compares Web.childTerminal with the reference climb
// from every live range of every internal set node toward both kids, in
// range and in step count, and returns the steps the climbs took.
func checkChildTerminals[L, T, Q any](w *Web[L, T, Q], ref refClimb[L]) (int, error) {
	total := 0
	var err error
	w.eachNode(func(n *setNode[L, T]) {
		if err != nil || n.kids[0] == nil {
			return
		}
		for side, kid := range n.kids {
			for _, tp := range RangesOf(w.ops, n.s) {
				got, gs, gerr := w.childTerminal(n, side, tp)
				want, ws, werr := ref(kid.s, n.s, tp)
				if (gerr == nil) != (werr == nil) || gerr == nil && (got != want || gs != ws) {
					err = fmt.Errorf("depth %d side %d from range %d: childTerminal %d in %d steps (err %v), reference %d in %d steps (err %v)",
						n.depth, side, tp, got, gs, gerr, want, ws, werr)
					return
				}
				total += ws
			}
		}
	})
	return total, err
}

// runChildTerminalSchedule drives s through random inserts, deletes,
// duplicate inserts, absent deletes, Join, Leave and Crash + Repair,
// comparing childTerminal with ref after every step.
func runChildTerminalSchedule[L, T, Q any](t *testing.T, s *webSchedule[L, T, Q], ref refClimb[L], seed uint64) {
	t.Helper()
	rng := xrand.New(seed)
	steps := 0
	for step := 0; step < 120; step++ {
		i := rng.Intn(len(s.universe))
		var err error
		switch r := rng.Intn(20); {
		case r < 17:
			insert := !s.present[i]
			if r == 0 {
				insert = !insert // a duplicate insert or an absent delete
			}
			if insert {
				err = s.insert(i)
			} else if s.size > 1 || !s.present[i] { // keep the quadtree web routable
				err = s.remove(i)
			}
		case r == 17:
			s.leave(i)
		case r == 18:
			err = s.join()
		default:
			err = s.crash(i)
		}
		if err == nil {
			err = s.w.CheckInvariants()
		}
		var n int
		if err == nil {
			n, err = checkChildTerminals(s.w, ref)
		}
		if err != nil {
			t.Fatalf("step %d (%d items): %v", step, s.size, err)
		}
		steps += n
	}
	if steps == 0 {
		t.Fatal("no climb took a step; the comparison proves nothing")
	}
}

// TestChildTerminalMatchesReference pins Web.childTerminal — the climb
// through Ops.Up that stops at the first range holding a backref from the
// kid — to the per-structure climbs it replaced, in range and step count
// (so in charged messages), for lists, quadtrees and tries at k = 1..3.
func TestChildTerminalMatchesReference(t *testing.T) {
	for k := 1; k <= 3; k++ {
		t.Run(fmt.Sprintf("list-k%d", k), func(t *testing.T) {
			keys := distinctKeys(xrand.New(301), 40, 1<<20)
			s, err := newWebSchedule[*ListLevel, uint64, uint64](NewListOps(), 12, keys, 20, scheduleConfig(31, k), describeList)
			if err != nil {
				t.Fatal(err)
			}
			runChildTerminalSchedule(t, s, listClimb, 401)
		})
		t.Run(fmt.Sprintf("quad-k%d", k), func(t *testing.T) {
			pts := randPoints(xrand.New(302), 2, 40, 1<<12)
			s, err := newWebSchedule[*quadtree.Tree, quadtree.Point, uint64](NewQuadOps(2), 12, pts, 20, scheduleConfig(32, k), describeCell)
			if err != nil {
				t.Fatal(err)
			}
			runChildTerminalSchedule(t, s, quadClimb, 402)
		})
		t.Run(fmt.Sprintf("trie-k%d", k), func(t *testing.T) {
			strs := randStrings(xrand.New(303), 40, "ab", 1, 9)
			s, err := newWebSchedule[*trie.Trie, string, string](NewTrieOps(), 12, strs, 20, scheduleConfig(33, k), describeLocus)
			if err != nil {
				t.Fatal(err)
			}
			runChildTerminalSchedule(t, s, trieClimb, 403)
		})
	}
}

// cloneLevel deep-copies a list level (its slots may alias the inline
// array, which a struct copy would share).
func cloneLevel(l *ListLevel) *ListLevel {
	c := *l
	c.slots = slices.Clone(l.slots)
	c.free = slices.Clone(l.free)
	c.baseKeys, c.baseIDs = slices.Clone(l.baseKeys), slices.Clone(l.baseIDs)
	c.pendKeys, c.pendIDs = slices.Clone(l.pendKeys), slices.Clone(l.pendIDs)
	c.mergeKeys, c.mergeIDs = slices.Clone(l.mergeKeys), slices.Clone(l.mergeIDs)
	return &c
}

// levelState is everything an update may change.
func levelState(l *ListLevel) any {
	return []any{l.slots, l.free, l.n, l.tail, l.indexed, l.baseKeys, l.baseIDs, l.pendKeys, l.pendIDs, l.dead}
}

// TestListLevelHints requires InsertKey and deleteKeyAt to leave the same
// level and return the same results and errors as the unhinted search,
// for every kind of hint, on levels below and above the index threshold.
func TestListLevelHints(t *testing.T) {
	rng := xrand.New(0x11e7)
	keys := distinctKeys(rng, 60, 1<<16)
	if !slices.Contains(keys, 0) {
		keys[0] = 0 // the head sentinel's key field reads 0 too
	}
	l, err := NewListLevel(nil)
	if err != nil {
		t.Fatal(err)
	}
	live := map[uint64]bool{}
	freed := map[RangeID]bool{}
	recycled := map[RangeID]bool{}
	kinds := map[string]int{}
	for step := 0; step < 400; step++ {
		k := keys[rng.Intn(len(keys))]
		insert := !live[k]
		if rng.Intn(5) == 0 {
			insert = !insert // a duplicate insert or an absent delete
		}
		term := l.Locate(k)
		hints := map[string]RangeID{
			"terminal":     term,
			"head":         l.Head(),
			"none":         NoRange,
			"out-of-range": RangeID(len(l.slots) + 3),
			"negative":     -7,
			"unrelated":    l.tail,
		}
		if !l.IsHead(term) {
			hints["ancestor"] = l.Prev(term) // a range the walk leaves leftward of
		}
		if len(l.free) > 0 {
			hints["dead"] = l.free[len(l.free)-1]
		}
		l.VisitRanges(func(r RangeID) bool {
			if recycled[r] {
				hints["recycled"] = r
			}
			return true
		})
		for kind, hint := range hints {
			ref, got := cloneLevel(l), cloneLevel(l)
			var want, have string
			if insert {
				rr, rerr := ref.InsertKey(k, NoRange)
				gr, gerr := got.InsertKey(k, hint)
				want, have = fmt.Sprint(rr, rerr), fmt.Sprint(gr, gerr)
			} else {
				rd, rp, rerr := ref.DeleteKey(k)
				gd, gp, gerr := got.deleteKeyAt(k, hint)
				want, have = fmt.Sprint(rd, rp, rerr), fmt.Sprint(gd, gp, gerr)
			}
			if want != have {
				t.Fatalf("step %d: %s hint %d for %d (insert %v): got %s, unhinted %s", step, kind, hint, k, insert, have, want)
			}
			if !reflect.DeepEqual(levelState(ref), levelState(got)) {
				t.Fatalf("step %d: %s hint %d for %d (insert %v) left a different level", step, kind, hint, k, insert)
			}
			kinds[kind]++
		}
		wantOK := insert != live[k] // the model: insert absent keys, delete present ones
		var err error
		if insert {
			var id RangeID
			if id, err = l.InsertKey(k, term); err == nil {
				live[k] = true
				if freed[id] {
					recycled[id] = true
				}
			}
		} else {
			var dead RangeID
			if dead, _, err = l.DeleteKey(k); err == nil {
				delete(live, k)
				freed[dead] = true
				delete(recycled, dead)
			}
		}
		if (err == nil) != wantOK {
			t.Fatalf("step %d: insert %v of %d: err %v, model says success %v", step, insert, k, err, wantOK)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for _, kind := range []string{"terminal", "ancestor", "head", "none", "out-of-range", "negative", "dead", "recycled", "unrelated"} {
		if kinds[kind] == 0 {
			t.Errorf("hint kind %q never exercised", kind)
		}
	}
	if !l.indexed {
		t.Error("the level never outgrew the index threshold")
	}
}
