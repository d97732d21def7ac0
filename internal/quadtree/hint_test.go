package quadtree

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"github.com/skipwebs/skipwebs/internal/xrand"
)

// clone deep-copies the tree, so one state can take the same update
// twice: once hinted, once from the root.
func (t *Tree) clone() *Tree {
	c := *t
	c.nodes = slices.Clone(t.nodes)
	for i := range c.nodes {
		c.nodes[i].childBit = slices.Clone(t.nodes[i].childBit)
		c.nodes[i].childID = slices.Clone(t.nodes[i].childID)
	}
	c.pts, c.codes, c.freePts = slices.Clone(t.pts), slices.Clone(t.codes), slices.Clone(t.freePts)
	c.free = slices.Clone(t.free)
	c.index = maps.Clone(t.index)
	return &c
}

// state is everything an update may change, an empty child list read as
// nil (a recycled slot keeps its arrays).
func (t *Tree) state() any {
	type nodeState struct {
		Cell     Cell
		Parent   NodeID
		ChildBit []uint8
		ChildID  []NodeID
		Point    int32
		Dead     bool
	}
	ns := make([]nodeState, len(t.nodes))
	for i, n := range t.nodes {
		ns[i] = nodeState{n.cell, n.parent, n.childBit, n.childID, n.point, n.dead}
		if len(n.childID) == 0 {
			ns[i].ChildBit, ns[i].ChildID = nil, nil
		}
	}
	return struct {
		Nodes   []nodeState
		Pts     []Point
		Codes   []uint64
		FreePts []int32
		Free    []NodeID
		Root    NodeID
		Index   map[Cell]NodeID
	}{ns, t.pts, t.codes, t.freePts, t.free, t.root, t.index}
}

// hintKinds returns one hint of every kind for code: the exact terminal
// of its search, a proper ancestor of it, NoNode, ids out of range both
// ways, a dead id, a recycled id (live again after being freed) and a
// live node whose cell does not contain code. Kinds the tree cannot
// supply right now are skipped.
func hintKinds(t *Tree, code uint64, recycled map[NodeID]bool) map[string]NodeID {
	hints := map[string]NodeID{
		"none":         NoNode,
		"out-of-range": NodeID(len(t.nodes) + 3),
		"negative":     -7,
	}
	if term, _ := t.Locate(code); term != NoNode {
		hints["terminal"] = term
		if p := t.Parent(term); p != NoNode {
			hints["ancestor"] = p
		}
	}
	if len(t.free) > 0 {
		hints["dead"] = t.free[len(t.free)-1]
	}
	t.VisitNodes(func(id NodeID) bool {
		if recycled[id] {
			hints["recycled"] = id
		}
		if !t.CellContainsCode(t.CellOf(id), code) {
			hints["unrelated"] = id
		}
		return true
	})
	return hints
}

// TestInsertAtDeleteAtHints requires InsertAt and DeleteAt to leave the
// same structure and return the same results and errors as a walk from
// the root, for every kind of hint, over random inserts, duplicate
// inserts, deletes and absent deletes — including the empty tree a full
// drain leaves behind.
func TestInsertAtDeleteAtHints(t *testing.T) {
	rng := xrand.New(0x9a1d)
	pts := randPoints(rng, 2, 40, 1<<6)
	tr := New(2)
	live := map[int]bool{}
	freed := map[NodeID]bool{}
	recycled := map[NodeID]bool{}
	kinds := map[string]int{}
	step := func(i int, insert bool) {
		p := pts[i]
		code, err := tr.Code(p)
		if err != nil {
			t.Fatal(err)
		}
		for kind, hint := range hintKinds(tr, code, recycled) {
			ref, got := tr.clone(), tr.clone()
			var want, have string
			if insert {
				rr, rerr := ref.Insert(p)
				gr, gerr := got.InsertAt(hint, p)
				want, have = fmt.Sprint(rr, rerr), fmt.Sprint(gr, gerr)
			} else {
				rr, rerr := ref.Delete(p)
				gr, gerr := got.DeleteAt(hint, p)
				want, have = fmt.Sprint(rr, rerr), fmt.Sprint(gr, gerr)
			}
			if want != have {
				t.Fatalf("%s hint %d for %v (insert %v): got %s, root walk %s", kind, hint, p, insert, have, want)
			}
			if !reflect.DeepEqual(ref.state(), got.state()) {
				t.Fatalf("%s hint %d for %v (insert %v) left a different tree", kind, hint, p, insert)
			}
			kinds[kind]++
		}
		wantOK := insert != live[i] // the model: insert absent points, delete present ones
		if insert {
			var res InsertResult
			if res, err = tr.Insert(p); err == nil {
				live[i] = true
				for _, id := range res.Created {
					if freed[id] {
						recycled[id] = true
					}
				}
			}
		} else {
			var res DeleteResult
			if res, err = tr.Delete(p); err == nil {
				delete(live, i)
				for _, id := range res.Removed {
					freed[id] = true
					delete(recycled, id)
				}
			}
		}
		if (err == nil) != wantOK {
			t.Fatalf("insert %v of %v: err %v, model says success %v", insert, p, err, wantOK)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	random := func(n int) {
		for ; n > 0; n-- {
			i := rng.Intn(len(pts))
			insert := !live[i]
			if rng.Intn(5) == 0 {
				insert = !insert // a duplicate insert or an absent delete
			}
			step(i, insert)
		}
	}
	random(150)
	for i := range pts {
		if live[i] {
			step(i, false)
		}
	}
	if tr.Root() != NoNode {
		t.Fatal("drained tree still has a root")
	}
	random(150)
	for _, kind := range []string{"terminal", "ancestor", "none", "out-of-range", "negative", "dead", "recycled", "unrelated"} {
		if kinds[kind] == 0 {
			t.Errorf("hint kind %q never exercised", kind)
		}
	}
}

// TestPointSlotsRecycled pins the point-storage bound: a deleted leaf
// gives its point slot back (and drops its reference to the caller's
// coordinates), so insert/delete churn on a small tree keeps a small
// table.
func TestPointSlotsRecycled(t *testing.T) {
	tr, err := Build(2, []Point{{1, 1}, {9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		p := Point{uint32(100 + i%50), uint32(7 + i%13)}
		if _, err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.pts) > 3 || len(tr.codes) > 3 {
		t.Fatalf("2-point tree holds %d point slots and %d codes after churn, want at most 3", len(tr.pts), len(tr.codes))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len %d, want 2", tr.Len())
	}
	// A refused duplicate takes no slot.
	if _, err := tr.Insert(Point{9, 9}); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if len(tr.pts) > 3 {
		t.Fatalf("duplicate insert left %d point slots", len(tr.pts))
	}
}
