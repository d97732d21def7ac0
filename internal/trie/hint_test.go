package trie

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"github.com/skipwebs/skipwebs/internal/xrand"
)

// clone deep-copies the trie, so one state can take the same update
// twice: once hinted, once from the root.
func (t *Trie) clone() *Trie {
	c := *t
	c.nodes = slices.Clone(t.nodes)
	for i := range c.nodes {
		c.nodes[i].children = slices.Clone(t.nodes[i].children)
	}
	c.free = slices.Clone(t.free)
	c.byLocus = maps.Clone(t.byLocus)
	return &c
}

// state is everything an update may change, an empty edge list read as
// nil (a recycled slot keeps its array).
func (t *Trie) state() any {
	type nodeState struct {
		Locus    string
		Parent   NodeID
		Children []edge
		IsKey    bool
		Dead     bool
	}
	ns := make([]nodeState, len(t.nodes))
	for i, n := range t.nodes {
		ns[i] = nodeState{n.locus, n.parent, n.children, n.isKey, n.dead}
		if len(n.children) == 0 {
			ns[i].Children = nil
		}
	}
	return struct {
		Nodes   []nodeState
		Free    []NodeID
		N       int
		ByLocus map[string]NodeID
	}{ns, t.free, t.n, t.byLocus}
}

// hintKinds returns one hint of every kind for key s: the exact terminal
// of s's search, a proper ancestor of it, NoNode, ids out of range both
// ways, a dead id, a recycled id (live again after being freed) and a
// live node off s's path. Kinds the trie cannot supply right now (no
// dead slot yet, no unrelated node) are skipped.
func hintKinds(t *Trie, s string, recycled map[NodeID]bool) map[string]NodeID {
	term, _ := t.Locate(s)
	hints := map[string]NodeID{
		"terminal":     term,
		"none":         NoNode,
		"out-of-range": NodeID(len(t.nodes) + 3),
		"negative":     -7,
	}
	if p := t.Parent(term); p != NoNode {
		hints["ancestor"] = p
	}
	if len(t.free) > 0 {
		hints["dead"] = t.free[len(t.free)-1]
	}
	t.VisitNodes(func(id NodeID) bool {
		if recycled[id] {
			hints["recycled"] = id
		}
		if !t.LocusContains(id, s) {
			hints["unrelated"] = id
		}
		return true
	})
	return hints
}

// TestInsertAtDeleteAtHints requires InsertAt and DeleteAt to leave the
// same structure and return the same results and errors as a search
// from the root, for every kind of hint, over random inserts, duplicate
// inserts, deletes and absent deletes.
func TestInsertAtDeleteAtHints(t *testing.T) {
	rng := xrand.New(0x41e7)
	keys := randKeys(rng, 60, 1, 7, "abc")
	tr := New()
	live := map[string]bool{}
	freed := map[NodeID]bool{}
	recycled := map[NodeID]bool{}
	kinds := map[string]int{}
	for step := 0; step < 300; step++ {
		s := keys[rng.Intn(len(keys))]
		insert := !live[s]
		if rng.Intn(5) == 0 {
			insert = !insert // a duplicate insert or an absent delete
		}
		for kind, hint := range hintKinds(tr, s, recycled) {
			ref, got := tr.clone(), tr.clone()
			var want, have string
			if insert {
				rr, rerr := ref.Insert(s)
				gr, gerr := got.InsertAt(hint, s)
				want, have = fmt.Sprint(rr, rerr), fmt.Sprint(gr, gerr)
			} else {
				rr, rerr := ref.Delete(s)
				gr, gerr := got.DeleteAt(hint, s)
				want, have = fmt.Sprint(rr, rerr), fmt.Sprint(gr, gerr)
			}
			if want != have {
				t.Fatalf("step %d: %s hint %d for %q (insert %v): got %s, root search %s", step, kind, hint, s, insert, have, want)
			}
			if !reflect.DeepEqual(ref.state(), got.state()) {
				t.Fatalf("step %d: %s hint %d for %q (insert %v) left a different trie", step, kind, hint, s, insert)
			}
			kinds[kind]++
		}
		wantOK := insert != live[s] // the model: insert absent keys, delete present ones
		var err error
		if insert {
			var res InsertResult
			if res, err = tr.Insert(s); err == nil {
				live[s] = true
				for _, id := range res.Created {
					if freed[id] {
						recycled[id] = true
					}
				}
			}
		} else {
			var res DeleteResult
			if res, err = tr.Delete(s); err == nil {
				delete(live, s)
				for _, id := range res.Removed {
					freed[id] = true
					delete(recycled, id)
				}
			}
		}
		if (err == nil) != wantOK {
			t.Fatalf("step %d: insert %v of %q: err %v, model says success %v", step, insert, s, err, wantOK)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for _, kind := range []string{"terminal", "ancestor", "none", "out-of-range", "negative", "dead", "recycled", "unrelated"} {
		if kinds[kind] == 0 {
			t.Errorf("hint kind %q never exercised", kind)
		}
	}
}

// TestEdgeBytesChecked requires CheckInvariants to notice a child link
// whose stored branch byte disagrees with the child's locus.
func TestEdgeBytesChecked(t *testing.T) {
	tr, err := Build([]string{"ab", "ac", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tr.nodes[tr.root].children[0].b = 'z'
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("corrupted branch byte not reported")
	}
}

// TestNodeSize pins a trie node at 48 bytes: storing each child link's
// branch byte costs the edge array four bytes a link, and the field
// order keeps the node itself from growing to pay for it.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 48 {
		t.Fatalf("trie node is %d bytes, want 48", got)
	}
}
