// Package trie implements compressed digital tries (Patricia tries) over
// fixed alphabets, the range-determined link structure of Section 3.2 of
// the skip-webs paper.
//
// Each node is identified by its locus: the string spelled by the path
// from the root. The range of a node, for skip-web purposes, is the set of
// strings extending its locus; the range of a link is the set of strings
// extending the parent locus by a prefix of the edge label. Two loci are
// either nested (one a prefix of the other) or disjoint, the same
// algebra as dyadic quadtree cells, so conflict lists are ancestor chains
// plus contained subtrees.
//
// A compressed trie has O(n) nodes for n keys but can have depth Θ(n) for
// keys sharing long common prefixes — the adversarial regime in which the
// skip-web O(log n) routing bound is interesting.
package trie

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// NodeID identifies a node within one Trie. NoNode means "none".
type NodeID int32

// NoNode is the sentinel NodeID.
const NoNode NodeID = -1

// Trie is a compressed digital trie. The zero value is not usable;
// construct with New or Build. The root always exists and has locus "".
type Trie struct {
	nodes   []node
	free    []NodeID
	root    NodeID
	n       int // number of keys
	byLocus map[string]NodeID
	// created and removed back InsertResult.Created and
	// DeleteResult.Removed: an update creates or removes at most two nodes.
	created, removed [2]NodeID
}

type node struct {
	locus    string
	children []edge // sorted by branch byte
	parent   NodeID
	isKey    bool
	dead     bool
}

// edge is one child link: the child's locus byte just past the parent's
// locus, stored in the parent so a descent step compares bytes without
// loading the child.
type edge struct {
	b  byte
	id NodeID
}

// New creates an empty trie.
func New() *Trie {
	t := &Trie{root: 0, byLocus: make(map[string]NodeID)}
	t.nodes = append(t.nodes, node{locus: "", parent: NoNode})
	t.byLocus[""] = 0
	return t
}

// NodeByLocus returns the live node at exactly the given locus, if any.
// When T is a subset of S, every locus of D(T) (a key or a branching
// point of T) is also a locus of D(S), which is what skip-web anchors
// rely on.
func (t *Trie) NodeByLocus(locus string) (NodeID, bool) {
	id, ok := t.byLocus[locus]
	return id, ok
}

// StepToward returns the child of id on the path toward string s, or
// NoNode if the walk terminates at id. It is the single-hop descent
// primitive used by distributed routing.
func (t *Trie) StepToward(id NodeID, s string) NodeID {
	next := t.childToward(id, s)
	if next == NoNode || !strings.HasPrefix(s, t.nodes[next].locus) {
		return NoNode
	}
	return next
}

// Build creates a compressed trie over the given keys. Keys must be
// distinct and non-empty. The built trie is independent of input order
// (keys are sorted first).
func Build(keys []string) (*Trie, error) {
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	return buildFromSorted(sorted)
}

// BuildSorted creates a compressed trie over keys already in ascending
// lexicographic order — the bulk-load path, which skips Build's sort and
// defensive copy. Unsorted input is rejected; the resulting trie is
// identical to Build's on the same key set.
func BuildSorted(keys []string) (*Trie, error) {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return nil, fmt.Errorf("trie: keys not sorted at %d", i)
		}
	}
	return buildFromSorted(keys)
}

// buildFromSorted inserts the sorted keys in order, rejecting empties
// and duplicates.
func buildFromSorted(sorted []string) (*Trie, error) {
	t := New()
	for i, k := range sorted {
		if k == "" {
			return nil, fmt.Errorf("trie: empty key")
		}
		if i > 0 && sorted[i-1] == k {
			return nil, fmt.Errorf("trie: duplicate key %q", k)
		}
	}
	for _, k := range sorted {
		if _, err := t.Insert(k); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Len returns the number of keys stored.
func (t *Trie) Len() int { return t.n }

// Root returns the root node (locus "").
func (t *Trie) Root() NodeID { return t.root }

// NumNodes returns the number of live nodes, including the root.
func (t *Trie) NumNodes() int {
	c := 0
	for i := range t.nodes {
		if !t.nodes[i].dead {
			c++
		}
	}
	return c
}

// Locus returns the path string of node id.
func (t *Trie) Locus(id NodeID) string { return t.nodes[id].locus }

// Nodes returns the IDs of all live nodes, including the root.
func (t *Trie) Nodes() []NodeID {
	out := make([]NodeID, 0, len(t.nodes))
	t.VisitNodes(func(id NodeID) bool {
		out = append(out, id)
		return true
	})
	return out
}

// VisitNodes calls visit for every live node ID (in slot order) until
// visit returns false. It performs no allocation.
func (t *Trie) VisitNodes(visit func(NodeID) bool) {
	for i := range t.nodes {
		if !t.nodes[i].dead && !visit(NodeID(i)) {
			return
		}
	}
}

// Parent returns the parent of id, or NoNode for the root.
func (t *Trie) Parent(id NodeID) NodeID { return t.nodes[id].parent }

// IsKey reports whether id's locus is one of the stored keys.
func (t *Trie) IsKey(id NodeID) bool { return t.nodes[id].isKey }

// Children returns the child node IDs of id.
func (t *Trie) Children(id NodeID) []NodeID {
	out := make([]NodeID, len(t.nodes[id].children))
	for i, e := range t.nodes[id].children {
		out[i] = e.id
	}
	return out
}

// childToward returns the child of id whose locus starts with
// locus(id) + next byte of s, or NoNode.
func (t *Trie) childToward(id NodeID, s string) NodeID {
	n := &t.nodes[id]
	if len(s) <= len(n.locus) {
		return NoNode
	}
	b := s[len(n.locus)]
	for _, e := range n.children {
		if e.b == b {
			return e.id
		}
	}
	return NoNode
}

// Locate returns the deepest node whose locus is a prefix of s, along with
// the number of child steps taken. This is the terminal range of a trie
// search: the paper's "first place where a query substring differs from
// the string associated with a link".
func (t *Trie) Locate(s string) (NodeID, int) {
	return t.LocateFrom(t.root, s)
}

// LocateFrom walks down from start (whose locus must be a prefix of s) and
// returns the deepest node whose locus is a prefix of s plus the number of
// steps taken.
func (t *Trie) LocateFrom(start NodeID, s string) (NodeID, int) {
	cur := start
	steps := 0
	for {
		next := t.childToward(cur, s)
		if next == NoNode || !strings.HasPrefix(s, t.nodes[next].locus) {
			return cur, steps
		}
		cur = next
		steps++
	}
}

// LocatePrefix returns the topmost node whose subtree holds exactly the
// keys with prefix p, and whether any such key can exist. When ok is
// false, the returned node is the deepest node whose locus is a prefix of
// p (where a search for p terminates).
func (t *Trie) LocatePrefix(p string) (NodeID, bool) {
	id, _ := t.Locate(p)
	if strings.HasPrefix(t.nodes[id].locus, p) {
		// Locate guarantees locus(id) is a prefix of p, so here they are
		// equal and the subtree of id is exactly the p-prefixed keys.
		return id, true
	}
	// p may end inside the compressed edge to one child.
	next := t.childToward(id, p)
	if next != NoNode && strings.HasPrefix(t.nodes[next].locus, p) {
		return next, true
	}
	return id, false
}

// Contains reports whether key s is stored.
func (t *Trie) Contains(s string) bool {
	id, _ := t.Locate(s)
	return t.nodes[id].isKey && t.nodes[id].locus == s
}

// KeysWithPrefix returns all stored keys having prefix p, in sorted order,
// up to max (max <= 0 means unlimited).
func (t *Trie) KeysWithPrefix(p string, max int) []string {
	id, ok := t.LocatePrefix(p)
	if !ok {
		return nil
	}
	var out []string
	var rec func(NodeID) bool
	rec = func(n NodeID) bool {
		if max > 0 && len(out) >= max {
			return false
		}
		nd := &t.nodes[n]
		if nd.isKey {
			out = append(out, nd.locus)
		}
		for _, e := range nd.children {
			if !rec(e.id) {
				return false
			}
		}
		return true
	}
	rec(id)
	sort.Strings(out)
	return out
}

// LocusContains reports whether the range of node a (all strings extending
// locus(a)) contains string s.
func (t *Trie) LocusContains(id NodeID, s string) bool {
	return strings.HasPrefix(s, t.nodes[id].locus)
}

// LociNested reports whether the ranges of loci a and b intersect: for
// prefix ranges that happens exactly when one is a prefix of the other.
func LociNested(a, b string) bool {
	return strings.HasPrefix(a, b) || strings.HasPrefix(b, a)
}

// LocateLocus returns the deepest node whose locus is a prefix of the
// given locus — the anchor computation for skip-web hyperlinks.
func (t *Trie) LocateLocus(locus string) NodeID {
	id, _ := t.Locate(locus)
	return id
}

// Conflicts returns the nodes of t whose ranges intersect the prefix range
// of locus: its ancestors-or-equal plus all nodes extending it (Lemma 4's
// conflict list, at node granularity).
func (t *Trie) Conflicts(locus string) []NodeID {
	var out []NodeID
	cur := t.root
	for {
		n := &t.nodes[cur]
		if strings.HasPrefix(locus, n.locus) && len(n.locus) < len(locus) {
			out = append(out, cur) // proper ancestor
			next := t.childToward(cur, locus)
			if next == NoNode {
				return out
			}
			nl := t.nodes[next].locus
			if strings.HasPrefix(locus, nl) {
				cur = next
				continue
			}
			if strings.HasPrefix(nl, locus) {
				out = t.collectSubtree(next, out)
			}
			return out
		}
		if strings.HasPrefix(n.locus, locus) {
			// cur and its whole subtree extend locus.
			out = t.collectSubtree(cur, out)
			return out
		}
		return out
	}
}

func (t *Trie) collectSubtree(id NodeID, out []NodeID) []NodeID {
	out = append(out, id)
	for _, e := range t.nodes[id].children {
		out = t.collectSubtree(e.id, out)
	}
	return out
}

// InsertResult describes the O(1) structural change made by Insert.
// Created aliases the trie's scratch: it is valid until the next Insert
// or Delete on the same trie.
type InsertResult struct {
	Leaf    NodeID   // node now holding the key (new or pre-existing locus)
	Created []NodeID // nodes created by the insert (possibly empty)
	Parent  NodeID   // the pre-existing node the insertion hung off
}

// Insert adds key s. It returns an error for empty or duplicate keys.
func (t *Trie) Insert(s string) (InsertResult, error) { return t.InsertAt(t.root, s) }

// start returns from when it is a live node whose locus is a prefix of
// s — a node on the root path of s's search — and the root otherwise.
func (t *Trie) start(from NodeID, s string) NodeID {
	if from < 0 || int(from) >= len(t.nodes) || t.nodes[from].dead || !strings.HasPrefix(s, t.nodes[from].locus) {
		return t.root
	}
	return from
}

// InsertAt is Insert with the search starting at from, typically the
// terminal of s's search before the insert: the insert then costs O(1)
// local steps. Any other hint — NoNode, a dead or recycled id, a node
// off s's path — falls back to the root, so the result is always
// Insert's.
func (t *Trie) InsertAt(from NodeID, s string) (InsertResult, error) {
	if s == "" {
		return InsertResult{}, fmt.Errorf("trie: empty key")
	}
	id, _ := t.LocateFrom(t.start(from, s), s)
	n := &t.nodes[id]
	if n.locus == s {
		if n.isKey {
			return InsertResult{}, fmt.Errorf("trie: duplicate key %q", s)
		}
		n.isKey = true
		t.n++
		return InsertResult{Leaf: id, Parent: t.nodes[id].parent}, nil
	}
	// id's locus is the longest stored prefix of s. Check whether s
	// diverges inside an existing edge.
	next := t.childToward(id, s)
	if next == NoNode {
		leaf := t.newNode(s, id, true)
		t.attachChild(id, leaf)
		t.n++
		t.created[0] = leaf
		return InsertResult{Leaf: leaf, Created: t.created[:1], Parent: id}, nil
	}
	// Split the edge id->next at the divergence point.
	nl := t.nodes[next].locus
	base := len(t.nodes[id].locus)
	i := base
	for i < len(s) && i < len(nl) && s[i] == nl[i] {
		i++
	}
	mid := t.newNode(s[:i], id, false)
	t.setChild(id, next, mid)
	t.nodes[next].parent = mid
	t.attachChild(mid, next)
	t.created[0] = mid
	created := t.created[:1]
	leaf := mid
	if i == len(s) {
		// s is exactly the divergence point: mid is the key node.
		t.nodes[mid].isKey = true
	} else {
		leaf = t.newNode(s, mid, true)
		t.attachChild(mid, leaf)
		t.created[1] = leaf
		created = t.created[:2]
	}
	t.n++
	return InsertResult{Leaf: leaf, Created: created, Parent: id}, nil
}

// DeleteResult describes the O(1) structural change made by Delete.
// Removed aliases the trie's scratch: it is valid until the next Insert
// or Delete on the same trie.
type DeleteResult struct {
	// Removed lists destroyed nodes (possibly the key node and a
	// compressed-away parent). Empty when the key node survives as a
	// branching point.
	Removed []NodeID
	// Survivor is the lowest live ancestor covering the removed loci;
	// references anchored at removed nodes should be redirected here. It
	// is the root for top-level removals and NoNode when nothing was
	// removed.
	Survivor NodeID
}

// Delete removes key s. The root is never removed.
func (t *Trie) Delete(s string) (DeleteResult, error) { return t.DeleteAt(t.root, s) }

// DeleteAt is Delete with the search starting at from, typically s's own
// node: the delete then finds it without a walk. Hints are validated as
// in InsertAt, so the result is always Delete's.
func (t *Trie) DeleteAt(from NodeID, s string) (DeleteResult, error) {
	id, _ := t.LocateFrom(t.start(from, s), s)
	n := &t.nodes[id]
	if n.locus != s || !n.isKey {
		return DeleteResult{}, fmt.Errorf("trie: key %q not found", s)
	}
	n.isKey = false
	t.n--
	res := DeleteResult{Removed: t.removed[:0], Survivor: NoNode}
	// Remove the node if it no longer serves a purpose, then possibly
	// compress its parent.
	t.pruneUp(id, &res)
	return res, nil
}

// pruneUp removes id if it is a non-key, non-root node with < 2 children,
// then recurses into the parent.
func (t *Trie) pruneUp(id NodeID, res *DeleteResult) {
	n := &t.nodes[id]
	if id == t.root || n.isKey || n.dead {
		return
	}
	switch len(n.children) {
	case 0:
		parent := n.parent
		t.setChild(parent, id, NoNode)
		t.killNode(id)
		res.Removed = append(res.Removed, id)
		res.Survivor = parent
		t.pruneUp(parent, res)
	case 1:
		// Compress: splice the single child up to the parent, on the
		// parent's edge to id (both loci share its branch byte).
		parent := n.parent
		only := n.children[0].id
		n.children = n.children[:0]
		t.setChild(parent, id, only)
		t.nodes[only].parent = parent
		t.killNode(id)
		res.Removed = append(res.Removed, id)
		res.Survivor = parent
	}
}

func (t *Trie) newNode(locus string, parent NodeID, isKey bool) NodeID {
	n := node{locus: locus, parent: parent, isKey: isKey}
	var id NodeID
	if len(t.free) > 0 {
		id = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
		n.children = t.nodes[id].children[:0] // a recycled slot keeps its edge array
		t.nodes[id] = n
	} else {
		t.nodes = append(t.nodes, n)
		id = NodeID(len(t.nodes) - 1)
	}
	t.byLocus[locus] = id
	return id
}

// killNode marks a node dead and releases its slot and locus index entry.
func (t *Trie) killNode(id NodeID) {
	delete(t.byLocus, t.nodes[id].locus)
	t.nodes[id].dead = true
	t.free = append(t.free, id)
}

// attachChild links child under parent at its branch byte. A node's
// first edge array holds two edges: every non-root node that gains a
// child gains a second before long (compression keeps them branching).
func (t *Trie) attachChild(parent, child NodeID) {
	p := &t.nodes[parent]
	b := t.nodes[child].locus[len(p.locus)]
	i, _ := slices.BinarySearchFunc(p.children, b, func(e edge, b byte) int { return int(e.b) - int(b) })
	if p.children == nil {
		p.children = make([]edge, 0, 2)
	}
	p.children = slices.Insert(p.children, i, edge{b: b, id: child})
}

// setChild points parent's edge to old at repl, whose locus must share
// old's branch byte, or drops the edge when repl is NoNode.
func (t *Trie) setChild(parent, old, repl NodeID) {
	p := &t.nodes[parent]
	i := slices.IndexFunc(p.children, func(e edge) bool { return e.id == old })
	if repl == NoNode {
		p.children = slices.Delete(p.children, i, i+1)
	} else {
		p.children[i].id = repl
	}
}

// Keys returns all stored keys in sorted order.
func (t *Trie) Keys() []string {
	var out []string
	var rec func(NodeID)
	rec = func(id NodeID) {
		n := &t.nodes[id]
		if n.isKey {
			out = append(out, n.locus)
		}
		for _, e := range n.children {
			rec(e.id)
		}
	}
	rec(t.root)
	sort.Strings(out)
	return out
}

// Depth returns the maximum node depth in edges (root = 0).
func (t *Trie) Depth() int {
	var rec func(NodeID) int
	rec = func(id NodeID) int {
		max := 0
		for _, e := range t.nodes[id].children {
			if d := rec(e.id); d > max {
				max = d
			}
		}
		return max + 1
	}
	return rec(t.root) - 1
}

// CheckInvariants verifies Patricia-trie structure: loci strictly extend
// parent loci, non-root non-key nodes have >= 2 children, children sorted
// and unique on first byte, every edge's stored byte is its child's
// branch byte, key count matches. It returns the first violation found.
func (t *Trie) CheckInvariants() error {
	keyCount := 0
	var rec func(NodeID) error
	rec = func(id NodeID) error {
		n := &t.nodes[id]
		if n.dead {
			return fmt.Errorf("trie: dead node %d reachable", id)
		}
		if n.isKey {
			keyCount++
		}
		if id != t.root && !n.isKey && len(n.children) < 2 {
			return fmt.Errorf("trie: non-key node %d (%q) has %d children (compression violated)", id, n.locus, len(n.children))
		}
		var prevByte int = -1
		for _, e := range n.children {
			c := e.id
			cn := &t.nodes[c]
			if cn.parent != id {
				return fmt.Errorf("trie: node %d child %d has parent %d", id, c, cn.parent)
			}
			if !strings.HasPrefix(cn.locus, n.locus) || len(cn.locus) <= len(n.locus) {
				return fmt.Errorf("trie: child locus %q does not extend %q", cn.locus, n.locus)
			}
			b := int(cn.locus[len(n.locus)])
			if b != int(e.b) {
				return fmt.Errorf("trie: node %d stores branch byte %d for child %d, locus says %d", id, e.b, c, b)
			}
			if b <= prevByte {
				return fmt.Errorf("trie: node %d children out of order/duplicate at byte %d", id, b)
			}
			prevByte = b
			if err := rec(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(t.root); err != nil {
		return err
	}
	if keyCount != t.n {
		return fmt.Errorf("trie: key count %d != recorded %d", keyCount, t.n)
	}
	return nil
}

// Render draws the trie for small inputs.
func (t *Trie) Render() string {
	var b strings.Builder
	var rec func(NodeID, int)
	rec = func(id NodeID, depth int) {
		n := &t.nodes[id]
		marker := ""
		if n.isKey {
			marker = " *"
		}
		fmt.Fprintf(&b, "%s%q%s\n", strings.Repeat("  ", depth), n.locus, marker)
		for _, e := range n.children {
			rec(e.id, depth+1)
		}
	}
	rec(t.root, 0)
	return b.String()
}
