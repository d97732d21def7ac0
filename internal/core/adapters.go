package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"github.com/skipwebs/skipwebs/internal/quadtree"
	"github.com/skipwebs/skipwebs/internal/trapmap"
	"github.com/skipwebs/skipwebs/internal/trie"
)

// ---------------------------------------------------------------------------
// One-dimensional sorted lists (Section 2.1, Lemma 1).

// ListOps adapts ListLevel to the skip-web engine. Items and query points
// are uint64 keys. The Change buffers are reused across updates (updates
// are single-writer), so the steady-state update path allocates nothing
// here; construct one instance per web with NewListOps.
type ListOps struct {
	addedBuf, touchedBuf, removedBuf, remapBuf, anchorBuf [1]RangeID
}

// NewListOps creates the adapter.
func NewListOps() *ListOps { return &ListOps{} }

var _ Ops[*ListLevel, uint64, uint64] = (*ListOps)(nil)
var _ BulkOps[*ListLevel, uint64] = (*ListOps)(nil)

// Build constructs the level structure over keys.
func (*ListOps) Build(items []uint64) (*ListLevel, error) { return NewListLevel(items) }

// SortForBuild orders keys ascending — the canonical build order.
func (*ListOps) SortForBuild(items []uint64) bool {
	slices.Sort(items)
	return true
}

// BuildSorted is the O(n) bulk-load build over ascending keys.
func (*ListOps) BuildSorted(items []uint64) (*ListLevel, error) { return NewListLevelSorted(items) }

// VisitRanges enumerates live ranges without allocating.
func (*ListOps) VisitRanges(l *ListLevel, visit func(RangeID) bool) { l.VisitRanges(visit) }

// Contains tests range membership.
func (*ListOps) Contains(l *ListLevel, r RangeID, q uint64) bool { return l.Contains(r, q) }

// Depth is constant: list ranges partition the key space.
func (*ListOps) Depth(l *ListLevel, r RangeID) int { return 0 }

// Step walks one range toward q.
func (*ListOps) Step(l *ListLevel, r RangeID, q uint64) RangeID { return l.Step(r, q) }

// Anchors maps a child range to the parent range holding the same key;
// the parent terminal is then an expected-O(1) Step walk away (Lemma 1).
// The result aliases the adapter's scratch (the engine copies it).
func (o *ListOps) Anchors(child, parent *ListLevel, r RangeID) ([]RangeID, error) {
	if child.IsHead(r) {
		o.anchorBuf[0] = parent.Head()
		return o.anchorBuf[:], nil
	}
	pr, ok := parent.ByKey(child.Key(r))
	if !ok {
		return nil, fmt.Errorf("core: key %d of child level missing from parent level", child.Key(r))
	}
	o.anchorBuf[0] = pr
	return o.anchorBuf[:], nil
}

// Up is the predecessor range: the climb walks left to the nearest key
// present in the child level — expected O(1) steps, since each parent
// key is in the child with probability 1/2.
func (*ListOps) Up(l *ListLevel, r RangeID) RangeID {
	if l.IsHead(r) {
		return NoRange
	}
	return l.Prev(r)
}

// Payload is one storage unit: a list range is a single key node, and a
// churn migration moves it in one message.
func (*ListOps) Payload(l *ListLevel, r RangeID) int { return 1 }

// Locate performs a full local search.
func (*ListOps) Locate(l *ListLevel, q uint64) RangeID { return l.Locate(q) }

// QueryOf is the identity: items are their own query points.
func (*ListOps) QueryOf(x uint64) uint64 { return x }

// CodeOf is the identity; the engine mixes it with the web seed.
func (*ListOps) CodeOf(x uint64) uint64 { return x }

// Insert splices the key in after the hinted terminal. The Change
// aliases the adapter's reusable buffers (see the Change contract).
func (o *ListOps) Insert(l *ListLevel, x uint64, q uint64, hint RangeID) (Change, error) {
	id, err := l.InsertKey(x, hint)
	if err != nil {
		return Change{}, err
	}
	o.addedBuf[0] = id
	o.touchedBuf[0] = l.Prev(id)
	return Change{Added: o.addedBuf[:], Touched: o.touchedBuf[:]}, nil
}

// Delete unsplices the key at range at when that holds it; the
// predecessor inherits its interval.
func (o *ListOps) Delete(l *ListLevel, x uint64, q uint64, at RangeID) (Change, error) {
	dead, pred, err := l.deleteKeyAt(x, at)
	if err != nil {
		return Change{}, err
	}
	o.removedBuf[0], o.remapBuf[0] = dead, pred
	o.touchedBuf[0] = pred
	return Change{
		Removed: o.removedBuf[:],
		RemapTo: o.remapBuf[:],
		Touched: o.touchedBuf[:],
	}, nil
}

// ---------------------------------------------------------------------------
// Compressed quadtrees / octrees (Section 3.1, Lemma 3).

// QuadOps adapts quadtree.Tree to the skip-web engine. Items are points;
// query points are Morton codes. The Change buffers are reused across
// updates (updates are single-writer), so the steady-state update path
// allocates only what the tree itself must.
type QuadOps struct {
	// Dim is the dimension (2 = quadtree, 3 = octree, up to 6).
	Dim   int
	proto *quadtree.Tree

	change    treeChange
	anchorBuf [1]RangeID
	codeBuf   []uint64
}

// treeChange holds the Change buffers of a tree adapter: a tree update
// creates or removes at most two nodes.
type treeChange struct{ added, removed, remap [2]RangeID }

// inserted reports a tree insert's created nodes as a Change.
func inserted[N ~int32](c *treeChange, created []N) Change {
	for i, n := range created {
		c.added[i] = RangeID(n)
	}
	return Change{Added: c.added[:len(created)]}
}

// deleted reports a tree delete's removed nodes as a Change, each
// remapped to the survivor (NoRange when nothing survives: the trees'
// NoNode is -1 too).
func deleted[N ~int32](c *treeChange, removed []N, survivor N) Change {
	for i, n := range removed {
		c.removed[i], c.remap[i] = RangeID(n), RangeID(survivor)
	}
	return Change{Removed: c.removed[:len(removed)], RemapTo: c.remap[:len(removed)]}
}

// NewQuadOps creates the adapter for d-dimensional points.
func NewQuadOps(d int) *QuadOps {
	return &QuadOps{Dim: d, proto: quadtree.New(d)}
}

var _ Ops[*quadtree.Tree, quadtree.Point, uint64] = (*QuadOps)(nil)
var _ BulkOps[*quadtree.Tree, quadtree.Point] = (*QuadOps)(nil)

// Code converts a point to its Morton code (the engine's query type).
func (o *QuadOps) Code(p quadtree.Point) (uint64, error) { return o.proto.Code(p) }

// Build constructs the compressed tree.
func (o *QuadOps) Build(items []quadtree.Point) (*quadtree.Tree, error) {
	return quadtree.Build(o.Dim, items)
}

// SortForBuild orders points by Morton code — the canonical build order
// (quadtree.Build sorts by code internally, so the built tree is
// order-independent). Invalid coordinates report false: the plain Build
// path then surfaces its usual error.
func (o *QuadOps) SortForBuild(items []quadtree.Point) bool {
	codes := o.codeBuf[:0]
	for _, p := range items {
		c, err := o.proto.Code(p)
		if err != nil {
			o.codeBuf = codes[:0]
			return false
		}
		codes = append(codes, c)
	}
	o.codeBuf = codes[:0]
	sort.Sort(&pointsByCode{items: items, codes: codes})
	return true
}

// pointsByCode sorts points and their precomputed Morton codes together.
type pointsByCode struct {
	items []quadtree.Point
	codes []uint64
}

func (s *pointsByCode) Len() int           { return len(s.items) }
func (s *pointsByCode) Less(i, j int) bool { return s.codes[i] < s.codes[j] }
func (s *pointsByCode) Swap(i, j int) {
	s.items[i], s.items[j] = s.items[j], s.items[i]
	s.codes[i], s.codes[j] = s.codes[j], s.codes[i]
}

// BuildSorted is the O(n) bulk-load build over code-ordered points.
func (o *QuadOps) BuildSorted(items []quadtree.Point) (*quadtree.Tree, error) {
	return quadtree.BuildSorted(o.Dim, items)
}

// VisitRanges enumerates live nodes without allocating (node and link
// ranges coincide on cells).
func (o *QuadOps) VisitRanges(l *quadtree.Tree, visit func(RangeID) bool) {
	l.VisitNodes(func(n quadtree.NodeID) bool { return visit(RangeID(n)) })
}

// Contains tests cell membership of the query code.
func (o *QuadOps) Contains(l *quadtree.Tree, r RangeID, q uint64) bool {
	return l.CellContainsCode(l.CellOf(quadtree.NodeID(r)), q)
}

// Depth is the cell prefix length: deeper cells are finer.
func (o *QuadOps) Depth(l *quadtree.Tree, r RangeID) int {
	return l.CellOf(quadtree.NodeID(r)).PLen
}

// Step descends one node toward the query code.
func (o *QuadOps) Step(l *quadtree.Tree, r RangeID, q uint64) RangeID {
	next := l.StepToward(quadtree.NodeID(r), q)
	if next == quadtree.NoNode {
		return NoRange
	}
	return RangeID(next)
}

// Anchors returns the parent node with the identical cell: every cell of
// D(T) is a cell of D(S) for T ⊆ S, since both are LCA cells of the same
// points. The result aliases the adapter's scratch (the engine copies it).
func (o *QuadOps) Anchors(child, parent *quadtree.Tree, r RangeID) ([]RangeID, error) {
	c := child.CellOf(quadtree.NodeID(r))
	pid, ok := parent.NodeByCell(c)
	if !ok {
		return nil, fmt.Errorf("core: cell {%b %d} of child tree missing from parent tree", c.Prefix, c.PLen)
	}
	o.anchorBuf[0] = RangeID(pid)
	return o.anchorBuf[:], nil
}

// Up is the parent node: the climb reaches a cell that exists in the
// child tree in expected O(1) steps by Lemma 3.
func (o *QuadOps) Up(l *quadtree.Tree, r RangeID) RangeID {
	return RangeID(l.Parent(quadtree.NodeID(r)))
}

// Payload is one storage unit: a quadtree range is one compressed-tree
// node (cell plus, at leaves, its single point), moved in one message
// during churn.
func (o *QuadOps) Payload(l *quadtree.Tree, r RangeID) int { return 1 }

// Locate performs a full local point location.
func (o *QuadOps) Locate(l *quadtree.Tree, q uint64) RangeID {
	id, _ := l.Locate(q)
	if id == quadtree.NoNode {
		return NoRange
	}
	return RangeID(id)
}

// QueryOf returns the point's Morton code; the point must be valid for
// the configured dimension (the public API validates before reaching
// here).
func (o *QuadOps) QueryOf(x quadtree.Point) uint64 {
	c, err := o.proto.Code(x)
	if err != nil {
		panic(fmt.Sprintf("core: invalid point reached QuadOps.QueryOf: %v", err))
	}
	return c
}

// CodeOf equals QueryOf: the Morton code is injective.
func (o *QuadOps) CodeOf(x quadtree.Point) uint64 { return o.QueryOf(x) }

// Insert adds the point, walking down from the hinted terminal. The
// Change aliases the adapter's reusable buffers.
func (o *QuadOps) Insert(l *quadtree.Tree, x quadtree.Point, q uint64, hint RangeID) (Change, error) {
	res, err := l.InsertAt(quadtree.NodeID(hint), x)
	if err != nil {
		return Change{}, err
	}
	return inserted(&o.change, res.Created), nil
}

// Delete removes the point found from the terminal at, remapping dead
// cells to the survivor.
func (o *QuadOps) Delete(l *quadtree.Tree, x quadtree.Point, q uint64, at RangeID) (Change, error) {
	res, err := l.DeleteAt(quadtree.NodeID(at), x)
	if err != nil {
		return Change{}, err
	}
	return deleted(&o.change, res.Removed, res.Survivor), nil
}

// ---------------------------------------------------------------------------
// Compressed digital tries (Section 3.2, Lemma 4).

// TrieOps adapts trie.Trie to the skip-web engine. Items and query points
// are strings. The Change buffers are reused across updates (updates are
// single-writer); construct one instance per web with NewTrieOps.
type TrieOps struct {
	change    treeChange
	anchorBuf [1]RangeID
}

// NewTrieOps creates the adapter.
func NewTrieOps() *TrieOps { return &TrieOps{} }

var _ Ops[*trie.Trie, string, string] = (*TrieOps)(nil)
var _ BulkOps[*trie.Trie, string] = (*TrieOps)(nil)

// Build constructs the compressed trie.
func (*TrieOps) Build(items []string) (*trie.Trie, error) { return trie.Build(items) }

// SortForBuild orders keys lexicographically — the canonical build order
// (trie.Build sorts internally, so the built trie is order-independent).
func (*TrieOps) SortForBuild(items []string) bool {
	sort.Strings(items)
	return true
}

// BuildSorted is the bulk-load build over pre-sorted keys, skipping the
// per-level re-sort.
func (*TrieOps) BuildSorted(items []string) (*trie.Trie, error) { return trie.BuildSorted(items) }

// VisitRanges enumerates live nodes without allocating.
func (*TrieOps) VisitRanges(l *trie.Trie, visit func(RangeID) bool) {
	l.VisitNodes(func(n trie.NodeID) bool { return visit(RangeID(n)) })
}

// Contains reports whether q extends the node's locus.
func (*TrieOps) Contains(l *trie.Trie, r RangeID, q string) bool {
	return l.LocusContains(trie.NodeID(r), q)
}

// Depth is the locus length.
func (*TrieOps) Depth(l *trie.Trie, r RangeID) int { return len(l.Locus(trie.NodeID(r))) }

// Step descends one node toward q.
func (*TrieOps) Step(l *trie.Trie, r RangeID, q string) RangeID {
	next := l.StepToward(trie.NodeID(r), q)
	if next == trie.NoNode {
		return NoRange
	}
	return RangeID(next)
}

// Anchors returns the parent node at the identical locus: every locus of
// D(T) (a key or a branching point of T ⊆ S) is a locus of D(S). The
// result aliases the adapter's scratch (the engine copies it).
func (o *TrieOps) Anchors(child, parent *trie.Trie, r RangeID) ([]RangeID, error) {
	locus := child.Locus(trie.NodeID(r))
	pid, ok := parent.NodeByLocus(locus)
	if !ok {
		return nil, fmt.Errorf("core: locus %q of child trie missing from parent trie", locus)
	}
	o.anchorBuf[0] = RangeID(pid)
	return o.anchorBuf[:], nil
}

// Up is the parent node: the climb reaches a locus that exists in the
// child trie in expected O(1) steps by Lemma 4.
func (*TrieOps) Up(l *trie.Trie, r RangeID) RangeID { return RangeID(l.Parent(trie.NodeID(r))) }

// Payload is one storage unit: a trie range is one compressed-trie node
// (locus plus child edges), moved in one message during churn.
func (*TrieOps) Payload(l *trie.Trie, r RangeID) int { return 1 }

// Locate performs a full local search.
func (*TrieOps) Locate(l *trie.Trie, q string) RangeID {
	id, _ := l.Locate(q)
	return RangeID(id)
}

// QueryOf is the identity.
func (*TrieOps) QueryOf(x string) string { return x }

// CodeOf hashes the string (FNV-1a); collisions only degrade leaf sizes.
func (*TrieOps) CodeOf(x string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(x))
	return h.Sum64()
}

// Insert adds the key, searching down from the hinted terminal. The
// Change aliases the adapter's reusable buffers.
func (o *TrieOps) Insert(l *trie.Trie, x string, q string, hint RangeID) (Change, error) {
	res, err := l.InsertAt(trie.NodeID(hint), x)
	if err != nil {
		return Change{}, err
	}
	return inserted(&o.change, res.Created), nil
}

// Delete removes the key found from the terminal at, remapping pruned
// loci to the survivor.
func (o *TrieOps) Delete(l *trie.Trie, x string, q string, at RangeID) (Change, error) {
	res, err := l.DeleteAt(trie.NodeID(at), x)
	if err != nil {
		return Change{}, err
	}
	return deleted(&o.change, res.Removed, res.Survivor), nil
}

// ---------------------------------------------------------------------------
// Trapezoidal maps (Section 3.3, Lemma 5). Static: Build + Query only,
// matching the paper's amortization caveat for trapezoid updates.

// TrapOps adapts trapmap.Map to the skip-web engine. Items are segments;
// query points are planar points.
type TrapOps struct {
	// Bounds is the bounding box for every level's map.
	Bounds trapmap.Rect
}

var _ Ops[*trapmap.Map, trapmap.Segment, trapmap.Point] = TrapOps{}

// Build constructs the trapezoidal map of the subset.
func (o TrapOps) Build(items []trapmap.Segment) (*trapmap.Map, error) {
	return trapmap.Build(items, o.Bounds)
}

// VisitRanges enumerates the trapezoids without allocating: trapezoid
// IDs are dense, so the iteration is a plain counted loop.
func (o TrapOps) VisitRanges(l *trapmap.Map, visit func(RangeID) bool) {
	for i, n := 0, l.NumTraps(); i < n; i++ {
		if !visit(RangeID(i)) {
			return
		}
	}
}

// Contains tests trapezoid membership.
func (o TrapOps) Contains(l *trapmap.Map, r RangeID, q trapmap.Point) bool {
	return l.Contains(trapmap.TrapID(r), q)
}

// Depth is constant: trapezoids partition the box.
func (o TrapOps) Depth(l *trapmap.Map, r RangeID) int { return 0 }

// Step never moves: the conflict-list hyperlinks land directly on the
// parent terminal.
func (o TrapOps) Step(l *trapmap.Map, r RangeID, q trapmap.Point) RangeID { return NoRange }

// Anchors is the full conflict list C(Q, S_b) — expected O(1) by Lemma 5.
func (o TrapOps) Anchors(child, parent *trapmap.Map, r RangeID) ([]RangeID, error) {
	conf := parent.Conflicts(child.Trap(trapmap.TrapID(r)))
	out := make([]RangeID, len(conf))
	for i, c := range conf {
		out[i] = RangeID(c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: trapezoid %d has empty conflict list", r)
	}
	return out, nil
}

// Up never moves: the trapezoidal-map skip-web is static.
func (o TrapOps) Up(l *trapmap.Map, r RangeID) RangeID { return NoRange }

// Payload is one storage unit: a trapezoid is one face record (its
// bounding segments are shared references), moved in one message during
// churn.
func (o TrapOps) Payload(l *trapmap.Map, r RangeID) int { return 1 }

// Locate performs full local point location.
func (o TrapOps) Locate(l *trapmap.Map, q trapmap.Point) RangeID {
	id, err := l.Locate(q)
	if err != nil {
		return NoRange
	}
	return RangeID(id)
}

// QueryOf returns the segment's left endpoint (used only for membership
// bits; the trapezoid web is static).
func (o TrapOps) QueryOf(x trapmap.Segment) trapmap.Point { return x.A }

// CodeOf hashes the segment coordinates.
func (o TrapOps) CodeOf(x trapmap.Segment) uint64 {
	h := fnv.New64a()
	var buf [32]byte
	put := func(off int, v int64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	put(0, x.A.X)
	put(8, x.A.Y)
	put(16, x.B.X)
	put(24, x.B.Y)
	_, _ = h.Write(buf[:])
	return h.Sum64()
}

// Insert is unsupported: the trapezoidal-map skip-web is static.
func (o TrapOps) Insert(l *trapmap.Map, x trapmap.Segment, q trapmap.Point, hint RangeID) (Change, error) {
	return Change{}, ErrStatic
}

// Delete is unsupported: the trapezoidal-map skip-web is static.
func (o TrapOps) Delete(l *trapmap.Map, x trapmap.Segment, q trapmap.Point, at RangeID) (Change, error) {
	return Change{}, ErrStatic
}
