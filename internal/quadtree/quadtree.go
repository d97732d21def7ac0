// Package quadtree implements compressed quadtrees and octrees for point
// sets in d-dimensional space, the range-determined link structure of
// Section 3.1 of the skip-webs paper.
//
// Points have integer coordinates in [0, 2^K) per dimension, where
// K = 62/d bits, so that every quadtree cell is a dyadic hypercube
// identified exactly by a prefix of the points' Morton (z-order) codes.
// Two dyadic cells are either nested or disjoint, which makes the range
// arithmetic (containment, conflict lists) exact integer computations.
//
// A compressed quadtree contracts chains of single-child nodes, so it has
// O(n) nodes but can still have depth Θ(n) for adversarially clustered
// inputs — exactly the regime where the skip-web routing bound O(log n)
// is interesting.
//
// The range of a node is its hypercube; the range of a link is the cube of
// the child it leads to (Section 3.1). Because link ranges duplicate child
// node ranges, all range computations here are expressed on node cells.
package quadtree

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// NodeID identifies a node within one Tree. NoNode means "none".
type NodeID int32

// NoNode is the sentinel NodeID.
const NoNode NodeID = -1

// Point is a d-dimensional point with integer coordinates. All points in
// one Tree must have the same dimension and coordinates < 2^K where
// K = Tree.CoordBits().
type Point []uint32

// Cell is a dyadic hypercube, identified by a Morton-code prefix. PLen is
// the prefix length in bits and is always a multiple of the dimension d;
// the cube's side is 2^(K - PLen/d) in coordinate units. PLen == 0 is the
// whole space.
type Cell struct {
	Prefix uint64
	PLen   int
}

// Tree is a compressed quadtree (d = 2), octree (d = 3), or their
// d-dimensional generalization. The zero value is not usable; construct
// with New or Build.
type Tree struct {
	d     int
	k     int // coordinate bits per dimension
	ck    int // total code bits = d*k
	nodes []node
	// pts and codes are the point slots, indexed by node.point; freePts
	// lists the slots deleted leaves gave back (nil in pts, so a deleted
	// point's coordinates are not kept alive).
	pts     []Point
	codes   []uint64
	freePts []int32
	root    NodeID
	free    []NodeID        // recycled node slots
	index   map[Cell]NodeID // live cell -> node
	// created and removed back InsertResult.Created and
	// DeleteResult.Removed: an update creates or removes at most two nodes.
	created, removed [2]NodeID
}

type node struct {
	cell     Cell
	parent   NodeID
	childBit []uint8  // the d-bit branch value under this node's cell
	childID  []NodeID // parallel to childBit
	point    int32    // index into pts if this is a leaf, else -1
	dead     bool
}

// New creates an empty tree for d-dimensional points, 2 <= d <= 6.
func New(d int) *Tree {
	if d < 2 || d > 6 {
		panic(fmt.Sprintf("quadtree: dimension %d out of range [2,6]", d))
	}
	k := 62 / d
	return &Tree{d: d, k: k, ck: d * k, root: NoNode, index: make(map[Cell]NodeID)}
}

// Build creates a compressed tree over the given points. Points must be
// distinct; duplicates are rejected with an error. The built tree is
// independent of input order (points are sorted by Morton code first).
func Build(d int, points []Point) (*Tree, error) {
	t := New(d)
	type cp struct {
		code uint64
		idx  int
	}
	cps := make([]cp, len(points))
	for i, p := range points {
		c, err := t.Code(p)
		if err != nil {
			return nil, fmt.Errorf("quadtree: point %d: %w", i, err)
		}
		cps[i] = cp{code: c, idx: i}
	}
	sort.Slice(cps, func(i, j int) bool { return cps[i].code < cps[j].code })
	for i := 1; i < len(cps); i++ {
		if cps[i].code == cps[i-1].code {
			return nil, fmt.Errorf("quadtree: duplicate point %v", points[cps[i].idx])
		}
	}
	t.pts = make([]Point, len(points))
	t.codes = make([]uint64, len(points))
	for i, c := range cps {
		t.pts[i] = points[c.idx]
		t.codes[i] = c.code
	}
	if len(points) > 0 {
		t.root = t.buildRange(0, len(points), NoNode)
		t.ensureUniversalRoot()
	}
	return t, nil
}

// BuildSorted creates a compressed tree over points already in ascending
// Morton-code order — the O(n) bulk-load path, which skips Build's sort.
// Points must be distinct; unsorted or duplicate input is rejected. The
// resulting tree is identical to Build's on the same point set.
func BuildSorted(d int, points []Point) (*Tree, error) {
	t := New(d)
	t.pts = append(t.pts, points...)
	t.codes = make([]uint64, len(points))
	for i, p := range points {
		c, err := t.Code(p)
		if err != nil {
			return nil, fmt.Errorf("quadtree: point %d: %w", i, err)
		}
		if i > 0 {
			if c == t.codes[i-1] {
				return nil, fmt.Errorf("quadtree: duplicate point %v", p)
			}
			if c < t.codes[i-1] {
				return nil, fmt.Errorf("quadtree: points not in Morton order at %d", i)
			}
		}
		t.codes[i] = c
	}
	if len(points) > 0 {
		t.root = t.buildRange(0, len(points), NoNode)
		t.ensureUniversalRoot()
	}
	return t, nil
}

// ensureUniversalRoot guarantees the root cell is the whole space
// (PLen == 0). Skip-web levels rely on this: every nonempty D(T) then has
// a range containing any query, and the root cell exists in every level's
// tree. The universal root is the one internal node allowed a single
// child.
func (t *Tree) ensureUniversalRoot() {
	if t.root == NoNode || t.nodes[t.root].cell.PLen == 0 {
		return
	}
	old := t.root
	oldCell := t.nodes[old].cell
	u := t.newNode(Cell{Prefix: 0, PLen: 0}, NoNode, -1)
	b := uint8((oldCell.Prefix >> (oldCell.PLen - t.d)) & (1<<t.d - 1))
	un := &t.nodes[u]
	un.childBit = append(un.childBit, b)
	un.childID = append(un.childID, old)
	t.nodes[old].parent = u
	t.root = u
}

// buildRange builds the compressed subtree over sorted code range [lo, hi).
func (t *Tree) buildRange(lo, hi int, parent NodeID) NodeID {
	if hi-lo == 1 {
		return t.newNode(t.pointCell(t.codes[lo]), parent, int32(lo))
	}
	// The cell of this subtree is the longest common aligned prefix of the
	// first and last codes (sorted order makes those the extremes).
	cell := t.lcaCell(t.codes[lo], t.codes[hi-1])
	id := t.newNode(cell, parent, -1)
	// Partition [lo, hi) by the d bits below the cell prefix.
	shift := t.ck - cell.PLen - t.d
	start := lo
	for start < hi {
		b := uint8((t.codes[start] >> shift) & (1<<t.d - 1))
		end := start + 1
		for end < hi && uint8((t.codes[end]>>shift)&(1<<t.d-1)) == b {
			end++
		}
		child := t.buildRange(start, end, id)
		t.nodes[id].childBit = append(t.nodes[id].childBit, b)
		t.nodes[id].childID = append(t.nodes[id].childID, child)
		start = end
	}
	return id
}

func (t *Tree) newNode(cell Cell, parent NodeID, point int32) NodeID {
	n := node{cell: cell, parent: parent, point: point}
	var id NodeID
	if len(t.free) > 0 {
		id = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
		// A recycled slot keeps its child arrays.
		n.childBit, n.childID = t.nodes[id].childBit[:0], t.nodes[id].childID[:0]
		t.nodes[id] = n
	} else {
		t.nodes = append(t.nodes, n)
		id = NodeID(len(t.nodes) - 1)
	}
	t.index[cell] = id
	return id
}

// killNode marks a node dead and releases its slot and index entry.
func (t *Tree) killNode(id NodeID) {
	delete(t.index, t.nodes[id].cell)
	t.nodes[id].dead = true
	t.free = append(t.free, id)
}

// NodeByCell returns the live node whose cell is exactly c, if any. When
// T is a subset of S, every node cell of D(T) is also a node cell of D(S)
// (both are least common ancestor cells of the same point set), which is
// what skip-web anchors rely on.
func (t *Tree) NodeByCell(c Cell) (NodeID, bool) {
	id, ok := t.index[c]
	return id, ok
}

// StepToward returns the child of id whose cell contains code, or NoNode
// if the walk terminates at id. It is the single-hop descent primitive
// used by distributed routing, where each step may cross hosts.
func (t *Tree) StepToward(id NodeID, code uint64) NodeID {
	return t.childContaining(id, code)
}

// Dim returns the dimension d.
func (t *Tree) Dim() int { return t.d }

// CoordBits returns K, the number of bits per coordinate.
func (t *Tree) CoordBits() int { return t.k }

// Root returns the root node, or NoNode for an empty tree.
func (t *Tree) Root() NodeID { return t.root }

// Len returns the number of points stored.
func (t *Tree) Len() int {
	n := 0
	for i := range t.nodes {
		if !t.nodes[i].dead && t.nodes[i].point >= 0 {
			n++
		}
	}
	return n
}

// NumNodes returns the number of live nodes.
func (t *Tree) NumNodes() int {
	n := 0
	for i := range t.nodes {
		if !t.nodes[i].dead {
			n++
		}
	}
	return n
}

// Nodes returns the IDs of all live nodes.
func (t *Tree) Nodes() []NodeID {
	out := make([]NodeID, 0, len(t.nodes))
	t.VisitNodes(func(id NodeID) bool {
		out = append(out, id)
		return true
	})
	return out
}

// VisitNodes calls visit for every live node ID (in slot order) until
// visit returns false. It performs no allocation.
func (t *Tree) VisitNodes(visit func(NodeID) bool) {
	for i := range t.nodes {
		if !t.nodes[i].dead && !visit(NodeID(i)) {
			return
		}
	}
}

// Code returns the Morton code of p: coordinate bits interleaved from most
// significant to least, dimension 0 first.
func (t *Tree) Code(p Point) (uint64, error) {
	if len(p) != t.d {
		return 0, fmt.Errorf("point dimension %d, tree dimension %d", len(p), t.d)
	}
	var code uint64
	for b := t.k - 1; b >= 0; b-- {
		for i := 0; i < t.d; i++ {
			if p[i] >= 1<<t.k {
				return 0, fmt.Errorf("coordinate %d out of range [0, 2^%d)", p[i], t.k)
			}
			code = code<<1 | uint64(p[i]>>b&1)
		}
	}
	return code, nil
}

// pointCell is the full-precision cell of a single point.
func (t *Tree) pointCell(code uint64) Cell {
	return Cell{Prefix: code, PLen: t.ck}
}

// lcaCell returns the smallest dyadic cell containing both codes.
func (t *Tree) lcaCell(a, b uint64) Cell {
	if a == b {
		return Cell{Prefix: a, PLen: t.ck}
	}
	// Align codes at bit 63 so LeadingZeros counts common code bits.
	cp := bits.LeadingZeros64((a ^ b) << (64 - t.ck))
	if cp > t.ck {
		cp = t.ck
	}
	al := cp / t.d * t.d // cells exist only at depths that are multiples of d
	return Cell{Prefix: a >> (t.ck - al), PLen: al}
}

// CellOf returns the cell of node id.
func (t *Tree) CellOf(id NodeID) Cell { return t.nodes[id].cell }

// Parent returns the parent of id, or NoNode for the root.
func (t *Tree) Parent(id NodeID) NodeID { return t.nodes[id].parent }

// IsLeaf reports whether id is a leaf (stores a point).
func (t *Tree) IsLeaf(id NodeID) bool { return t.nodes[id].point >= 0 }

// PointAt returns the point stored at leaf id.
func (t *Tree) PointAt(id NodeID) Point { return t.pts[t.nodes[id].point] }

// Children returns the child node IDs of id.
func (t *Tree) Children(id NodeID) []NodeID {
	return append([]NodeID(nil), t.nodes[id].childID...)
}

// CellContainsCode reports whether cell contains the given point code.
func (t *Tree) CellContainsCode(c Cell, code uint64) bool {
	return code>>(t.ck-c.PLen) == c.Prefix || c.PLen == 0
}

// CellContainsCell reports whether outer contains inner (dyadic cells are
// nested or disjoint, so this plus the symmetric test decides intersection).
func (t *Tree) CellContainsCell(outer, inner Cell) bool {
	if outer.PLen > inner.PLen {
		return false
	}
	if outer.PLen == 0 {
		return true
	}
	return inner.Prefix>>(inner.PLen-outer.PLen) == outer.Prefix
}

// CellsIntersect reports whether two dyadic cells intersect.
func (t *Tree) CellsIntersect(a, b Cell) bool {
	return t.CellContainsCell(a, b) || t.CellContainsCell(b, a)
}

// Locate returns the deepest node whose cell contains the point code, or
// NoNode for an empty tree. The second result is the number of nodes
// stepped through (the walk length, used for message accounting).
func (t *Tree) Locate(code uint64) (NodeID, int) {
	return t.LocateFrom(t.root, code)
}

// LocateFrom walks down from start (whose cell must contain code) to the
// deepest node containing code. It returns the terminal node and the
// number of child steps taken.
func (t *Tree) LocateFrom(start NodeID, code uint64) (NodeID, int) {
	if start == NoNode {
		return NoNode, 0
	}
	cur := start
	steps := 0
	for {
		next := t.childContaining(cur, code)
		if next == NoNode {
			return cur, steps
		}
		cur = next
		steps++
	}
}

// childContaining returns the child of id whose cell contains code, or
// NoNode if no child cell contains it.
func (t *Tree) childContaining(id NodeID, code uint64) NodeID {
	n := &t.nodes[id]
	if n.point >= 0 || n.cell.PLen >= t.ck {
		return NoNode
	}
	shift := t.ck - n.cell.PLen - t.d
	b := uint8((code >> shift) & (1<<t.d - 1))
	for i, cb := range n.childBit {
		if cb == b {
			c := n.childID[i]
			if t.CellContainsCode(t.nodes[c].cell, code) {
				return c
			}
			return NoNode
		}
	}
	return NoNode
}

// LocateCell returns the deepest node whose cell contains the given cell.
// It is the anchor computation used by skip-web hyperlinks: for a cell of
// D(T), it finds where the search continues in D(S).
func (t *Tree) LocateCell(c Cell) NodeID {
	if t.root == NoNode {
		return NoNode
	}
	// If even the root cell does not contain c, the root is still the best
	// anchor: a search for anything inside c resumes from the top.
	cur := t.root
	for {
		n := &t.nodes[cur]
		if n.point >= 0 {
			return cur
		}
		next := NoNode
		for _, cid := range n.childID {
			if t.CellContainsCell(t.nodes[cid].cell, c) {
				next = cid
				break
			}
		}
		if next == NoNode {
			return cur
		}
		cur = next
	}
}

// Conflicts returns the nodes of t whose cells intersect cell c: the
// conflict list C(c, S) of Lemma 3. For dyadic cells these are exactly the
// ancestors-or-equal of c plus the subtree of nodes contained in c.
func (t *Tree) Conflicts(c Cell) []NodeID {
	var out []NodeID
	if t.root == NoNode {
		return out
	}
	cur := t.root
	for cur != NoNode {
		n := &t.nodes[cur]
		switch {
		case t.CellContainsCell(n.cell, c):
			// Ancestor-or-equal: conflict, keep descending toward c.
			out = append(out, cur)
			if n.cell.PLen == c.PLen && n.cell.Prefix == c.Prefix {
				// Equal cell: its strict descendants are inside c too.
				for _, cid := range n.childID {
					out = t.collectSubtree(cid, out)
				}
				return out
			}
			next := NoNode
			for _, cid := range n.childID {
				if t.CellsIntersect(t.nodes[cid].cell, c) {
					next = cid
					break
				}
			}
			cur = next
		case t.CellContainsCell(c, n.cell):
			// Contained in c: the whole subtree conflicts.
			out = t.collectSubtree(cur, out)
			return out
		default:
			return out
		}
	}
	return out
}

func (t *Tree) collectSubtree(id NodeID, out []NodeID) []NodeID {
	out = append(out, id)
	for _, c := range t.nodes[id].childID {
		out = t.collectSubtree(c, out)
	}
	return out
}

// InsertResult describes the O(1) structural change made by Insert.
// Created aliases the tree's scratch: it is valid until the next Insert
// or Delete on the same tree.
type InsertResult struct {
	Leaf    NodeID   // the new leaf holding the point
	Created []NodeID // all nodes created, including Leaf
	Parent  NodeID   // the pre-existing node the insertion hung off, or NoNode
}

// Insert adds point p, returning the affected nodes. It returns an error
// for dimension mismatches, out-of-range coordinates, or duplicates.
func (t *Tree) Insert(p Point) (InsertResult, error) { return t.InsertAt(t.root, p) }

// start returns from when it is a live node whose cell contains code — a
// node on the root path of code's search — and the root otherwise.
func (t *Tree) start(from NodeID, code uint64) NodeID {
	if from < 0 || int(from) >= len(t.nodes) || t.nodes[from].dead || !t.CellContainsCode(t.nodes[from].cell, code) {
		return t.root
	}
	return from
}

// storePoint files p and its code in a point slot, reusing one a deleted
// leaf gave back.
func (t *Tree) storePoint(p Point, code uint64) int32 {
	if k := len(t.freePts); k > 0 {
		i := t.freePts[k-1]
		t.freePts = t.freePts[:k-1]
		t.pts[i], t.codes[i] = p, code
		return i
	}
	t.pts = append(t.pts, p)
	t.codes = append(t.codes, code)
	return int32(len(t.pts) - 1)
}

// InsertAt is Insert with the walk starting at from, typically the
// terminal of p's search before the insert: the insert then costs O(1)
// local steps. Any other hint — NoNode, a dead or recycled id, a node
// whose cell does not contain p — falls back to the root, so the result
// is always Insert's.
func (t *Tree) InsertAt(from NodeID, p Point) (InsertResult, error) {
	code, err := t.Code(p)
	if err != nil {
		return InsertResult{}, err
	}
	if t.root == NoNode {
		leaf := t.newNode(t.pointCell(code), NoNode, t.storePoint(p, code))
		t.root = leaf
		t.ensureUniversalRoot()
		t.created = [2]NodeID{leaf, t.root}
		return InsertResult{Leaf: leaf, Created: t.created[:], Parent: NoNode}, nil
	}

	// At the deepest node whose cell contains the code, a leaf holds the
	// same point; an internal node has the code branch off below it, into
	// an empty quadrant or inside the compressed edge to a child.
	cur, _ := t.LocateFrom(t.start(from, code), code)
	n := &t.nodes[cur]
	if n.point >= 0 {
		return InsertResult{}, fmt.Errorf("quadtree: duplicate point %v", p)
	}
	b := uint8((code >> (t.ck - n.cell.PLen - t.d)) & (1<<t.d - 1))
	if i := slices.Index(n.childBit, b); i >= 0 {
		return t.splitEdge(cur, i, code, t.storePoint(p, code)), nil
	}
	leaf := t.newNode(t.pointCell(code), cur, t.storePoint(p, code))
	n = &t.nodes[cur] // newNode may have grown the slice
	n.childBit = append(n.childBit, b)
	n.childID = append(n.childID, leaf)
	t.created[0] = leaf
	return InsertResult{Leaf: leaf, Created: t.created[:1], Parent: cur}, nil
}

// splitEdge interposes a new node at the LCA cell of the new code and
// parent's childIdx-th child, on the compressed edge to that child.
func (t *Tree) splitEdge(parent NodeID, childIdx int, code uint64, pidx int32) InsertResult {
	child := t.nodes[parent].childID[childIdx]
	childCell := t.nodes[child].cell
	lca := t.lcaCellOfCells(childCell, t.pointCell(code))
	mid := t.newNode(lca, parent, -1)
	leaf := t.newNode(t.pointCell(code), mid, pidx)

	oldBit := uint8((childCell.Prefix >> (childCell.PLen - lca.PLen - t.d)) & (1<<t.d - 1))
	newBit := uint8((code >> (t.ck - lca.PLen - t.d)) & (1<<t.d - 1))
	m := &t.nodes[mid]
	m.childBit = append(m.childBit, oldBit, newBit)
	m.childID = append(m.childID, child, leaf)
	t.nodes[child].parent = mid
	t.nodes[parent].childID[childIdx] = mid
	t.created = [2]NodeID{leaf, mid}
	return InsertResult{Leaf: leaf, Created: t.created[:], Parent: parent}
}

// lcaCellOfCells returns the smallest dyadic cell containing both cells.
func (t *Tree) lcaCellOfCells(a, b Cell) Cell {
	// Expand both prefixes to full codes (low bits zero) and take the LCA,
	// capped at the shorter of the two prefix lengths.
	ac := a.Prefix << (t.ck - a.PLen)
	bc := b.Prefix << (t.ck - b.PLen)
	lca := t.lcaCell(ac, bc)
	minLen := a.PLen
	if b.PLen < minLen {
		minLen = b.PLen
	}
	if lca.PLen > minLen {
		lca = Cell{Prefix: ac >> (t.ck - minLen), PLen: minLen}
	}
	return lca
}

// DeleteResult describes the O(1) structural change made by Delete.
// Removed aliases the tree's scratch: it is valid until the next Insert
// or Delete on the same tree.
type DeleteResult struct {
	// Removed lists the destroyed nodes: the point's leaf and possibly a
	// compressed-away internal node.
	Removed []NodeID
	// Survivor is the lowest live ancestor covering the removed region,
	// or NoNode if the tree became empty. References anchored at removed
	// nodes should be redirected here.
	Survivor NodeID
}

// Delete removes point p. It returns an error if the point is absent.
func (t *Tree) Delete(p Point) (DeleteResult, error) { return t.DeleteAt(t.root, p) }

// DeleteAt is Delete with the walk starting at from, typically p's own
// leaf: the delete then finds it without a walk. Hints are validated as
// in InsertAt, so the result is always Delete's.
func (t *Tree) DeleteAt(from NodeID, p Point) (DeleteResult, error) {
	code, err := t.Code(p)
	if err != nil {
		return DeleteResult{}, err
	}
	id, _ := t.LocateFrom(t.start(from, code), code)
	if id == NoNode || t.nodes[id].point < 0 || t.codes[t.nodes[id].point] != code {
		return DeleteResult{}, fmt.Errorf("quadtree: point %v not found", p)
	}
	t.removed[0] = id
	res := DeleteResult{Removed: t.removed[:1], Survivor: NoNode}
	pi := t.nodes[id].point
	t.pts[pi] = nil
	t.freePts = append(t.freePts, pi)
	parent := t.nodes[id].parent
	t.killNode(id)
	if parent == NoNode {
		t.root = NoNode
		return res, nil
	}
	pn := &t.nodes[parent]
	for i, cid := range pn.childID {
		if cid == id {
			pn.childBit = append(pn.childBit[:i], pn.childBit[i+1:]...)
			pn.childID = append(pn.childID[:i], pn.childID[i+1:]...)
			break
		}
	}
	if pn.cell.PLen == 0 {
		// The universal root may keep a single child; drop it only when it
		// becomes empty.
		if len(pn.childID) == 0 {
			t.killNode(parent)
			t.root = NoNode
			res.Removed = append(res.Removed, parent)
			return res, nil
		}
		res.Survivor = parent
		return res, nil
	}
	// Compress the parent away if it now has a single child.
	if len(pn.childID) == 1 && pn.point < 0 {
		only := pn.childID[0]
		gp := pn.parent
		t.nodes[only].parent = gp
		if gp == NoNode {
			t.root = only
		} else {
			gpn := &t.nodes[gp]
			for i, cid := range gpn.childID {
				if cid == parent {
					gpn.childID[i] = only
					break
				}
			}
		}
		t.killNode(parent)
		res.Removed = append(res.Removed, parent)
		res.Survivor = gp
		return res, nil
	}
	res.Survivor = parent
	return res, nil
}

// Depth returns the maximum node depth (root = 0). Compressed quadtrees
// over clustered inputs can reach depth Θ(n) — see experiment E6.
func (t *Tree) Depth() int {
	if t.root == NoNode {
		return 0
	}
	var rec func(id NodeID) int
	rec = func(id NodeID) int {
		max := 0
		for _, c := range t.nodes[id].childID {
			if d := rec(c); d > max {
				max = d
			}
		}
		return max + 1
	}
	return rec(t.root) - 1
}

// CheckInvariants verifies the compressed quadtree structure: child cells
// strictly inside parent cells, no single-child internal nodes, prefix
// lengths aligned to d, every point locatable, and every point slot held
// by one live leaf or free. It returns the first violation found.
func (t *Tree) CheckInvariants() error {
	holders := make([]int, len(t.pts))
	for _, pi := range t.freePts {
		if t.pts[pi] != nil {
			return fmt.Errorf("quadtree: free point slot %d still holds %v", pi, t.pts[pi])
		}
		holders[pi]++
	}
	t.VisitNodes(func(id NodeID) bool {
		if pi := t.nodes[id].point; pi >= 0 {
			holders[pi]++
		}
		return true
	})
	if pi := slices.IndexFunc(holders, func(h int) bool { return h != 1 }); pi >= 0 {
		return fmt.Errorf("quadtree: point slot %d has %d holders, want 1", pi, holders[pi])
	}
	if t.root == NoNode {
		return nil
	}
	if t.nodes[t.root].cell.PLen != 0 {
		return fmt.Errorf("quadtree: root cell PLen %d, want universal root", t.nodes[t.root].cell.PLen)
	}
	var rec func(id NodeID) error
	rec = func(id NodeID) error {
		n := &t.nodes[id]
		if n.dead {
			return fmt.Errorf("quadtree: dead node %d reachable", id)
		}
		if n.cell.PLen%t.d != 0 {
			return fmt.Errorf("quadtree: node %d prefix length %d not aligned to d=%d", id, n.cell.PLen, t.d)
		}
		if n.point >= 0 {
			if len(n.childID) != 0 {
				return fmt.Errorf("quadtree: leaf %d has children", id)
			}
			if n.cell.PLen != t.ck {
				return fmt.Errorf("quadtree: leaf %d cell not full precision", id)
			}
			return nil
		}
		if len(n.childID) < 2 && !(id == t.root && n.cell.PLen == 0 && len(n.childID) == 1) {
			return fmt.Errorf("quadtree: internal node %d has %d children (compression violated)", id, len(n.childID))
		}
		seen := map[uint8]bool{}
		for i, cid := range n.childID {
			cb := n.childBit[i]
			if seen[cb] {
				return fmt.Errorf("quadtree: node %d duplicate child bits %d", id, cb)
			}
			seen[cb] = true
			cn := &t.nodes[cid]
			if cn.parent != id {
				return fmt.Errorf("quadtree: node %d child %d has parent %d", id, cid, cn.parent)
			}
			if !t.CellContainsCell(n.cell, cn.cell) || cn.cell.PLen <= n.cell.PLen {
				return fmt.Errorf("quadtree: node %d child %d cell not strictly inside", id, cid)
			}
			// The child's next d bits under this cell must equal childBit.
			gotBits := uint8((cn.cell.Prefix >> (cn.cell.PLen - n.cell.PLen - t.d)) & (1<<t.d - 1))
			if gotBits != cb {
				return fmt.Errorf("quadtree: node %d child %d branch bits %d != %d", id, cid, gotBits, cb)
			}
			if err := rec(cid); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(t.root); err != nil {
		return err
	}
	// Every live point must locate to its own leaf.
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.dead || n.point < 0 {
			continue
		}
		id, _ := t.Locate(t.codes[n.point])
		if id != NodeID(i) {
			return fmt.Errorf("quadtree: point %v locates to node %d, stored at %d", t.pts[n.point], id, i)
		}
	}
	return nil
}

// Render draws the tree sideways (root at left) for small trees, in the
// style of the paper's Figure 3(b)/(d).
func (t *Tree) Render() string {
	var b strings.Builder
	if t.root == NoNode {
		return "(empty)\n"
	}
	var rec func(id NodeID, depth int)
	rec = func(id NodeID, depth int) {
		n := &t.nodes[id]
		fmt.Fprintf(&b, "%s", strings.Repeat("  ", depth))
		if n.point >= 0 {
			fmt.Fprintf(&b, "leaf %v\n", t.pts[n.point])
			return
		}
		fmt.Fprintf(&b, "cell prefix=%b plen=%d\n", n.cell.Prefix, n.cell.PLen)
		for _, c := range n.childID {
			rec(c, depth+1)
		}
	}
	rec(t.root, 0)
	return b.String()
}
