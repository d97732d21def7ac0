package core

import (
	"fmt"

	"github.com/skipwebs/skipwebs/internal/sim"
)

// The set tree is the skeleton both skip-web engines share (Section 2.3):
// a binary tree of item sets whose root holds every item and whose node
// at depth d hands each item to kids[b], b the item's level-d membership
// bit. Web hangs a generic link structure on every node, BlockedWeb a
// sorted list plus a block directory (Section 2.4.1 blocks the one
// skip-web; it is not a second tree). The skeleton owns what does not
// depend on that choice: the node links, the membership hash and the bit
// partition, the entry-leaf list the descent starts from, the one DFS
// order, when a leaf splits and a subtree merges, and the tree half of
// the invariants. An engine supplies the node's own level through a hook
// (levelFunc) and its release on merge; both run only on build, split and
// merge. The descents and update climbs read the links as plain fields.

// maxDepth caps the set tree: a set at this depth stays a leaf however
// large it grows (membership bits are the 64 bits of one mix).
const maxDepth = 60

// mix decorrelates an item code from any structure in the key space (the
// SplitMix64 finaliser, keyed by the tree's seed); bit d of the result
// is the item's level-d membership bit.
func mix(seed, code uint64) uint64 {
	z := code ^ seed ^ 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// treeConfig is the set tree's configuration, defaulted once by
// newTreeConfig for both engines.
type treeConfig struct {
	seed     uint64 // keys the membership hash
	leafMax  int    // a leaf set larger than this splits
	mergeMin int    // an internal set this small re-absorbs its kids
}

// newTreeConfig defaults the split and merge thresholds (4 and 2: merge
// strictly below split, so a set on the boundary does not thrash).
func newTreeConfig(seed uint64, leafMax, mergeMin int) treeConfig {
	if leafMax <= 0 {
		leafMax = 4
	}
	if mergeMin <= 0 {
		mergeMin = 2
	}
	return treeConfig{seed: seed, leafMax: leafMax, mergeMin: mergeMin}
}

// bit is the level-depth membership bit of an item code.
func (c treeConfig) bit(code uint64, depth int) int {
	return int(mix(c.seed, code) >> uint(depth) & 1)
}

// splits reports whether a set of count items at depth is too large to
// be a leaf.
func (c treeConfig) splits(count, depth int) bool {
	return count > c.leafMax && depth < maxDepth
}

// partition appends codes[i], and vals[i] beside it, to the halves ch[b]
// and vh[b] that its level-depth membership bit b names, preserving
// order, and returns the grown halves.
func partition[V any](c treeConfig, depth int, codes []uint64, vals []V, ch [2][]uint64, vh [2][]V) ([2][]uint64, [2][]V) {
	for i, code := range codes {
		b := c.bit(code, depth)
		ch[b] = append(ch[b], code)
		vh[b] = append(vh[b], vals[i])
	}
	return ch, vh
}

// ones counts the codes whose level-depth membership bit is 1: the size
// of the second half.
func (c treeConfig) ones(codes []uint64, depth int) int {
	n := 0
	for _, code := range codes {
		n += c.bit(code, depth)
	}
	return n
}

// halve partitions into fresh halves, each allocated at exactly its size:
// a leaf that keeps its half and appends to it never reaches into its
// sibling's.
func halve[V any](c treeConfig, depth int, codes []uint64, vals []V) ([2][]uint64, [2][]V) {
	ones := c.ones(codes, depth)
	var ch [2][]uint64
	var vh [2][]V
	for b, size := range [2]int{len(codes) - ones, ones} {
		ch[b] = make([]uint64, 0, size)
		vh[b] = make([]V, 0, size)
	}
	return partition(c, depth, codes, vals, ch, vh)
}

// treeNode is the set-tree half of an engine's node N (which embeds it).
type treeNode[N any] struct {
	parent N
	kids   [2]N
	depth  int
	count  int // items in the node's set
	// inLeaves marks a member of the entry-leaf list, at leafIdx.
	inLeaves bool
	// side is this node's index in parent.kids.
	side    uint8
	leafIdx int
}

func (l *treeNode[N]) links() *treeNode[N] { return l }

// treeLinks is the constraint on an engine's node pointer: comparable
// (the zero value is "no node") and embedding its treeNode.
type treeLinks[N any] interface {
	comparable
	links() *treeNode[N]
}

// setTree is the skeleton an engine embeds: its configuration, root and
// entry-leaf list.
type setTree[N treeLinks[N]] struct {
	treeConfig
	root N
	// leaves lists the nonempty leaves, the query entry points; removal
	// swaps the last entry into the hole, and entryLeaf indexes the list,
	// so the list order is part of every query's accounting.
	leaves []N
	// onLeaf, when set, runs as a node joins the leaf list (Web
	// materializes the node's range cache).
	onLeaf func(N)
}

// addLeaf registers n as a query entry point. A node already registered
// is left alone.
func (t *setTree[N]) addLeaf(n N) {
	l := n.links()
	if l.inLeaves {
		return
	}
	l.inLeaves = true
	l.leafIdx = len(t.leaves)
	t.leaves = append(t.leaves, n)
	if t.onLeaf != nil {
		t.onLeaf(n)
	}
}

// removeLeaf unregisters n in O(1), moving the list's last entry into
// its place.
func (t *setTree[N]) removeLeaf(n N) {
	l := n.links()
	if !l.inLeaves {
		return
	}
	l.inLeaves = false
	last := len(t.leaves) - 1
	moved := t.leaves[last]
	t.leaves[l.leafIdx] = moved
	moved.links().leafIdx = l.leafIdx
	t.leaves = t.leaves[:last]
}

// entryLeaf picks the query entry structure for an originating host: its
// "root" in the paper's terminology. A drained tree enters at its root.
func (t *setTree[N]) entryLeaf(origin sim.HostID) N {
	if len(t.leaves) == 0 {
		return t.root
	}
	return t.leaves[int(origin)%len(t.leaves)]
}

// underfull reports whether node l should re-absorb its kids: an internal
// set at or below mergeMin.
func (t *setTree[N]) underfull(l *treeNode[N]) bool {
	var none N
	return l.kids[0] != none && l.count <= t.mergeMin
}

// dfs walks the subtree at n depth first, kids[0] before kids[1]: pre
// sees a node before its kids and post after them; either may be nil.
// pre returning false skips the node's kids and its post. This is the
// one iteration order of the tree: churn migration, merge release and
// the invariant checks all follow it, so a fixed seed yields a fixed
// transcript.
func (t *setTree[N]) dfs(n N, pre func(N) bool, post func(N)) {
	var none N
	if n == none || pre != nil && !pre(n) {
		return
	}
	l := n.links()
	t.dfs(l.kids[0], pre, post)
	t.dfs(l.kids[1], pre, post)
	if post != nil {
		post(n)
	}
}

// eachNode visits every node in DFS order (node, kids[0], kids[1]).
func (t *setTree[N]) eachNode(visit func(N)) {
	t.dfs(t.root, func(n N) bool {
		visit(n)
		return true
	}, nil)
}

// levelFunc builds one node's own level — its structure, placement and
// storage — over a set of items given as codes and vals beside them, and
// embeds links as the node's treeNode. When the set is too large for a
// leaf (splits) it also returns the set's partition, the kids' halves:
// the engine picks how they are allocated and what travels beside each
// code (Web's items; BlockedWeb's kid hyperlinks).
type levelFunc[N, V any] func(links treeNode[N], codes []uint64, vals []V) (N, [2][]uint64, [2][]V, error)

// subtree builds the subtree over a set at links' position: level builds
// the node, a set too large for a leaf grows two kid subtrees from its
// halves, and a nonempty leaf joins the entry-leaf list.
func subtree[N treeLinks[N], V any](t *setTree[N], level levelFunc[N, V], links treeNode[N], codes []uint64, vals []V) (N, error) {
	n, ch, vh, err := level(links, codes, vals)
	if err != nil {
		return n, err
	}
	if t.splits(links.count, links.depth) {
		return n, growKids(t, level, n, ch, vh)
	}
	if links.count > 0 {
		t.addLeaf(n)
	}
	return n, nil
}

// growKids builds n's kids from the halves of its set.
func growKids[N treeLinks[N], V any](t *setTree[N], level levelFunc[N, V], n N, ch [2][]uint64, vh [2][]V) error {
	l := n.links()
	for b := range l.kids {
		kid, err := subtree(t, level, treeNode[N]{parent: n, depth: l.depth + 1, side: uint8(b), count: len(ch[b])}, ch[b], vh[b])
		if err != nil {
			return err
		}
		l.kids[b] = kid
	}
	return nil
}

// split turns leaf n into an internal node over the halves of its set,
// built by level; n leaves the entry-leaf list once both kids stand.
func split[N treeLinks[N], V any](t *setTree[N], level levelFunc[N, V], n N, ch [2][]uint64, vh [2][]V) error {
	if err := growKids(t, level, n, ch, vh); err != nil {
		return err
	}
	t.removeLeaf(n)
	return nil
}

// merge re-absorbs every descendant of n, making it a leaf again. Each
// one leaves the entry-leaf list and is handed to release in post order
// — a node after its kids, kids[0]'s subtree before kids[1]'s — and n
// rejoins the list when its set is nonempty.
func (t *setTree[N]) merge(n N, release func(N)) {
	l := n.links()
	for _, k := range l.kids {
		t.dfs(k, nil, func(k N) {
			t.removeLeaf(k)
			release(k)
		})
	}
	l.kids = [2]N{}
	if l.count > 0 {
		t.addLeaf(n)
	}
}

// check verifies an engine's invariants, returning the first violation
// in DFS order. The tree half is its own: the root sits at depth 0 with
// no parent; every kid links back to its parent, one level down, on its
// own side; kid counts add up to their parent's; and the entry-leaf list
// holds exactly the nonempty leaves, each once, at its leafIdx. node
// checks the engine's half of each node.
func (t *setTree[N]) check(node func(N) error) error {
	var none N
	if r := t.root.links(); r.parent != none || r.depth != 0 {
		return fmt.Errorf("core: root at depth %d has a parent", r.depth)
	}
	entries := 0
	var err error
	t.eachNode(func(n N) {
		if err != nil {
			return
		}
		l := n.links()
		leaf := l.kids[0] == none && l.kids[1] == none
		if !leaf {
			sum := 0
			for b, kid := range l.kids {
				if kid == none {
					err = fmt.Errorf("core: depth %d: kid %d missing beside its sibling", l.depth, b)
					return
				}
				k := kid.links()
				if k.parent != n || int(k.side) != b || k.depth != l.depth+1 {
					err = fmt.Errorf("core: depth %d: kid %d links to side %d at depth %d of another parent", l.depth, b, k.side, k.depth)
					return
				}
				sum += k.count
			}
			if sum != l.count {
				err = fmt.Errorf("core: depth %d: kid counts %d+%d != %d", l.depth, l.kids[0].links().count, l.kids[1].links().count, l.count)
				return
			}
		}
		if entry := leaf && l.count > 0; l.inLeaves != entry {
			err = fmt.Errorf("core: depth %d: leaf-list membership %v for a node with %d items (leaf %v)", l.depth, l.inLeaves, l.count, leaf)
			return
		}
		if l.inLeaves {
			entries++
			if l.leafIdx >= len(t.leaves) || t.leaves[l.leafIdx] != n {
				err = fmt.Errorf("core: depth %d: leaf list does not hold the leaf at its index %d", l.depth, l.leafIdx)
				return
			}
		}
		err = node(n)
	})
	if err == nil && entries != len(t.leaves) {
		err = fmt.Errorf("core: leaf list holds %d entries for %d nonempty leaves", len(t.leaves), entries)
	}
	return err
}
