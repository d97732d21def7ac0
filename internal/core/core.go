// Package core implements the skip-web framework of Arge, Eppstein, and
// Goodrich (PODC 2005): randomized distributed data structures built over
// any range-determined link structure with a set-halving lemma.
//
// # The level hierarchy (Section 2.3)
//
// Given a ground set S, the framework repeatedly halves it at random:
// S_b0 and S_b1 partition S_b according to one fresh random bit per
// element. Each subset gets its own link structure D(S_b). The subsets
// form a binary tree with D(S) at the bottom (level 0) and O(1)-size sets
// at the top; an element belongs to one structure per level, so total
// storage is O(n log n) ranges spread over the hosts.
//
// # Hyperlinks and routing (Sections 2.3, 2.5)
//
// Every range of D(S_b0) stores hyperlinks to the ranges of D(S_b) it
// conflicts with. A query starts at a top-level structure (the searching
// host's root), finds the maximal range containing the query there, and
// follows hyperlinks level by level down to D(S), paying an expected O(1)
// messages per level by the set-halving lemma — O(log n) expected
// messages overall (Theorem 2).
//
// For nested range families (quadtree cells, trie loci) the conflict
// hyperlink is a single exact pointer: every cell of D(T) is also a cell
// of D(S) when T ⊆ S, so the hyperlink lands on the identical range in
// the parent structure and a short local walk (expected O(1) steps, again
// by the halving lemma) refines it to the parent terminal. For flat range
// families (sorted-list intervals, trapezoids) the hyperlink is the
// conflict list itself and the parent terminal is found by membership
// tests over its expected-O(1) entries. Both realizations follow the
// paper's routing; they differ only in which part of C(Q, S_b) is
// materialized as pointers.
//
// # Updates (Section 4)
//
// An insertion first routes to the level-0 terminal like a query, then
// climbs the element's own random bit path: at each level it derives the
// child terminal from the parent terminal (an expected O(1)-step walk up
// the parent structure to the first range a child range is anchored at),
// applies the O(1) structural change starting at that terminal, and
// rewires the O(1) affected hyperlinks — O(1) expected messages per
// level, O(log n) total.
// Deletions run the same climb first and then unwind top-down so that
// hyperlink repair always targets live ranges.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// Fabric is the accounting substrate the engines run on — the slice of
// the network the structures actually touch: open an accounting Op for a
// query or update, charge storage to a host, and read the live host set
// for placement and failover. *sim.Network is the canonical
// implementation; the engines speak only to this interface so a
// transport layer can interpose on the same contract (the wire transport
// taps message delivery via sim.Network.SetDeliver and hands the engines
// the identical Fabric). All message charging flows through the Ops
// returned by NewOp, so a Fabric implementation observes every hop the
// cost model counts.
type Fabric interface {
	// NewOp opens the accounting context for one logical operation
	// starting at host start (sim.None for "not yet placed").
	NewOp(start sim.HostID) *sim.Op
	// AddStorage records delta storage units at host h.
	AddStorage(h sim.HostID, delta int)
	// Alive reports whether host h has joined and not departed.
	Alive(h sim.HostID) bool
	// LiveHosts returns the number of currently live hosts.
	LiveHosts() int
	// LiveAt returns the i-th live host in ascending id order.
	LiveAt(i int) sim.HostID
	// NextLive returns the cyclic successor of h in the live set.
	NextLive(h sim.HostID) sim.HostID
	// Crashed reports whether host h departed uncleanly (down, but on a
	// durable fabric restartable with its shard intact).
	Crashed(h sim.HostID) bool
	// Durable reports whether hosts persist a write-ahead log: a crashed
	// host is expected to Restart and reconcile rather than be rebuilt,
	// so write-throughs to it are queued as divergence instead of sent.
	Durable() bool
	// CostModel returns the installed per-link latency model, or nil for
	// the default zero-latency accounting. Engines consult it only for
	// hops they count outside an Op (BucketWeb's bucket visits); charged
	// hops pick it up inside Op itself.
	CostModel() sim.CostModel
}

// *sim.Network is the canonical Fabric.
var _ Fabric = (*sim.Network)(nil)

// RangeID identifies a range (a node or link of a link structure) within
// one level. NoRange means "none".
type RangeID int32

// NoRange is the sentinel RangeID.
const NoRange RangeID = -1

// ErrStatic is returned by Ops implementations that do not support
// dynamic updates (the trapezoidal-map domain, per Section 4's
// amortization caveat).
var ErrStatic = errors.New("core: this link structure is static (build + query only)")

// DataLossError is returned by a Repair pass that found units with no
// surviving live replica: the crash tolerance (Replicas-1 simultaneous
// failures) was exceeded and Units storage units are unrecoverable.
// Queries that need a lost unit keep failing fast with a HostDownError.
type DataLossError struct {
	// Units counts the storage units with no live replica — a snapshot
	// of everything currently lost, so a later Repair re-reports units
	// lost in earlier crashes (they are still gone) plus any new ones.
	Units int
	// Hosts lists, ascending, the dead hosts whose replicas the lost
	// units lived on — the crash set that exceeded the tolerance.
	Hosts []sim.HostID
	// Structures maps structure names to their lost-unit counts when the
	// loss spans several structures on one cluster (the public Crash and
	// Repair aggregations fill it; engine-level errors leave it nil).
	Structures map[string]int
}

// Error describes the loss: how many units, on which dead hosts, and —
// when aggregated across a cluster — how the loss splits per structure.
func (e *DataLossError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: %d storage units lost (no surviving replica)", e.Units)
	if len(e.Hosts) > 0 {
		fmt.Fprintf(&b, "; dead hosts %v", e.Hosts)
	}
	if len(e.Structures) > 0 {
		names := make([]string, 0, len(e.Structures))
		for name := range e.Structures {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("; per structure:")
		for i, name := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, " %s=%d", name, e.Structures[name])
		}
	}
	return b.String()
}

// Change describes the O(1) structural delta a level structure undergoes
// during an update. The engine consumes a Change synchronously: its
// slices may be scratch buffers owned by the Ops implementation, valid
// only until the next Insert or Delete call on the same instance.
type Change struct {
	// Added lists ranges created by the update.
	Added []RangeID
	// Removed lists ranges destroyed by the update.
	Removed []RangeID
	// RemapTo is parallel to Removed: RemapTo[i] is the surviving range
	// that inherits hyperlinks anchored at Removed[i], or NoRange when
	// nothing survives (legal only if no child is anchored there).
	RemapTo []RangeID
	// Touched lists surviving ranges whose extent changed, requiring
	// hyperlink recomputation.
	Touched []RangeID
}

// Ops is the contract a range-determined link structure implements to
// participate in a skip-web. L is the structure type, T the item type,
// and Q the query-point type. Implementations must be deterministic.
type Ops[L, T, Q any] interface {
	// Build constructs D(items).
	Build(items []T) (L, error)
	// VisitRanges enumerates the live ranges of l, calling visit for each
	// until visit returns false. Implementations must not allocate per
	// call: the query descent runs on this enumeration. Use RangesOf to
	// materialize a slice in cold paths.
	VisitRanges(l L, visit func(RangeID) bool)
	// Contains reports whether range r of l contains query point q.
	Contains(l L, r RangeID, q Q) bool
	// Depth is the specificity of range r (deeper = finer). Flat range
	// families return 0.
	Depth(l L, r RangeID) int
	// Step performs one local descent step from r toward the terminal
	// range containing q, returning NoRange when r is terminal.
	Step(l L, r RangeID, q Q) RangeID
	// Anchors computes the hyperlinks for range r of child against
	// parent, where child's item set is a subset of parent's: either the
	// single identical range (nested families) or the conflict list
	// (flat families). It is called at build and update time. The engine
	// copies the result into its own storage, so implementations may
	// return a reusable scratch buffer, valid until the next Anchors call.
	Anchors(child, parent L, r RangeID) ([]RangeID, error)
	// Payload reports the storage units range r of l occupies at its
	// host beyond the engine-owned hyperlink pointers — the data a
	// host-churn migration must physically move. The engine charges
	// Payload(l, r) units when placing r and moves them, one message per
	// unit, when Rehome or Rebalance reassigns r to a new host.
	// Implementations must be pure in l's mutable state: Payload is also
	// consulted while releasing a range that the structural delete has
	// already unspliced.
	Payload(l L, r RangeID) int
	// Up is one step of the update climb's walk from a terminal toward
	// the root of l: a tree's parent node, a list's predecessor range.
	// It returns NoRange at the top (the root, the head sentinel) and
	// always for a static family. Every range it reaches must contain
	// (for trees) or precede (for lists) the range it started from, so
	// the first one a child range is anchored at is the child's terminal.
	Up(l L, r RangeID) RangeID
	// Locate performs a full local search for q's terminal range in l.
	Locate(l L, q Q) RangeID
	// QueryOf maps an item to its query point.
	QueryOf(x T) Q
	// CodeOf maps an item to a code used to derive its membership bits;
	// it should be injective (hash collisions merely degrade leaf sizes).
	CodeOf(x T) uint64
	// Insert adds x (whose query point is q) to l; hint is the terminal
	// range containing q before the insert, or NoRange. Implementations
	// start their local search there, and must treat any hint that is
	// not a live range on q's search path — NoRange, a dead, recycled or
	// unrelated id — as no hint: the result never depends on it.
	Insert(l L, x T, q Q, hint RangeID) (Change, error)
	// Delete removes x from l; at is the terminal range containing q,
	// recorded by the climb before any level changed, or NoRange. It is
	// a hint under Insert's contract.
	Delete(l L, x T, q Q, at RangeID) (Change, error)
}

// BulkOps is the optional bulk-load extension of Ops. A structure whose
// Build result is independent of item order can expose a canonical sort
// plus a sorted-input build: NewWeb then sorts the item set once at the
// root, every bit partition preserves that order, and each level builds
// through BuildSorted in O(level size) instead of re-sorting — O(n) per
// level for the whole hierarchy. Because Build is order-independent, the
// produced structures (and therefore range enumeration order, host
// placement, and message accounting) are identical to the incremental
// path on any seed.
type BulkOps[L, T any] interface {
	// SortForBuild sorts items in place into the canonical build order,
	// reporting false when the items cannot be ordered (e.g. invalid
	// coordinates); the engine then falls back to the plain Build path.
	SortForBuild(items []T) bool
	// BuildSorted constructs D(items) from canonically ordered items.
	BuildSorted(items []T) (L, error)
}

// RangesOf materializes the live ranges of l into a fresh slice. It is a
// convenience for cold paths (invariant checks, statistics, tests); hot
// paths iterate with Ops.VisitRanges directly.
func RangesOf[L, T, Q any](ops Ops[L, T, Q], l L) []RangeID {
	var out []RangeID
	ops.VisitRanges(l, func(r RangeID) bool {
		out = append(out, r)
		return true
	})
	return out
}

// Config tunes a Web.
type Config struct {
	// Seed drives membership bits and host assignment.
	Seed uint64
	// LeafMax is the size above which a level-tree leaf set is split.
	LeafMax int
	// MergeMin is the size at or below which an internal set node
	// re-absorbs its children.
	MergeMin int
	// Replicas is the replication factor k: every range is mirrored on k
	// distinct live hosts, queries fail over to the next live replica,
	// and updates write through to all of them. 0 or 1 means unreplicated
	// — the seed-compatible default whose placement, randomness, and
	// message accounting are bit-identical to pre-replication builds.
	Replicas int
}

// setNode is one node of the binary subset tree: a link structure over
// S_b together with its hyperlinks into the parent structure.
type setNode[L, T any] struct {
	// treeNode's side is what backrefs store in place of a node pointer
	// (packBackref).
	treeNode[*setNode[L, T]]
	// slab is the RangeID-indexed table of placement, hyperlinks and
	// backrefs (slab.go).
	slab rangeSlab
	s    L

	// items is the node's item set and codes its parallel code slice
	// (codes[i] == ops.CodeOf(items[i])), kept on set-tree leaves only: a
	// split reads them, a merge regathers them from the released leaves,
	// and nothing ever reads an internal node's item set. Codes are
	// computed once per item and threaded through partition, insert and
	// delete, so membership-bit derivation never recomputes CodeOf (for
	// tree-backed items a CodeOf is a full Morton/hash encode).
	items []T
	codes []uint64

	// rangeCache is the materialized range enumeration, maintained only
	// while the node is a query-entry leaf (inLeaves). Entry leaves are
	// O(1) size and every query descent starts by scanning one, so the
	// scan iterates this plain slice instead of the VisitRanges iterator:
	// no closure, no allocation. Rebuilt by the (single-writer) update
	// path whenever the leaf's structure changes.
	rangeCache []RangeID
}

// backref resolves a packed backref of n to the child node and range.
func (n *setNode[L, T]) backref(b RangeID) (*setNode[L, T], RangeID) {
	return n.kids[b&1], b >> 1
}

// Web is a distributed skip-web over items of type T with queries of type
// Q, built on link structures of type L.
type Web[L, T, Q any] struct {
	setTree[*setNode[L, T]]
	ops  Ops[L, T, Q]
	bulk BulkOps[L, T] // non-nil when ops supports sorted bulk loads
	net  Fabric
	rng  *xrand.Rand
	n    int

	scratch updateScratch[*setNode[L, T]]

	// rep is the replica-layer state (replicas.go): a range's name in the
	// miss log is its node and RangeID.
	rep replication[nodeRange[*setNode[L, T]]]
}

// NewWeb builds a skip-web over items. The network supplies hosts for
// range placement; every range and hyperlink is charged as storage to
// its host — construction charges storage only, never messages. When
// ops implements BulkOps, construction takes the O(n)-per-level bulk
// path: one canonical sort at the root, order-preserving partitions,
// and BuildSorted per level, with placement and accounting identical to
// the plain path.
func NewWeb[L, T, Q any](ops Ops[L, T, Q], net Fabric, items []T, cfg Config) (*Web[L, T, Q], error) {
	w := &Web[L, T, Q]{
		setTree: setTree[*setNode[L, T]]{treeConfig: newTreeConfig(cfg.Seed, cfg.LeafMax, cfg.MergeMin)},
		ops:     ops,
		net:     net,
		rng:     xrand.New(cfg.Seed ^ 0x5eb5eb),
	}
	w.onLeaf = w.refreshRangeCache
	w.rep = replication[nodeRange[*setNode[L, T]]]{net: net, k: max(cfg.Replicas, 1), draw: w.pickHost, rng: w.rng}
	all := append([]T(nil), items...)
	sorted := false
	if b, ok := any(ops).(BulkOps[L, T]); ok {
		if b.SortForBuild(all) {
			w.bulk = b
			sorted = true
		}
	}
	// Codes are computed lazily by the root's level, after the level-0
	// Build has validated every item: CodeOf may panic on items Build
	// would reject with an error (invalid quadtree points).
	root, err := subtree(&w.setTree, w.levelOf(sorted), treeNode[*setNode[L, T]]{count: len(all)}, nil, all)
	if err != nil {
		return nil, err
	}
	w.root = root
	w.n = len(items)
	return w, nil
}

// levelOf returns the levelFunc that builds one set node: D(items) —
// through BuildSorted when sorted (items in canonical build order, bulk
// path; partitions preserve the order, so sortedness propagates) — its
// ranges placed and, below the root, hyperlinked into the parent. codes
// must parallel items (codes[i] == CodeOf(items[i])); the root passes nil
// and the codes are filled in once Build has accepted the full item set
// (CodeOf may panic on items Build rejects). Only a node that stays a
// leaf keeps its items; a node that splits hands them to exactly sized
// halves (halve).
func (w *Web[L, T, Q]) levelOf(sorted bool) levelFunc[*setNode[L, T], T] {
	return func(links treeNode[*setNode[L, T]], codes []uint64, items []T) (n *setNode[L, T], ch [2][]uint64, ih [2][]T, err error) {
		var s L
		if sorted && w.bulk != nil {
			s, err = w.bulk.BuildSorted(items)
		} else {
			s, err = w.ops.Build(items)
		}
		if err != nil {
			return nil, ch, ih, err
		}
		if codes == nil {
			codes = make([]uint64, len(items))
			for i, x := range items {
				codes[i] = w.ops.CodeOf(x)
			}
		}
		n = &setNode[L, T]{treeNode: links, s: s}
		// The slot table is sized once, to the largest RangeID Build handed out.
		size := 0
		w.ops.VisitRanges(s, func(r RangeID) bool {
			size = max(size, int(r)+1)
			return true
		})
		n.slab.init(size, w.rep.k > 1)
		w.ops.VisitRanges(s, func(r RangeID) bool {
			w.placeRange(n, r)
			return true
		})
		if n.parent != nil {
			if err := w.rewireAll(n); err != nil {
				return nil, ch, ih, err
			}
		}
		if w.splits(n.count, n.depth) {
			ch, ih = halve(w.treeConfig, n.depth, codes, items)
		} else {
			n.items, n.codes = items, codes
		}
		return n, ch, ih, nil
	}
}

// refreshRangeCache rematerializes n's cached range enumeration in
// VisitRanges (slot) order, preserving the exact host-visit order of the
// entry scan. It runs as n joins the leaf list (setTree.onLeaf) and after
// every structural change while n is there.
func (w *Web[L, T, Q]) refreshRangeCache(n *setNode[L, T]) {
	buf := n.rangeCache[:0]
	w.ops.VisitRanges(n.s, func(r RangeID) bool {
		buf = append(buf, r)
		return true
	})
	n.rangeCache = buf
}

// pickHost draws a uniformly random live host. With no churn the live
// set is 0..H-1, so the draw consumes the same randomness as the
// pre-churn rng.Intn(Hosts()) and placement stays seed-compatible.
func (w *Web[L, T, Q]) pickHost() sim.HostID {
	return w.net.LiveAt(w.rng.Intn(w.net.LiveHosts()))
}

// sendReplicas charges one write-through message to every replica of
// range r of n — the cost of an update touching that range.
func (w *Web[L, T, Q]) sendReplicas(op *sim.Op, n *setNode[L, T], r RangeID) {
	w.rep.writeThrough(op, n.slab.replicas(r), nodeRange[*setNode[L, T]]{n, r}, nil)
}

// notifyChildren sends one address-update message to every replica of
// every child range anchored at range r of n (children dereference r by
// host when routing).
func (w *Web[L, T, Q]) notifyChildren(op *sim.Op, n *setNode[L, T], r RangeID) {
	for _, b := range n.slab.backsOf(r) {
		kid, cr := n.backref(b)
		w.sendReplicas(op, kid, cr)
	}
}

// visitRange moves op to the live replica serving range r of n, failing
// fast when none survives.
func (w *Web[L, T, Q]) visitRange(op *sim.Op, n *setNode[L, T], r RangeID) error {
	h, err := n.slab.replicas(r).firstLive(w.net)
	if err != nil {
		return err
	}
	op.Visit(h)
	return nil
}

// placeRange assigns range r of node n to a primary live host — the
// seed-compatible draw — plus Replicas-1 distinct mirror hosts, and
// charges its payload as storage at every replica.
func (w *Web[L, T, Q]) placeRange(n *setNode[L, T], r RangeID) {
	n.slab.grow(r)
	h := w.pickHost()
	n.slab.slots[r].host = h
	if w.rep.k > 1 {
		n.slab.mirrors[r] = append(n.slab.mirrors[r][:0], drawMirrors(w.net, w.rep.k, w.rep.draw, h)...)
	}
	n.slab.replicas(r).addStorage(w.net, w.ops.Payload(n.s, r))
}

// dropRange releases range r of node n: storage at every replica,
// anchors, backref entries, any recorded divergence — the slot is left
// empty, so a recycled RangeID inherits nothing.
func (w *Web[L, T, Q]) dropRange(n *setNode[L, T], r RangeID) {
	if uint(r) >= uint(len(n.slab.slots)) {
		return
	}
	sl := &n.slab.slots[r]
	anchors := n.slab.members(&sl.anchors)
	if sl.host != sim.None {
		rs := n.slab.replicas(r)
		rs.addStorage(w.net, -w.ops.Payload(n.s, r)-len(anchors))
		w.rep.forget(rs, nodeRange[*setNode[L, T]]{n, r})
	}
	if n.parent != nil {
		for _, a := range anchors {
			w.removeBackref(n.parent, a, n, r)
		}
	}
	n.slab.release(r)
}

// setAnchors installs hyperlinks for range r of node n (whose parent must
// exist), maintaining backrefs and storage accounting — the pointer
// storage delta lands on every replica of the range. The anchors are
// copied into the slot, so callers may pass scratch-backed Ops.Anchors
// results and the steady state allocates nothing here.
func (w *Web[L, T, Q]) setAnchors(n *setNode[L, T], r RangeID, anchors []RangeID) {
	set := &n.slab.slots[r].anchors
	old := n.slab.members(set)
	for _, a := range old {
		w.removeBackref(n.parent, a, n, r)
	}
	n.slab.replicas(r).addStorage(w.net, len(anchors)-len(old))
	n.slab.assign(set, anchors)
	p, ref := &n.parent.slab, packBackref(n.side, r)
	for _, a := range anchors {
		p.add(&p.slots[a].backs, ref)
	}
}

func (w *Web[L, T, Q]) removeBackref(parent *setNode[L, T], a RangeID, child *setNode[L, T], r RangeID) {
	parent.slab.remove(&parent.slab.slots[a].backs, packBackref(child.side, r))
}

// rewireAll recomputes hyperlinks for every range of n against its parent.
func (w *Web[L, T, Q]) rewireAll(n *setNode[L, T]) error {
	child := n.s
	parent := n.parent.s
	var err error
	w.ops.VisitRanges(child, func(r RangeID) bool {
		anchors, aerr := w.ops.Anchors(child, parent, r)
		if aerr != nil {
			err = fmt.Errorf("core: anchors for range %d at depth %d: %w", r, n.depth, aerr)
			return false
		}
		w.setAnchors(n, r, anchors)
		return true
	})
	return err
}

// Len returns the number of items stored.
func (w *Web[L, T, Q]) Len() int { return w.n }

// Cost is the per-operation cost pair the tuple-returning engines
// (BlockedWeb, BucketWeb) report from their *Cost query variants: the
// hop count the paper bounds plus the modeled critical-path latency
// under the network's CostModel (zero under the default nil model).
type Cost struct {
	Hops    int
	Latency int64
}

// QueryResult carries the answer to a point query: the terminal range of
// the ground structure D(S) and the message cost.
type QueryResult struct {
	Range RangeID
	Hops  int
	// Latency is the modeled critical-path latency of the descent under
	// the network's CostModel, in model units — zero under the default
	// zero-latency model.
	Latency int64
}

// Query routes a point query from the originating host to the terminal
// range of D(S) containing q, counting messages (Section 2.5).
//
// Query is safe for concurrent use by multiple goroutines as long as no
// update (Insert, Delete) runs concurrently: the descent reads only
// immutable routing state (set-tree links, hyperlinks, host placement,
// and the underlying link structures, whose Contains/Step/Locate paths
// are all pure) plus the network's atomic counters. The public batch
// engine relies on this, holding a reader lock for query batches and a
// writer lock for updates.
//
// An empty web whose ground structure holds no range at all — a
// quadtree without points has no root cell — has nothing to route
// through: Query charges no message and reports Range NoRange.
func (w *Web[L, T, Q]) Query(q Q, origin sim.HostID) (QueryResult, error) {
	op := w.net.NewOp(origin)
	defer op.Free()
	r, err := w.queryOp(q, op)
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Range: r, Hops: op.Hops(), Latency: op.Latency()}, nil
}

// queryOp performs the descent under an existing accounting op and
// returns the level-0 terminal, or NoRange, charging nothing, when the
// web is empty and no range of its ground structure contains q.
func (w *Web[L, T, Q]) queryOp(q Q, op *sim.Op) (RangeID, error) {
	if w.n == 0 && w.ops.Locate(w.root.s, q) == NoRange {
		return NoRange, nil
	}
	node := w.entryLeaf(op.Current())
	cur, err := w.scanTerminal(node, q, op)
	if err != nil {
		return NoRange, err
	}
	for node.parent != nil {
		cur, err = w.descendOne(node, cur, q, op)
		if err != nil {
			return NoRange, err
		}
		node = node.parent
	}
	return cur, nil
}

// scanTerminal finds the terminal range in an entry structure by scanning
// its ranges (entry structures have O(1) expected size). The scan runs on
// the allocation-free VisitRanges iterator: this is the entry step of
// every query descent.
func (w *Web[L, T, Q]) scanTerminal(n *setNode[L, T], q Q, op *sim.Op) (RangeID, error) {
	s := n.s
	best := NoRange
	bestDepth := -1
	if n.inLeaves {
		// Entry leaves keep a materialized cache: the common case, and
		// the one the allocation-free descent guarantee covers.
		for _, r := range n.rangeCache {
			if err := w.visitRange(op, n, r); err != nil {
				return NoRange, err
			}
			if w.ops.Contains(s, r, q) {
				if d := w.ops.Depth(s, r); d > bestDepth {
					best, bestDepth = r, d
				}
			}
		}
	} else {
		// Entry at a non-leaf happens only for a drained web (no
		// nonempty leaves); fall back to the iterator. This lives in its
		// own method so scanTerminal itself contains no closure — a
		// closure over best/bestDepth would force them onto the heap
		// even on the cached path.
		var err error
		best, err = w.scanTerminalSlow(n, s, q, op)
		if err != nil {
			return NoRange, err
		}
	}
	if best == NoRange {
		return NoRange, fmt.Errorf("core: no range of entry structure (depth %d, %d items) contains query", n.depth, n.count)
	}
	return best, nil
}

// scanTerminalSlow is scanTerminal's iterator fallback for entry at a
// node without a range cache.
func (w *Web[L, T, Q]) scanTerminalSlow(n *setNode[L, T], s L, q Q, op *sim.Op) (RangeID, error) {
	best := NoRange
	bestDepth := -1
	var err error
	w.ops.VisitRanges(s, func(r RangeID) bool {
		if err = w.visitRange(op, n, r); err != nil {
			return false
		}
		if w.ops.Contains(s, r, q) {
			if d := w.ops.Depth(s, r); d > bestDepth {
				best, bestDepth = r, d
			}
		}
		return true
	})
	if err != nil {
		return NoRange, err
	}
	return best, nil
}

// descendOne follows the hyperlinks of range cur of node n into n.parent
// and refines to the parent terminal containing q.
func (w *Web[L, T, Q]) descendOne(n *setNode[L, T], cur RangeID, q Q, op *sim.Op) (RangeID, error) {
	parent := n.parent
	ps := parent.s
	cands := n.slab.anchorsOf(cur)
	if len(cands) == 0 {
		return NoRange, fmt.Errorf("core: range %d at depth %d has no hyperlinks", cur, n.depth)
	}
	start := NoRange
	for _, c := range cands {
		if err := w.visitRange(op, parent, c); err != nil {
			return NoRange, err
		}
		if w.ops.Contains(ps, c, q) {
			start = c
			break
		}
	}
	if start == NoRange {
		// Flat families may have the terminal adjacent to the conflict
		// list (the list covers the child range, which contains q, but
		// boundary conventions can leave q in the last candidate's
		// neighbor); the Step walk recovers it.
		start = cands[len(cands)-1]
	}
	for {
		next := w.ops.Step(ps, start, q)
		if next == NoRange {
			break
		}
		if err := w.visitRange(op, parent, next); err != nil {
			return NoRange, err
		}
		start = next
	}
	if !w.ops.Contains(ps, start, q) {
		return NoRange, fmt.Errorf("core: descent at depth %d terminated at non-containing range", parent.depth)
	}
	return start, nil
}

// Insert adds item x, routing from the originating host. It returns the
// message cost (Section 4). An empty web whose ground structure holds no
// range at all — a quadtree without points has no root cell — has
// nothing to route through (see Query): its first insert charges only
// the messages placing the ranges it creates and their replicas. Every
// other insert, into an empty list or trie web too, routes from origin.
func (w *Web[L, T, Q]) Insert(x T, origin sim.HostID) (int, error) {
	q := w.ops.QueryOf(x)
	code := w.ops.CodeOf(x)
	op := w.net.NewOp(origin)
	defer op.Free()
	t0, err := w.queryOp(q, op)
	if err != nil {
		return 0, err
	}
	// Level 0: apply the structural change to D(S).
	if err := w.applyInsert(w.root, x, q, code, t0, op); err != nil {
		return op.Hops(), err
	}
	// Climb x's bit path, deriving each child terminal from the parent's.
	node := w.root
	var tp RangeID
	if t0 == NoRange {
		tp = w.ops.Locate(node.s, q)
	} else {
		tp = w.reterminal(node, t0, q)
	}
	for node.kids[0] != nil {
		side := w.bit(code, node.depth)
		child := node.kids[side]
		ct := NoRange
		if child.count > 0 {
			if ct, err = w.climbToChild(op, node, side, tp); err != nil {
				return op.Hops(), err
			}
		}
		if err := w.applyInsert(child, x, q, code, ct, op); err != nil {
			return op.Hops(), err
		}
		node = child
		if ct == NoRange {
			tp = w.ops.Locate(node.s, q)
		} else {
			tp = w.reterminal(node, ct, q)
		}
	}
	// The final leaf may have just become nonempty, and may have outgrown
	// a leaf.
	w.addLeaf(node)
	if w.splits(node.count, node.depth) {
		if err := w.splitLeaf(node, op); err != nil {
			return op.Hops(), err
		}
	}
	w.n++
	return op.Hops(), nil
}

// childTerminal derives the terminal range of n.kids[side] containing a
// query from tp, the terminal of n containing it: the first range on
// tp's Up chain that a range of the kid is anchored at names, through its
// backref, the kid's terminal. Every dynamic family anchors a kid range
// at the parent range with the identical locus, cell or key, and at most
// one per kid, so the walk is the set-halving lemma's expected O(1)
// steps. steps counts the Up moves taken.
func (w *Web[L, T, Q]) childTerminal(n *setNode[L, T], side int, tp RangeID) (ct RangeID, steps int, err error) {
	for cur := tp; cur != NoRange; cur = w.ops.Up(n.s, cur) {
		for _, b := range n.slab.backsOf(cur) {
			if int(b&1) == side {
				return b >> 1, steps, nil
			}
		}
		steps++
	}
	return NoRange, steps, fmt.Errorf("core: no range above the terminal at depth %d is anchored from its kid", n.depth)
}

// climbToChild is childTerminal with its walk charged to the host of
// the kid's terminal: each step is a hop between structure nodes, which
// in the worst placement crosses hosts every time. The walk happens
// wherever the range is actually served, so a failed-over range charges
// its live replica.
func (w *Web[L, T, Q]) climbToChild(op *sim.Op, n *setNode[L, T], side int, tp RangeID) (RangeID, error) {
	kid := n.kids[side]
	ct, steps, err := w.childTerminal(n, side, tp)
	if err != nil {
		return NoRange, fmt.Errorf("core: child terminal at depth %d: %w", kid.depth, err)
	}
	// Updates run post-repair (every replica live); a fully dead range
	// can only be reached on an unrepaired k=1 web, whose routed query
	// already failed before any steps were charged.
	if h, err := kid.slab.replicas(ct).firstLive(w.net); err == nil {
		sendN(op, h, steps)
	}
	return ct, nil
}

// reterminal refines a pre-update terminal to the post-update terminal by
// local steps (free: the walk happens on the host that just applied the
// structural change or its immediate neighbors, already visited).
func (w *Web[L, T, Q]) reterminal(n *setNode[L, T], r RangeID, q Q) RangeID {
	s := n.s
	for {
		next := w.ops.Step(s, r, q)
		if next == NoRange {
			return r
		}
		r = next
	}
}

// anchorsEqual reports whether two hyperlink sets are identical as sets.
// Hyperlink sets are expected O(1) (the set-halving lemma), so the
// quadratic scan beats building a set — and allocates nothing, which
// matters because this runs once per touched range on every update.
func anchorsEqual(a, b []RangeID) bool {
	if len(a) != len(b) {
		return false
	}
	for _, r := range a {
		found := false
		for _, s := range b {
			if s == r {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// applyInsert performs the structural insert on node n and fixes
// hyperlinks for the O(1) affected ranges. The Added+Touched work list
// lives in w.scratch.dirty, reused across operations.
func (w *Web[L, T, Q]) applyInsert(n *setNode[L, T], x T, q Q, code uint64, hint RangeID, op *sim.Op) error {
	s := n.s
	ch, err := w.ops.Insert(s, x, q, hint)
	if err != nil {
		return fmt.Errorf("core: insert at depth %d: %w", n.depth, err)
	}
	n.count++
	if n.kids[0] == nil {
		n.items = append(n.items, x)
		n.codes = append(n.codes, code)
	}
	for _, r := range ch.Added {
		w.placeRange(n, r)
		w.sendReplicas(op, n, r)
	}
	dirty := append(append(w.scratch.dirty[:0], ch.Added...), ch.Touched...)
	w.scratch.dirty = dirty[:0]
	if n.parent != nil {
		ps := n.parent.s
		for _, r := range dirty {
			anchors, err := w.ops.Anchors(s, ps, r)
			if err != nil {
				return fmt.Errorf("core: re-anchor range %d at depth %d: %w", r, n.depth, err)
			}
			if anchorsEqual(anchors, n.slab.anchorsOf(r)) {
				continue
			}
			w.setAnchors(n, r, anchors)
			w.sendReplicas(op, n, r)
		}
	}
	if n.inLeaves {
		w.refreshRangeCache(n)
	}
	// New parent-side ranges may now be the true hyperlink targets of
	// child ranges whose conflicts changed; recompute for children
	// anchored at touched ranges.
	return w.repairChildren(n, dirty, op)
}

// repairChildren recomputes hyperlinks of child ranges currently anchored
// at the given ranges of n (whose extents may have changed). The work
// list must be snapshotted before recomputation because setAnchors
// mutates the backrefs being iterated; the snapshot lives in
// w.scratch.todo, reused across operations.
func (w *Web[L, T, Q]) repairChildren(n *setNode[L, T], ranges []RangeID, op *sim.Op) error {
	s := n.s
	todos := w.scratch.todo[:0]
	for _, pr := range ranges {
		for _, b := range n.slab.backsOf(pr) {
			kid, cr := n.backref(b)
			todos = append(todos, nodeRange[*setNode[L, T]]{kid, cr})
		}
	}
	w.scratch.todo = todos[:0]
	for _, td := range todos {
		kid := td.node
		anchors, err := w.ops.Anchors(kid.s, s, td.r)
		if err != nil {
			return fmt.Errorf("core: repair anchors of child range %d: %w", td.r, err)
		}
		if anchorsEqual(anchors, kid.slab.anchorsOf(td.r)) {
			continue
		}
		w.setAnchors(kid, td.r, anchors)
		w.sendReplicas(op, kid, td.r)
	}
	return nil
}

// Delete removes item x, routing from the originating host.
func (w *Web[L, T, Q]) Delete(x T, origin sim.HostID) (int, error) {
	q := w.ops.QueryOf(x)
	code := w.ops.CodeOf(x)
	op := w.net.NewOp(origin)
	defer op.Free()
	t0, err := w.queryOp(q, op)
	if err != nil {
		return 0, err
	}
	// Collect the terminal at each level along x's bit path (x present).
	// The stack lives in w.scratch.frames, reused across operations.
	frames := append(w.scratch.frames[:0], nodeRange[*setNode[L, T]]{w.root, t0})
	defer func() { w.scratch.frames = frames[:0] }()
	node, tp := w.root, t0
	for node.kids[0] != nil {
		side := w.bit(code, node.depth)
		ct, err := w.climbToChild(op, node, side, tp)
		if err != nil {
			return op.Hops(), err
		}
		node, tp = node.kids[side], ct
		frames = append(frames, nodeRange[*setNode[L, T]]{node, ct})
	}
	// Unwind top-down so hyperlink repair always targets live ranges.
	// Each level deletes at its recorded terminal: the levels are
	// separate structures, so a deeper level's delete leaves it valid.
	for i := len(frames) - 1; i >= 0; i-- {
		if err := w.applyDelete(frames[i].node, x, q, code, frames[i].r, op); err != nil {
			return op.Hops(), err
		}
	}
	w.n--
	// The path's leaf may have just drained.
	last := frames[len(frames)-1].node
	if last.kids[0] == nil && last.count == 0 {
		w.removeLeaf(last)
	}
	// Re-absorb the shallowest underpopulated subtree along the path
	// (hysteresis: merge at MergeMin, split at LeafMax, MergeMin < LeafMax).
	for _, f := range frames {
		if w.underfull(&f.node.treeNode) {
			w.mergeSubtree(f.node, op)
			break
		}
	}
	return op.Hops(), nil
}

func (w *Web[L, T, Q]) applyDelete(n *setNode[L, T], x T, q Q, code uint64, at RangeID, op *sim.Op) error {
	s := n.s
	ch, err := w.ops.Delete(s, x, q, at)
	if err != nil {
		return fmt.Errorf("core: delete at depth %d: %w", n.depth, err)
	}
	n.count--
	// Only a leaf keeps its item set (O(LeafMax) entries): drop x from it
	// by scanning the parallel code slice, no CodeOf recomputation.
	if n.kids[0] == nil {
		for i, c := range n.codes {
			if c == code {
				last := len(n.codes) - 1
				n.items[i], n.codes[i] = n.items[last], n.codes[last]
				n.items, n.codes = n.items[:last], n.codes[:last]
				break
			}
		}
	}
	// Redirect children anchored at removed ranges, rewriting each
	// child's hyperlink set in place: no snapshot and no replacement
	// slice — the backref list under the dead range is left stale and
	// dropped wholesale by dropRange below.
	for i, dead := range ch.Removed {
		to := NoRange
		if i < len(ch.RemapTo) {
			to = ch.RemapTo[i]
		}
		for _, b := range n.slab.backsOf(dead) {
			if to == NoRange {
				return fmt.Errorf("core: removed range %d at depth %d has anchored children but no remap", dead, n.depth)
			}
			kid, cr := n.backref(b)
			w.redirectAnchor(n, kid, cr, dead, to)
			w.sendReplicas(op, kid, cr)
		}
		if n.slab.placed(dead) {
			w.sendReplicas(op, n, dead) // tombstone message to every replica
		}
		w.dropRange(n, dead)
	}
	if n.parent != nil {
		ps := n.parent.s
		for _, r := range ch.Touched {
			anchors, err := w.ops.Anchors(s, ps, r)
			if err != nil {
				return fmt.Errorf("core: re-anchor range %d at depth %d: %w", r, n.depth, err)
			}
			if anchorsEqual(anchors, n.slab.anchorsOf(r)) {
				continue
			}
			w.setAnchors(n, r, anchors)
			w.sendReplicas(op, n, r)
		}
	}
	if n.inLeaves {
		w.refreshRangeCache(n)
	}
	return w.repairChildren(n, ch.Touched, op)
}

// redirectAnchor rewrites child range r's hyperlink set in place:
// every occurrence of parent range dead becomes to (keeping its
// position), duplicates are dropped keeping first occurrences, the
// child host's storage is adjusted by the length delta, and — when to
// was not already an anchor — the symmetric backref is appended at the
// parent. The stale backref under dead is not touched; the caller drops
// that range (and its whole backref list) immediately after. The
// resulting anchor set, storage deltas, and messages are identical to
// the replace-copy-dedupe-setAnchors composition this replaces, without
// allocating. Hyperlink sets are expected O(1) (set-halving lemma), so
// the quadratic dedupe scan is free.
func (w *Web[L, T, Q]) redirectAnchor(parent, child *setNode[L, T], r RangeID, dead, to RangeID) {
	set := &child.slab.slots[r].anchors
	anchors := child.slab.members(set)
	hadTo := false
	for _, a := range anchors {
		if a == to {
			hadTo = true
			break
		}
	}
	out := anchors[:0]
	for _, a := range anchors {
		if a == dead {
			a = to
		}
		dup := false
		for _, o := range out {
			if o == a {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, a)
		}
	}
	if len(out) != len(anchors) {
		child.slab.shrink(set, len(out))
		child.slab.replicas(r).addStorage(w.net, len(out)-len(anchors))
	}
	if !hadTo {
		parent.slab.add(&parent.slab.slots[to].backs, packBackref(child.side, r))
	}
}

// splitLeaf turns a leaf set node into an internal node with two halves,
// handing its item set down to them.
func (w *Web[L, T, Q]) splitLeaf(n *setNode[L, T], op *sim.Op) error {
	codes, items := halve(w.treeConfig, n.depth, n.codes, n.items)
	if err := split(&w.setTree, w.levelOf(false), n, codes, items); err != nil {
		return fmt.Errorf("core: split leaf at depth %d: %w", n.depth, err)
	}
	// Creating a structure of k ranges costs O(k) messages — one per
	// replica placed — amortized against the inserts that grew the leaf.
	for _, kid := range n.kids {
		w.ops.VisitRanges(kid.s, func(r RangeID) bool {
			kid.slab.replicas(r).sendAll(op)
			return true
		})
	}
	n.items, n.codes = nil, nil
	return nil
}

// mergeSubtree re-absorbs all descendants of n, making it a leaf again.
// Its item set is regathered from the released leaves in release order;
// the order is free because every dynamic Ops.Build is order-independent.
func (w *Web[L, T, Q]) mergeSubtree(n *setNode[L, T], op *sim.Op) {
	w.merge(n, func(k *setNode[L, T]) {
		w.ops.VisitRanges(k.s, func(r RangeID) bool {
			if k.slab.placed(r) {
				w.sendReplicas(op, k, r)
			}
			w.dropRange(k, r)
			return true
		})
		n.items = append(n.items, k.items...)
		n.codes = append(n.codes, k.codes...)
	})
}

// rangeUnits is the storage footprint one replica of range r carries:
// its payload plus its hyperlink pointers.
func (w *Web[L, T, Q]) rangeUnits(n *setNode[L, T], r RangeID) int {
	return w.ops.Payload(n.s, r) + int(n.slab.slots[r].anchors.n)
}

// webUnit is one range of one level structure, as the replica layer sees
// it (replicaUnit).
type webUnit[L, T, Q any] struct {
	w *Web[L, T, Q]
	n *setNode[L, T]
	r RangeID
}

func (u webUnit[L, T, Q]) replicas() replicaSet { return u.n.slab.replicas(u.r) }
func (u webUnit[L, T, Q]) name() nodeRange[*setNode[L, T]] {
	return nodeRange[*setNode[L, T]]{u.n, u.r}
}
func (u webUnit[L, T, Q]) size() int        { return u.w.rangeUnits(u.n, u.r) }
func (u webUnit[L, T, Q]) moved(op *sim.Op) { u.w.notifyChildren(op, u.n, u.r) }

// reconcile re-copies a diverged range in full, one message per storage
// word: web units are a few words, so unit granularity is the leaf
// granularity.
func (u webUnit[L, T, Q]) reconcile(missRecord) merkleCost {
	return merkleCost{leaves: u.size(), keys: u.size()}
}

// eachUnit visits every range of every level structure: DFS order, then
// VisitRanges order within a node.
func (w *Web[L, T, Q]) eachUnit(visit func(webUnit[L, T, Q])) {
	w.eachNode(func(n *setNode[L, T]) {
		w.ops.VisitRanges(n.s, func(r RangeID) bool {
			visit(webUnit[L, T, Q]{w, n, r})
			return true
		})
	})
}

// Rehome migrates every replica placed on host `from` — which the
// network must already have marked departed — onto randomly drawn live
// hosts distinct from the range's other replicas, charging each
// migration hop to op. When no distinct live host exists (the cluster
// shrank below the replication factor) the replica is dropped instead.
// Cost: one message per storage unit moved plus one per anchored child
// replica notified, so a departing host that holds an s-unit share of
// the structure pays Θ(s) messages, the paper's per-host memory
// M = O((n/H) log n) in expectation.
func (w *Web[L, T, Q]) Rehome(from sim.HostID, op *sim.Op) {
	retargetUnits(&w.rep, w.eachUnit, w.rep.leaving(from), op)
}

// Rebalance moves each replica independently onto the (freshly joined)
// host `onto` with probability 1/LiveHosts (replication.joining), every
// migration hop charged to op.
func (w *Web[L, T, Q]) Rebalance(onto sim.HostID, op *sim.Op) {
	retargetUnits(&w.rep, w.eachUnit, w.rep.joining(onto), op)
}

// Repair re-replicates every under-replicated range (repairUnits),
// notifying anchored children when a new primary is promoted. Ranges with
// no surviving replica are reported via a DataLossError.
func (w *Web[L, T, Q]) Repair(op *sim.Op) error {
	var lost lossTally
	repairUnits(&w.rep, w.eachUnit, op, &lost)
	return lost.err()
}

// RestartHost reconciles host h's shard after a durable restart
// (reconcileUnits), returning the number of storage units re-copied.
//
// Note that the Web's restructure-heavy update path naturally erodes a
// down host's stale image toward clean: applyInsert rebuilds touched
// ranges by dropRange + placeRange, dropRange discharges every
// replica's storage (including the crashed host's — its image shrinks
// while it is down, keeping accounting exact), and placeRange draws
// replacement replicas from live hosts only. A range that recorded a
// miss therefore usually no longer exists by restart time; whatever
// part of the shard survived untouched is provably clean, so the walk
// may legitimately copy zero units. Engines that mutate units in place
// (BlockedWeb blocks, BucketWeb buckets) exercise the copy path.
func (w *Web[L, T, Q]) RestartHost(h sim.HostID, op *sim.Op) int {
	return reconcileUnits(&w.rep, w.eachUnit, h, op)
}

// GroundStructure exposes the level-0 structure D(S) (for answer
// extraction and tests).
func (w *Web[L, T, Q]) GroundStructure() L { return w.root.s }

// LevelCensus describes one depth of the hierarchy (Figure 2): how many
// structures S_b exist there and how many items they hold in total.
type LevelCensus struct {
	Depth      int
	Structures int
	Items      int
	Ranges     int
}

// Census returns per-depth statistics of the level hierarchy.
func (w *Web[L, T, Q]) Census() []LevelCensus {
	var out []LevelCensus
	w.eachNode(func(n *setNode[L, T]) {
		for len(out) <= n.depth {
			out = append(out, LevelCensus{Depth: len(out)})
		}
		c := &out[n.depth]
		c.Structures++
		c.Items += n.count
		c.Ranges += len(RangesOf(w.ops, n.s))
	})
	return out
}

// CheckInvariants verifies the full web: the set tree's links and leaf
// list (setTree.check), every slot table is a bijection with its
// structure's live ranges (a slot outside VisitRanges is empty),
// hyperlinks exactly match recomputation, anchors and backrefs mirror each
// other in both directions, only leaves hold item sets, and every level
// structure's ranges are placed on live hosts — the consistency contract
// host churn must preserve.
func (w *Web[L, T, Q]) CheckInvariants() error {
	return w.check(w.checkNode)
}

// checkNode is CheckInvariants for one set node.
func (w *Web[L, T, Q]) checkNode(n *setNode[L, T]) error {
	s := n.s
	ranges := RangesOf(w.ops, s)
	live := make([]bool, len(n.slab.slots))
	for _, r := range ranges {
		if !n.slab.placed(r) {
			return fmt.Errorf("core: depth %d: range %d unplaced", n.depth, r)
		}
		live[r] = true
	}
	for i, sl := range n.slab.slots {
		if !live[i] && (sl != emptySlot || n.slab.mirrors != nil && len(n.slab.mirrors[i]) > 0) {
			return fmt.Errorf("core: depth %d: slot %d is not a live range but holds %+v", n.depth, i, sl)
		}
	}
	if n.inLeaves && !slices.Equal(n.rangeCache, ranges) {
		return fmt.Errorf("core: depth %d: range cache %v is stale, want %v", n.depth, n.rangeCache, ranges)
	}
	for _, r := range ranges {
		if err := n.slab.replicas(r).check(w.net, w.rep.k); err != nil {
			return fmt.Errorf("core: depth %d: range %d: %w", n.depth, r, err)
		}
		got := n.slab.anchorsOf(r)
		if n.parent != nil {
			want, err := w.ops.Anchors(s, n.parent.s, r)
			if err != nil {
				return err
			}
			if !anchorsEqual(got, want) {
				return fmt.Errorf("core: depth %d range %d: anchors %v, want %v", n.depth, r, got, want)
			}
			for _, a := range got {
				if !slices.Contains(n.parent.slab.backsOf(a), packBackref(n.side, r)) {
					return fmt.Errorf("core: depth %d range %d: missing backref at parent range %d", n.depth, r, a)
				}
			}
		} else if len(got) != 0 {
			return fmt.Errorf("core: root range %d has anchors %v", r, got)
		}
		for _, b := range n.slab.backsOf(r) {
			kid, cr := n.backref(b)
			if kid == nil || !kid.slab.placed(cr) ||
				!slices.Contains(kid.slab.anchorsOf(cr), r) {
				return fmt.Errorf("core: depth %d range %d: backref %d names a child range not anchored here", n.depth, r, b)
			}
		}
	}
	if n.kids[0] != nil {
		if n.items != nil || n.codes != nil {
			return fmt.Errorf("core: depth %d: internal node holds an item set", n.depth)
		}
	} else if len(n.items) != n.count || len(n.codes) != n.count {
		return fmt.Errorf("core: depth %d: leaf holds %d items and %d codes for count %d",
			n.depth, len(n.items), len(n.codes), n.count)
	}
	for i, x := range n.items {
		if n.codes[i] != w.ops.CodeOf(x) {
			return fmt.Errorf("core: depth %d: leaf code %d does not match its item", n.depth, i)
		}
	}
	return nil
}
