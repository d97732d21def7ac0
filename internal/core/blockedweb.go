package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// BlockedWeb is the improved one-dimensional skip-web of Section 2.4.1:
// the level hierarchy of a skip-web over sorted lists, with the
// stratified blocking strategy that lowers query cost from O(log n) to
// O(log n / log M) messages when hosts can store M units.
//
// Levels are grouped into strata of L = ceil(log2 M) consecutive depths.
// Depths divisible by L are "basic": a basic structure's ranges are cut
// into blocks of contiguous key intervals, one block per host, and every
// non-basic structure in the stratum above it is co-located with the
// blocks its ranges overlap. A query descending the hierarchy therefore
// pays messages only when it crosses from one stratum into the next —
// O(log n / log M) expected messages, which is O(log n / log log n) at
// M = Θ(log n) (Theorem 2).
type BlockedWeb struct {
	setTree[*bnode]
	net     Fabric
	m       int // host memory parameter M
	strat   int // stratum height L = max(1, ceil(log2 M))
	blockSz int // ranges per block B = max(1, M/4)
	rng     *xrand.Rand
	hostSeq int
	n       int

	// seenScratch is the per-update set of block hosts already charged,
	// reused across operations (updates are single-writer). Distinct hosts
	// per update are O(log n / log M), so a linear scan beats a map and
	// allocates nothing.
	seenScratch []sim.HostID
	// pathScratch and floorScratch hold keyPath's result — an update's
	// bit path, root first, and key's floor in each of its levels —
	// reused across operations.
	pathScratch  []*bnode
	floorScratch []RangeID
	// memberScratch is the stratum enumeration buffer (stratumMembers),
	// reused across operations.
	memberScratch []*bnode
	// splitScratch lists the blocks the climb in progress has split
	// (lower half's index), so a failed climb can merge them back.
	splitScratch []blockUnit
	// leafKeys and leafRanges list a splitting leaf's keys and the ranges
	// holding them; halfScratch and upScratch are their bit partition —
	// each half's keys beside the kids' hyperlinks. All four are reused
	// across operations.
	leafKeys    []uint64
	leafRanges  []RangeID
	halfScratch [2][]uint64
	upScratch   [2][]RangeID
	// rankBuf backs ranks.
	rankBuf []RangeID

	// Set-tree nodes and their levels are recycled: mergeSubtree releases
	// into the free lists, level draws from them, and fresh objects come
	// from bump-allocated slabs so a split charges at most a fraction of
	// one allocation for its two new structures. Slabs are never shrunk
	// or moved (pointers into them stay valid); pooled levels keep their
	// slot and index capacity across reuse.
	nodeFree []*bnode
	nodeSlab []bnode
	lvlFree  []*ListLevel
	lvlSlab  []ListLevel

	// rep is the replica-layer state (replicas.go).
	rep replication[blockName]
}

// blockName names a block in the miss log by its start key rather than
// its index: the directory can split while a host is down, and the lower
// half — the part the down host still replicates — keeps the start key.
type blockName struct {
	bn    *bnode
	start uint64
}

// resetSeen clears the seen-host scratch set at the start of an update.
func (w *BlockedWeb) resetSeen() { w.seenScratch = w.seenScratch[:0] }

// bnode is one set-tree node: a sorted-list level plus, when basic, its
// block directory.
type bnode struct {
	lvl  *ListLevel
	base *bnode // the basic node this node's ranges are co-located with
	treeNode[*bnode]

	// Block directory (basic nodes only). Block 0 covers keys below
	// blockStarts[1]; block i covers [blockStarts[i], blockStarts[i+1]).
	blockStarts []uint64
	blockHosts  []sim.HostID
	blockSizes  []int
	// blockMirrors[i] holds block i's k-1 secondary replica hosts (the
	// primary lives in blockHosts). nil on unreplicated webs, so the
	// k = 1 paths never touch it.
	blockMirrors [][]sim.HostID

	// inline* are the initial directory storage: fresh basic leaves hold
	// a handful of blocks, so their directories live inside the node
	// (which itself comes from a slab) and a leaf split allocates
	// nothing for them. Larger directories spill to the heap via append.
	inlineStarts [4]uint64
	inlineHosts  [4]sim.HostID
	inlineSizes  [4]int
}

// BlockedConfig tunes a BlockedWeb.
type BlockedConfig struct {
	// Seed drives membership bits and host assignment.
	Seed uint64
	// M is the per-host memory parameter; block size and stratum height
	// derive from it. Defaults to ceil(log2 n)+1.
	M int
	// Replicas is the replication factor k: every block (and its
	// co-located stratum copies) is mirrored on k distinct live hosts,
	// queries fail over to the next live replica, and updates write
	// through to all of them. 0 or 1 means unreplicated — the
	// seed-compatible default.
	Replicas int
	// LeafMax / MergeMin as in Config.
	LeafMax  int
	MergeMin int
}

// NewBlockedWeb builds the blocked skip-web over keys via the O(n)-per-
// level bulk-load path: the keys are sorted (and checked distinct) once,
// every level partition preserves that order, and each level's list is
// built by the linear NewListLevelSorted splice instead of a re-sort.
// Randomness (membership bits, block host assignment) is consumed in
// exactly the order of the incremental path, so construction remains
// seed-compatible with pre-bulk builds; construction charges storage
// only, never messages (an update's messages are charged to the update).
func NewBlockedWeb(net Fabric, keys []uint64, cfg BlockedConfig) (*BlockedWeb, error) {
	if cfg.M <= 0 {
		cfg.M = int(math.Ceil(math.Log2(float64(len(keys)+2)))) + 1
	}
	strat := int(math.Ceil(math.Log2(float64(cfg.M))))
	if strat < 1 {
		strat = 1
	}
	blockSz := cfg.M / 4
	if blockSz < 1 {
		blockSz = 1
	}
	w := &BlockedWeb{
		setTree: setTree[*bnode]{treeConfig: newTreeConfig(cfg.Seed, cfg.LeafMax, cfg.MergeMin)},
		net:     net,
		m:       cfg.M,
		strat:   strat,
		blockSz: blockSz,
		rng:     xrand.New(cfg.Seed ^ 0xb10c),
	}
	w.rep = replication[blockName]{net: net, k: max(cfg.Replicas, 1), draw: w.nextHost, rng: w.rng}
	sorted := append([]uint64(nil), keys...)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("core: duplicate key %d", sorted[i])
		}
	}
	w.root, _ = subtree(&w.setTree, w.level, treeNode[*bnode]{count: len(sorted)}, sorted, nil)
	w.rankBuf = nil // sized for the root; a later split needs a leaf's worth
	w.n = len(keys)
	return w, nil
}

// newNode returns a zeroed set-tree node from the free list or slab.
func (w *BlockedWeb) newNode() *bnode {
	if k := len(w.nodeFree); k > 0 {
		n := w.nodeFree[k-1]
		w.nodeFree = w.nodeFree[:k-1]
		*n = bnode{
			blockStarts:  n.blockStarts[:0],
			blockHosts:   n.blockHosts[:0],
			blockSizes:   n.blockSizes[:0],
			blockMirrors: n.blockMirrors[:0],
		}
		return n
	}
	if len(w.nodeSlab) == cap(w.nodeSlab) {
		w.nodeSlab = make([]bnode, 0, 64)
	}
	w.nodeSlab = append(w.nodeSlab, bnode{})
	n := &w.nodeSlab[len(w.nodeSlab)-1]
	n.blockStarts = n.inlineStarts[:0]
	n.blockHosts = n.inlineHosts[:0]
	n.blockSizes = n.inlineSizes[:0]
	return n
}

// newLevel returns a list level over the strictly ascending keys, with
// hyperlinks ups (see ListLevel.reset), drawn from the free list or
// slab; pooled levels keep their slot and index capacity, so recycling a
// released leaf level allocates nothing.
func (w *BlockedWeb) newLevel(sorted []uint64, ups []RangeID) *ListLevel {
	if k := len(w.lvlFree); k > 0 {
		l := w.lvlFree[k-1]
		w.lvlFree = w.lvlFree[:k-1]
		l.reset(sorted, ups)
		return l
	}
	if len(w.lvlSlab) == cap(w.lvlSlab) {
		w.lvlSlab = make([]ListLevel, 0, 64)
	}
	w.lvlSlab = append(w.lvlSlab, ListLevel{})
	l := &w.lvlSlab[len(w.lvlSlab)-1]
	l.reset(sorted, ups)
	return l
}

// releaseNode returns a merged-away node and its level to the pools.
// Miss records keyed by the node are purged first: the pool recycles
// bnode pointers, so a stale key could otherwise alias a future node.
func (w *BlockedWeb) releaseNode(n *bnode) {
	for at := range w.rep.missed {
		if at.unit.bn == n {
			delete(w.rep.missed, at)
		}
	}
	w.lvlFree = append(w.lvlFree, n.lvl)
	n.lvl, n.base = nil, nil
	n.treeNode = treeNode[*bnode]{}
	w.nodeFree = append(w.nodeFree, n)
}

// Len returns the number of keys stored.
func (w *BlockedWeb) Len() int { return w.n }

// M returns the memory parameter.
func (w *BlockedWeb) M() int { return w.m }

// StratumHeight returns L.
func (w *BlockedWeb) StratumHeight() int { return w.strat }

// Ground returns the level-0 list D(S).
func (w *BlockedWeb) Ground() *ListLevel { return w.root.lvl }

// nextHost draws the next live host round-robin. With no churn the live
// set is 0..H-1, so the sequence matches the pre-churn hostSeq % Hosts()
// and block placement stays seed-compatible.
func (w *BlockedWeb) nextHost() sim.HostID {
	h := w.net.LiveAt(w.hostSeq % w.net.LiveHosts())
	w.hostSeq++
	return h
}

// blockReplicas returns the slot view over block bi of basic node bn. The
// blockMirrors directory is empty on unreplicated webs and parallel to
// blockHosts otherwise.
func (w *BlockedWeb) blockReplicas(bn *bnode, bi int) replicaSet {
	rs := replicaSet{primary: &bn.blockHosts[bi]}
	if len(bn.blockMirrors) > 0 {
		rs.mirrors = &bn.blockMirrors[bi]
	}
	return rs
}

// addBlockStorage charges delta storage units at every replica of block
// bi of basic node bn — every replica holds a full copy of the block's
// ranges, hyperlinks, and boundary copies.
func (w *BlockedWeb) addBlockStorage(bn *bnode, bi, delta int) {
	w.blockReplicas(bn, bi).addStorage(w.net, delta)
}

// chargeBlockOnce writes through to each replica of block bi that this
// update has not yet charged: one message per distinct block host per
// update, so updates confined to a stratum's co-located copies cost a
// single message.
func (w *BlockedWeb) chargeBlockOnce(bn *bnode, bi int, op *sim.Op) {
	w.rep.writeThrough(op, w.blockReplicas(bn, bi), blockName{bn, bn.blockStarts[bi]}, &w.seenScratch)
}

// sendBlock charges one write-through message to every replica of block
// bi of bn, with no per-update dedup.
func (w *BlockedWeb) sendBlock(bn *bnode, bi int, op *sim.Op) {
	w.rep.writeThrough(op, w.blockReplicas(bn, bi), blockName{bn, bn.blockStarts[bi]}, nil)
}

// visitBlock moves op to the live replica serving block bi of bn,
// failing fast when none survives.
func (w *BlockedWeb) visitBlock(bn *bnode, bi int, op *sim.Op) error {
	h, err := w.blockReplicas(bn, bi).firstLive(w.net)
	if err != nil {
		return err
	}
	op.Visit(h)
	return nil
}

// drawBlockMirrors draws the secondary hosts of a fresh block whose
// primary is already drawn.
func (w *BlockedWeb) drawBlockMirrors(primary sim.HostID) []sim.HostID {
	return drawMirrors(w.net, w.rep.k, w.rep.draw, primary)
}

// level is the levelFunc that builds one set node over keys, which must
// be strictly ascending: the single sort in NewBlockedWeb propagates
// through every bit partition, so each level builds in O(level size).
// ups[j] is the parent range holding keys[j] — the hyperlink of the fresh
// level's range j+1 — and nil at the root. A splitting node partitions
// each key beside its fresh range (ranks), the kid's hyperlink, into
// halves that share one buffer per array: the kids' levels copy them.
func (w *BlockedWeb) level(links treeNode[*bnode], keys []uint64, ups []RangeID) (n *bnode, halves [2][]uint64, kidUps [2][]RangeID, err error) {
	n = w.newNode()
	n.treeNode = links
	n.lvl = w.newLevel(keys, ups)
	if n.depth%w.strat == 0 {
		n.base = n
		w.buildBlocks(n, keys)
	} else {
		n.base = n.parent.base
	}
	// Storage: one unit per range plus one for its hyperlink, at the
	// range's primary block host; boundary-straddling copies add one.
	// The freshly built level is iterated in key order, so a block
	// cursor charges each range in O(1) amortized.
	w.chargeBuildStorage(n)
	if w.splits(n.count, n.depth) {
		zeros := len(keys) - w.ones(keys, n.depth)
		kbuf, ubuf := make([]uint64, 0, len(keys)), make([]RangeID, 0, len(keys))
		halves, kidUps = partition(w.treeConfig, n.depth, keys, w.ranks(len(keys)),
			[2][]uint64{kbuf[:0:zeros], kbuf[zeros:zeros]}, [2][]RangeID{ubuf[:0:zeros], ubuf[zeros:zeros]})
	}
	return n, halves, kidUps, nil
}

// ranks returns 1..n: the ranges a fresh level over n keys holds them
// at, in key order.
func (w *BlockedWeb) ranks(n int) []RangeID {
	if k := len(w.rankBuf); k < n {
		w.rankBuf = slices.Grow(w.rankBuf, n-k)
		for i := k; i < n; i++ {
			w.rankBuf = append(w.rankBuf, RangeID(i+1))
		}
	}
	return w.rankBuf[:n]
}

// buildBlocks cuts a basic node's key sequence (passed in ascending
// order) into blocks of blockSz contiguous ranges, assigning one host
// per block. Directory capacity from a pooled node is reused.
func (w *BlockedWeb) buildBlocks(n *bnode, keys []uint64) {
	n.blockStarts = append(n.blockStarts[:0], 0) // block 0 holds the head region
	n.blockHosts = append(n.blockHosts[:0], w.nextHost())
	n.blockSizes = append(n.blockSizes[:0], 1) // the head sentinel
	if w.rep.k > 1 {
		n.blockMirrors = append(n.blockMirrors[:0], w.drawBlockMirrors(n.blockHosts[0]))
	}
	for i, k := range keys {
		bi := len(n.blockHosts) - 1
		if n.blockSizes[bi] >= w.blockSz && i > 0 {
			n.blockStarts = append(n.blockStarts, k)
			n.blockHosts = append(n.blockHosts, w.nextHost())
			n.blockSizes = append(n.blockSizes, 0)
			if w.rep.k > 1 {
				n.blockMirrors = append(n.blockMirrors, w.drawBlockMirrors(n.blockHosts[bi+1]))
			}
			bi++
		}
		n.blockSizes[bi]++
	}
}

// chargeBuildStorage charges the construction storage of every range of
// node n's freshly built level — 2 units (range + hyperlink) on the
// primary block host, plus 1 for each boundary-straddling copy — by a
// single list-order sweep with a block cursor. The per-host sums equal
// a chargeRangeStorage call per range.
func (w *BlockedWeb) chargeBuildStorage(n *bnode) {
	bn := n.base
	bi := 0 // the head sentinel's block
	for r := n.lvl.Head(); r != NoRange; r = n.lvl.Next(r) {
		w.addBlockStorage(bn, bi, 2)
		if next := n.lvl.Next(r); next != NoRange {
			bj := w.blockIndexNear(bn, n.lvl.Key(next), bi)
			if bj != bi {
				w.addBlockStorage(bn, bj, 1)
			}
			bi = bj
		}
	}
}

// blockIndex returns the block of basic node bn covering key q: the last
// block whose start is <= q (block 0 starts at -inf). Manual binary
// search — this sits on every block-host resolution of every routed hop.
func (w *BlockedWeb) blockIndex(bn *bnode, q uint64) int {
	lo, hi := 1, len(bn.blockStarts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bn.blockStarts[mid] <= q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// blockIndexNear is blockIndex with a cursor: when q lies in block hint
// or an adjacent block — the common case for a walk moving one range at
// a time — the lookup is O(1); anything farther falls back to the binary
// search. Callers must pass a valid block index as hint.
func (w *BlockedWeb) blockIndexNear(bn *bnode, q uint64, hint int) int {
	starts := bn.blockStarts
	i := hint
	if i > 0 && q < starts[i] {
		i--
		if i > 0 && q < starts[i] {
			return w.blockIndex(bn, q)
		}
		return i
	}
	if i+1 < len(starts) && q >= starts[i+1] {
		i++
		if i+1 < len(starts) && q >= starts[i+1] {
			return w.blockIndex(bn, q)
		}
	}
	return i
}

// rangeKey is the key identifying a range's primary block (the head
// sentinel lives in block 0).
func (w *BlockedWeb) rangeKey(n *bnode, r RangeID) uint64 {
	if n.lvl.IsHead(r) {
		return 0
	}
	return n.lvl.Key(r)
}

// chargeRangeStorage adds (or removes, sign -1) the storage for range r
// of node n: range + hyperlink on the primary host, plus a copy when the
// range straddles into the next block. The straddle reuses the primary's
// block index instead of recomputing it.
func (w *BlockedWeb) chargeRangeStorage(n *bnode, r RangeID, sign int) {
	k := w.rangeKey(n, r)
	bn := n.base
	bi := w.blockIndex(bn, k)
	w.addBlockStorage(bn, bi, sign*2)
	if next := n.lvl.Next(r); next != NoRange {
		nk := n.lvl.Key(next)
		if bj := w.blockIndexNear(bn, nk, bi); bj != bi {
			w.addBlockStorage(bn, bj, sign)
		}
	}
}

// stratumMembers returns bn's stratum (every node co-located with basic
// node bn's blocks, bn included) in DFS order. The stratum is the
// maximal subtree below bn whose nodes share bn as their base; recursion
// stops at the next stratum's basic nodes. The returned slice aliases
// w.memberScratch (single-writer update path) and is valid until the
// next stratumMembers call.
func (w *BlockedWeb) stratumMembers(bn *bnode) []*bnode {
	out := w.memberScratch[:0]
	w.dfs(bn, func(n *bnode) bool {
		if n.base != bn {
			return false
		}
		out = append(out, n)
		return true
	}, nil)
	w.memberScratch = out[:0]
	return out
}

// Query routes a floor query to the terminal range of D(S), returning
// the floor key (ok=false if q is below every key) and the hop count.
// On a replicated web the descent fails over to live block replicas; a
// block with no live replica aborts the query with a HostDownError
// (matchable via errors.Is against the host-down sentinel).
//
// Query and Range are safe for concurrent use by multiple goroutines as
// long as no update runs concurrently: the descent reads only immutable
// level lists and block directories plus atomic network counters (the
// single-writer/many-reader contract the batch engine enforces).
func (w *BlockedWeb) Query(q uint64, origin sim.HostID) (uint64, bool, int, error) {
	k, ok, c, _, err := w.queryCost(q, origin)
	return k, ok, c.Hops, err
}

// QueryCost is Query reporting the full Cost pair — hop count plus the
// modeled critical-path latency — instead of hops alone. Accounting is
// identical: both run the same descent, charge for charge.
func (w *BlockedWeb) QueryCost(q uint64, origin sim.HostID) (uint64, bool, Cost, error) {
	k, ok, c, _, err := w.queryCost(q, origin)
	return k, ok, c, err
}

// queryCost runs the floor descent and reports the answer, the cost
// pair, and the terminal host the descent ended at — the sender of any
// follow-up hop a caller (BucketWeb) charges on top.
func (w *BlockedWeb) queryCost(q uint64, origin sim.HostID) (uint64, bool, Cost, sim.HostID, error) {
	op := w.net.NewOp(origin)
	defer op.Free()
	r, err := w.queryOp(q, op)
	c := Cost{Hops: op.Hops(), Latency: op.Latency()}
	if err != nil {
		return 0, false, c, op.Current(), err
	}
	g := w.root.lvl
	if g.IsHead(r) {
		return 0, false, c, op.Current(), nil
	}
	return g.Key(r), true, c, op.Current(), nil
}

// queryOp descends the hierarchy under op, returning the level-0
// terminal range.
func (w *BlockedWeb) queryOp(q uint64, op *sim.Op) (RangeID, error) {
	node := w.entryLeaf(op.Current())
	// Locate within the entry structure from its head sentinel, visiting
	// block hosts as the walk moves (entry structures hold O(1) ranges).
	bi := w.blockIndex(node.base, w.rangeKey(node, 0))
	if err := w.visitBlock(node.base, bi, op); err != nil {
		return NoRange, err
	}
	r, bi, err := w.walk(node, 0, q, bi, op)
	if err != nil {
		return NoRange, err
	}
	for node.parent != nil {
		parent := node.parent
		// Follow the stored hyperlink to the parent range holding the
		// same key. Inside a stratum the parent reads the same block
		// directory, so the block of that key carries over; only
		// entering a new stratum's basic node needs a directory search.
		r = node.lvl.up(r)
		if parent.base != node.base {
			bi = w.blockIndex(parent.base, w.rangeKey(parent, r))
		}
		if err := w.visitBlock(parent.base, bi, op); err != nil {
			return NoRange, err
		}
		if r, bi, err = w.walk(parent, r, q, bi, op); err != nil {
			return NoRange, err
		}
		node = parent
	}
	return r, nil
}

// walk performs the local Step descent in node n from range r toward q's
// terminal, visiting the block host of each range stepped through, and
// returns the terminal with its block index. The walk moves one range
// at a time, so a block cursor — seeded with bi, the block index of r's
// key — resolves each host in O(1) amortized instead of a directory
// binary search per step; the visited hosts — and hence the charged
// messages — are identical.
func (w *BlockedWeb) walk(n *bnode, r RangeID, q uint64, bi int, op *sim.Op) (RangeID, int, error) {
	bn := n.base
	for {
		nx := n.lvl.Step(r, q)
		if nx == NoRange {
			return r, bi, nil
		}
		r = nx
		bi = w.blockIndexNear(bn, w.rangeKey(n, r), bi)
		if err := w.visitBlock(bn, bi, op); err != nil {
			return NoRange, bi, err
		}
	}
}

// Range routes to the floor of lo and walks the ground list, reporting
// every key in [lo, hi] (inclusive) in ascending order. Cost: one floor
// query plus one message per block crossed while walking — O(Q(n) + k/B)
// for k results.
func (w *BlockedWeb) Range(lo, hi uint64, origin sim.HostID) ([]uint64, int, error) {
	keys, c, err := w.RangeCost(lo, hi, origin)
	return keys, c.Hops, err
}

// RangeCost is Range reporting the full Cost pair — hop count plus the
// modeled critical-path latency — instead of hops alone. Accounting is
// identical: both run the same descent and walk, charge for charge.
func (w *BlockedWeb) RangeCost(lo, hi uint64, origin sim.HostID) ([]uint64, Cost, error) {
	op := w.net.NewOp(origin)
	defer op.Free()
	r, err := w.queryOp(lo, op)
	if err != nil {
		return nil, Cost{Hops: op.Hops(), Latency: op.Latency()}, err
	}
	g := w.root.lvl
	// The terminal is floor(lo); the first in-range key is the terminal
	// itself (if == lo) or its successor.
	if g.IsHead(r) || g.Key(r) < lo {
		r = g.Next(r)
	}
	var out []uint64
	bi := -1
	for r != NoRange {
		k := g.Key(r)
		if k > hi {
			break
		}
		if bi < 0 {
			bi = w.blockIndex(w.root, k)
		} else {
			bi = w.blockIndexNear(w.root, k, bi)
		}
		if err := w.visitBlock(w.root, bi, op); err != nil {
			return out, Cost{Hops: op.Hops(), Latency: op.Latency()}, err
		}
		out = append(out, k)
		r = g.Next(r)
	}
	return out, Cost{Hops: op.Hops(), Latency: op.Latency()}, nil
}

// Insert adds a key, climbing its bit path and paying messages only at
// stratum boundaries (Section 4: O(log n / log log n) expected for 1-d).
// Insert is all-or-nothing: when it returns an error (a duplicate, or a
// host-down error from a block with no live replica met by the routed
// query or half-way up the climb) the key is in no level and every
// host's storage is what it was before the call. Messages charged for
// the attempt stay charged.
func (w *BlockedWeb) Insert(key uint64, origin sim.HostID) (int, error) {
	op := w.net.NewOp(origin)
	defer op.Free()
	t0, err := w.queryOp(key, op)
	if err != nil {
		return op.Hops(), err
	}
	if !w.root.lvl.IsHead(t0) && w.root.lvl.Key(t0) == key {
		return op.Hops(), fmt.Errorf("core: duplicate key %d", key)
	}
	err = w.climb(key, true, op)
	return op.Hops(), err
}

// reinsert puts back a key that Delete just removed, without routing:
// each level's splice point comes from the local key-path pass, so no
// block is read and the climb cannot fail. BucketWeb restores a separator
// with it when the second half of a rekey fails. Returns the messages
// charged.
func (w *BlockedWeb) reinsert(key uint64, origin sim.HostID) int {
	op := w.net.NewOp(origin)
	defer op.Free()
	_ = w.climb(key, false, op) // unrouted: reads no block, cannot fail
	return op.Hops()
}

// keyPath fills w.pathScratch with key's bit path, root first, and
// returns it with key's floor in the path's leaf level — the range
// holding key when key is stored. With floors set it also fills
// w.floorScratch[i] with key's floor in path[i]'s level, bottom-up from
// the leaf's. A child floor's hyperlink names the parent range holding
// the same key (the parent's head for the child's head): the parent's
// nearest key <= key that the child also holds. Only keys the other
// child holds lie between it and the parent's floor, so each level costs
// an expected O(1) walk instead of a search. A leaf holds O(1) keys (at
// most LeafMax+1 unless it sits at maxDepth), so its Locate is a short
// walk too. The pass is local: it visits no block and charges nothing.
func (w *BlockedWeb) keyPath(key uint64, floors bool) ([]*bnode, RangeID) {
	bits := mix(w.seed, key)
	path := w.pathScratch[:0]
	n := w.root
	for n.kids[0] != nil {
		path = append(path, n)
		n = n.kids[bits>>uint(n.depth)&1]
	}
	path = append(path, n)
	w.pathScratch = path
	leafFloor := n.lvl.Locate(key)
	if floors {
		fl := slices.Grow(w.floorScratch[:0], len(path))[:len(path)]
		fl[len(path)-1] = leafFloor
		for i := len(path) - 2; i >= 0; i-- {
			fl[i] = path[i].lvl.terminal(key, path[i+1].lvl.up(fl[i+1]))
		}
		w.floorScratch = fl
	}
	return path, leafFloor
}

// climb splices key, absent from every level, into each level on its bit
// path at key's floor there, which the key-path pass derives before the
// first splice: no splice changes a deeper level before the climb
// reaches it, and a leaf split waits until the climb is done. A routed
// climb charges each child terminal's walk (childTerminal); when that
// walk meets a block with no live replica the splices already applied —
// and any block split they triggered — are undone, deepest level first,
// following the fresh ranges' hyperlinks, before the error is returned.
func (w *BlockedWeb) climb(key uint64, routed bool, op *sim.Op) (err error) {
	w.resetSeen()
	w.splitScratch = w.splitScratch[:0]
	seq := w.hostSeq
	path, _ := w.keyPath(key, true)
	floors := w.floorScratch
	up := RangeID(0) // the root has no parent level; its links stay 0
	for i, node := range path {
		id := w.insertAt(node, key, floors[i], op)
		node.lvl.setUp(id, up)
		up = id
		if i+1 == len(path) || !routed {
			continue
		}
		// Charge the walk left in node's level from key's newly spliced
		// range to the nearest key present in the child.
		if err = w.childTerminal(node, path[i+1], floors[i+1], id, op); err != nil {
			for n, r := node, id; n != nil; n = n.parent {
				if k := len(w.splitScratch) - 1; k >= 0 && w.splitScratch[k].bn == n {
					w.unsplitBlock(n, w.splitScratch[k].bi)
					w.splitScratch = w.splitScratch[:k]
				}
				next := n.lvl.up(r)
				if _, rerr := w.removeAt(n, key, r); rerr != nil {
					err = errors.Join(err, rerr)
				}
				r = next
			}
			w.hostSeq = seq
			return err
		}
	}
	leaf := path[len(path)-1]
	w.addLeaf(leaf)
	if w.splits(leaf.count, leaf.depth) {
		w.splitLeaf(leaf, op)
	}
	w.n++
	return nil
}

// insertAt splices key into node's level. One message is charged per
// distinct block host touched by this whole insert operation, so updates
// confined to a stratum's co-located copies cost a single message.
// The splice skips InsertKey's duplicate check: Insert has already
// verified the key absent at the ground level, whose key set contains
// every level's.
func (w *BlockedWeb) insertAt(n *bnode, key uint64, hint RangeID, op *sim.Op) RangeID {
	id := n.lvl.spliceAfter(n.lvl.terminal(key, hint), key)
	n.count++
	bi := w.spliceStorage(n, key, n.lvl.Prev(id), n.lvl.Next(id), 1)
	w.chargeBlockOnce(n.base, bi, op)
	if n.base == n {
		n.blockSizes[bi]++
		if n.blockSizes[bi] > 2*w.blockSz {
			w.splitBlock(n, bi, op)
		}
	}
	return id
}

// childTerminal charges the walk left in parent from key's freshly
// spliced range r to the nearest key present in child (expected O(1)
// steps), visiting block hosts. That key is child floor cf's — the
// first parent key present in the child is exactly the child's floor of
// key, since the child's key set is a subset of the parent's — so the
// walk just compares parent keys against it. The visited hosts (resolved
// through a block cursor, as in walk) are those of a child membership
// probe per step.
func (w *BlockedWeb) childTerminal(parent, child *bnode, cf, r RangeID, op *sim.Op) error {
	stopAtHead := child.lvl.IsHead(cf)
	var stopKey uint64
	if !stopAtHead {
		stopKey = child.lvl.Key(cf)
	}
	bn := parent.base
	bi := -1
	for {
		if parent.lvl.IsHead(r) || (!stopAtHead && parent.lvl.Key(r) == stopKey) {
			return nil
		}
		r = parent.lvl.Prev(r)
		rk := w.rangeKey(parent, r)
		if bi < 0 {
			bi = w.blockIndex(bn, rk)
		} else {
			bi = w.blockIndexNear(bn, rk, bi)
		}
		if err := w.visitBlock(bn, bi, op); err != nil {
			return err
		}
	}
}

// splitBlock splits an overfull block of basic node bn in two, moving the
// upper half (and its stratum copies) to a fresh host.
func (w *BlockedWeb) splitBlock(bn *bnode, bi int, op *sim.Op) {
	// Find the median key of the block by walking from its start.
	var r RangeID
	if bi == 0 {
		r = bn.lvl.Head()
	} else {
		var ok bool
		r, ok = bn.lvl.ByKey(bn.blockStarts[bi])
		if !ok {
			return // the start key vanished; rebuild lazily on next split
		}
	}
	half := bn.blockSizes[bi] / 2
	for i := 0; i < half; i++ {
		nx := bn.lvl.Next(r)
		if nx == NoRange {
			break
		}
		r = nx
	}
	if bn.lvl.IsHead(r) {
		return
	}
	medKey := bn.lvl.Key(r)
	newHost := w.nextHost()
	newMirrors := w.drawBlockMirrors(newHost)
	moved := bn.blockSizes[bi] - half
	// The directory splice rehosts only the key span [medKey, hi) — hi
	// being the old block's upper bound — and can newly straddle the
	// pair crossing medKey. For every stratum member, transfer exactly
	// that span's footprint from the old block's replicas to the new
	// block's: exact per-host storage (the churn drain check relies on
	// it) at O(block) cost with no directory searches beyond the span
	// floor.
	var hi uint64
	hasHi := bi+1 < len(bn.blockStarts)
	if hasHi {
		hi = bn.blockStarts[bi+1]
	}
	fresh := replicaSet{&newHost, &newMirrors}
	for _, n := range w.stratumMembers(bn) {
		w.transferSpanStorage(n, bn, bi, medKey, hi, hasHi, fresh, 1)
	}
	w.splitScratch = append(w.splitScratch, blockUnit{w, bn, bi})
	// Splice the new block into the directory.
	bn.blockStarts = slices.Insert(bn.blockStarts, bi+1, medKey)
	bn.blockHosts = slices.Insert(bn.blockHosts, bi+1, newHost)
	bn.blockSizes = slices.Insert(bn.blockSizes, bi+1, moved)
	bn.blockSizes[bi] = half
	if w.rep.k > 1 {
		bn.blockMirrors = slices.Insert(bn.blockMirrors, bi+1, newMirrors)
	}
	// One message per moved range, per replica receiving its copy
	// (amortized against the inserts that grew the block).
	for i := 0; i < moved; i++ {
		fresh.sendAll(op)
	}
}

// unsplitBlock merges block bi+1 of bn, split off block bi by the climb
// now being unwound, back into it: the exact inverse of splitBlock's
// storage transfer and directory splice (the messages stay charged). Every
// stratum member must be as it was when the split ran — the unwind
// removes the key from the deeper members first.
func (w *BlockedWeb) unsplitBlock(bn *bnode, bi int) {
	var hi uint64
	hasHi := bi+2 < len(bn.blockStarts)
	if hasHi {
		hi = bn.blockStarts[bi+2]
	}
	fresh := w.blockReplicas(bn, bi+1)
	for _, n := range w.stratumMembers(bn) {
		w.transferSpanStorage(n, bn, bi, bn.blockStarts[bi+1], hi, hasHi, fresh, -1)
	}
	bn.blockSizes[bi] += bn.blockSizes[bi+1]
	bn.blockStarts = slices.Delete(bn.blockStarts, bi+1, bi+2)
	bn.blockHosts = slices.Delete(bn.blockHosts, bi+1, bi+2)
	bn.blockSizes = slices.Delete(bn.blockSizes, bi+1, bi+2)
	if w.rep.k > 1 {
		bn.blockMirrors = slices.Delete(bn.blockMirrors, bi+1, bi+2)
	}
}

// transferSpanStorage moves member n's storage footprint for the key
// span [lo, hi) — the upper half of block bi, about to be spliced out
// onto newHost — from the old block host to the new one. It must run
// against the pre-splice directory. The net deltas are derived instead
// of discharged-and-recharged range by range:
//
//   - every span range's primary copy (range + hyperlink, 2 units)
//     moves from block bi's host to newHost;
//   - the pair (pred, first-span-range) straddled into block bi before
//     the splice only when pred lay in an earlier block (copy at block
//     bi's host, now retired) and always straddles into the new block
//     afterwards (copy on newHost);
//   - the pair at the span's upper end keeps both its existence and its
//     copy's host: the successor's block merely shifts index, and
//     every pair internal to the span is co-located both before (block
//     bi) and after (the new block).
//
// The per-host sums are identical to recomputing every affected range's
// footprint under both directories — splitBlock's exactness contract
// (Cluster.Leave asserts exact drains) rests on that — at O(span) cost
// with a single search to find the span floor. Every replica of the old
// block discharges the span; every replica of the new block (fresh) is
// charged its copy. sign -1 runs the transfer backwards (unsplitBlock):
// which block the predecessor lies in reads the same before and after
// the splice, so the inverse is exact against the spliced directory.
func (w *BlockedWeb) transferSpanStorage(n, bn *bnode, bi int, lo, hi uint64, hasHi bool, fresh replicaSet, sign int) {
	r := n.lvl.Locate(lo) // floor: the last range with key <= lo
	var pred, s1 RangeID
	if !n.lvl.IsHead(r) && n.lvl.Key(r) == lo {
		pred, s1 = n.lvl.Prev(r), r
	} else {
		pred, s1 = r, n.lvl.Next(r)
	}
	if s1 == NoRange || (hasHi && n.lvl.Key(s1) >= hi) {
		return // no member range in the span: footprint unchanged
	}
	for s := s1; s != NoRange && (!hasHi || n.lvl.Key(s) < hi); s = n.lvl.Next(s) {
		w.addBlockStorage(bn, bi, -2*sign)
		fresh.addStorage(w.net, 2*sign)
	}
	if w.blockIndex(bn, w.rangeKey(n, pred)) != bi {
		w.addBlockStorage(bn, bi, -sign)
	}
	fresh.addStorage(w.net, sign)
}

// Delete removes a key from every level on its bit path, deepest level
// first, starting from the leaf range holding key and following each
// range's hyperlink to the next level's. Blocks are not merged
// (deletions leave directory slack, as the paper amortizes).
func (w *BlockedWeb) Delete(key uint64, origin sim.HostID) (int, error) {
	op := w.net.NewOp(origin)
	defer op.Free()
	t0, err := w.queryOp(key, op)
	if err != nil {
		return op.Hops(), err
	}
	if w.root.lvl.IsHead(t0) || w.root.lvl.Key(t0) != key {
		return op.Hops(), fmt.Errorf("core: key %d not found", key)
	}
	w.resetSeen()
	path, r := w.keyPath(key, false)
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		next := n.lvl.up(r)
		bi, err := w.removeAt(n, key, r)
		if err != nil {
			return op.Hops(), err
		}
		w.chargeBlockOnce(n.base, bi, op)
		r = next
	}
	leaf := path[len(path)-1]
	if leaf.count == 0 {
		w.removeLeaf(leaf)
	}
	for _, n := range path {
		if w.underfull(&n.treeNode) {
			w.mergeSubtree(n, op)
			break
		}
	}
	w.n--
	return op.Hops(), nil
}

// removeAt unsplices range r, which must hold key, from node n's level —
// the inverse of insertAt, shared by Delete and by a failed Insert's
// unwind — and returns the index of key's block.
func (w *BlockedWeb) removeAt(n *bnode, key uint64, r RangeID) (int, error) {
	if n.lvl.IsHead(r) || !n.lvl.live(r) || n.lvl.Key(r) != key {
		return 0, fmt.Errorf("core: key %d missing from level at depth %d", key, n.depth)
	}
	bi := w.spliceStorage(n, key, n.lvl.Prev(r), n.lvl.Next(r), -1)
	_, _, _ = n.lvl.deleteKeyAt(key, r) // r holds key: cannot fail
	n.count--
	if n.base == n && n.blockSizes[bi] > 0 {
		n.blockSizes[bi]--
	}
	return bi, nil
}

// spliceStorage charges (sign 1) or discharges (sign -1) the storage of
// node n's range holding key between neighbours pred and nx, and returns
// key's block index: the range's primary copy and straddle, and the
// predecessor's boundary copy, which follows its successor — the copy
// induced by the pair (pred, nx) gives way to the one induced by (pred,
// key). One directory search resolves key's block; the neighbours'
// blocks are found by cursor. This keeps per-host storage exact (Leave
// asserts exact drains).
func (w *BlockedWeb) spliceStorage(n *bnode, key uint64, pred, nx RangeID, sign int) int {
	bn := n.base
	biKey := w.blockIndex(bn, key)
	w.addBlockStorage(bn, biKey, 2*sign)
	biNx := -1
	if nx != NoRange {
		biNx = w.blockIndexNear(bn, n.lvl.Key(nx), biKey)
		if biNx != biKey {
			w.addBlockStorage(bn, biNx, sign)
		}
	}
	biPred := w.blockIndexNear(bn, w.rangeKey(n, pred), biKey)
	if nx != NoRange && biNx != biPred {
		w.addBlockStorage(bn, biNx, -sign)
	}
	if biKey != biPred {
		w.addBlockStorage(bn, biKey, sign)
	}
	return biKey
}

// splitLeaf splits an overfull set-tree leaf into two halves, each key
// partitioned beside the leaf range holding it — the kid's hyperlink.
// The bit-partition buffers are per-web scratch, and the two kid
// structures come from the node/level pools, so a steady-state split
// allocates (at most) fractions of slab chunks.
func (w *BlockedWeb) splitLeaf(n *bnode, op *sim.Op) {
	keys, ranges := w.leafKeys[:0], w.leafRanges[:0]
	for r := n.lvl.Next(n.lvl.Head()); r != NoRange; r = n.lvl.Next(r) {
		keys, ranges = append(keys, n.lvl.Key(r)), append(ranges, r)
	}
	w.leafKeys, w.leafRanges = keys, ranges
	halves, ups := partition(w.treeConfig, n.depth, keys, ranges,
		[2][]uint64{w.halfScratch[0][:0], w.halfScratch[1][:0]},
		[2][]RangeID{w.upScratch[0][:0], w.upScratch[1][:0]})
	w.halfScratch, w.upScratch = halves, ups
	_ = split(&w.setTree, w.level, n, halves, ups) // level cannot fail
	for b, kid := range n.kids {
		for _, k := range halves[b] {
			w.sendBlock(kid.base, w.blockIndex(kid.base, k), op)
		}
	}
}

// mergeSubtree re-absorbs all descendants of n, releasing their nodes
// and levels to the pools splitLeaf draws from.
func (w *BlockedWeb) mergeSubtree(n *bnode, op *sim.Op) {
	w.merge(n, func(k *bnode) {
		k.lvl.VisitRanges(func(r RangeID) bool {
			w.chargeRangeStorage(k, r, -1)
			w.sendBlock(k.base, w.blockIndex(k.base, w.rangeKey(k, r)), op)
			return true
		})
		w.releaseNode(k)
	})
}

// Rehome migrates every block replica hosted on the departed host
// `from` onto the next live hosts in round-robin order (distinct from
// the block's surviving replicas), charging one message per moved
// storage unit to op; a replica with no distinct live target is dropped
// (replication.leaving).
func (w *BlockedWeb) Rehome(from sim.HostID, op *sim.Op) {
	retargetUnits(&w.rep, w.eachBlock, w.rep.leaving(from), op)
}

// Rebalance moves each block replica independently onto the freshly
// joined host `onto` with probability 1/LiveHosts (replication.joining)
// — the expected 1/H share of every basic node's directory a
// from-scratch build over the enlarged live set would assign it —
// charging every migration hop to op.
func (w *BlockedWeb) Rebalance(onto sim.HostID, op *sim.Op) {
	retargetUnits(&w.rep, w.eachBlock, w.rep.joining(onto), op)
}

// blockUnit is one block of one basic node, as the replica layer sees it
// (replicaUnit).
type blockUnit struct {
	w  *BlockedWeb
	bn *bnode
	bi int
}

func (u blockUnit) replicas() replicaSet { return u.w.blockReplicas(u.bn, u.bi) }
func (u blockUnit) name() blockName      { return blockName{u.bn, u.bn.blockStarts[u.bi]} }
func (u blockUnit) moved(*sim.Op)        {} // nobody dereferences a block by host

// size is the storage one replica of the block holds, summed over the
// stratum's members: 2 units (range + hyperlink) per range whose key
// lies in the block, plus, past block 0 (which holds the head
// sentinel), the boundary copy of the first such range's predecessor,
// which lies in an earlier block. It is exactly the footprint the update
// paths maintain per replica, so a migration or repair charges it
// without replaying history.
func (u blockUnit) size() int {
	w, bn, bi := u.w, u.bn, u.bi
	lo := bn.blockStarts[bi]
	hasHi := bi+1 < len(bn.blockStarts)
	var hi uint64
	if hasHi {
		hi = bn.blockStarts[bi+1]
	}
	units := 0
	for _, n := range w.stratumMembers(bn) {
		r := n.lvl.Head()
		if bi > 0 {
			if r = n.lvl.Locate(lo); n.lvl.IsHead(r) || n.lvl.Key(r) < lo {
				r = n.lvl.Next(r)
			}
		}
		held := 0
		for ; r != NoRange && (!hasHi || n.lvl.Key(r) < hi); r = n.lvl.Next(r) {
			held++
		}
		units += 2 * held
		if bi > 0 && held > 0 {
			units++
		}
	}
	return units
}

// reconcile runs an inner merkle walk over the block at key granularity:
// the routing web's updates do not record their keys, so the miss count
// bounds how many distinct positions diverged and the walk ships
// O(misses · log block) rather than the whole block.
func (u blockUnit) reconcile(m missRecord) merkleCost {
	size := u.size()
	return merkleDiff(size, spreadPositions(m.n, size))
}

// eachBlock visits every block: basic nodes in DFS order, blocks in
// directory order. Each basic node's blocks co-locate the ranges of its
// whole stratum.
func (w *BlockedWeb) eachBlock(visit func(blockUnit)) {
	w.eachNode(func(bn *bnode) {
		if bn.base == bn {
			for bi := range bn.blockHosts {
				visit(blockUnit{w, bn, bi})
			}
		}
	})
}

// Repair re-replicates every under-replicated block (repairUnits): a
// fresh replica is charged a full block copy. Blocks with no surviving
// replica are reported via a DataLossError.
func (w *BlockedWeb) Repair(op *sim.Op) error {
	var lost lossTally
	repairUnits(&w.rep, w.eachBlock, op, &lost)
	return lost.err()
}

// RestartHost reconciles host h's block replicas after a durable restart
// (reconcileUnits), returning the number of storage units re-copied.
func (w *BlockedWeb) RestartHost(h sim.HostID, op *sim.Op) int {
	return reconcileUnits(&w.rep, w.eachBlock, h, op)
}

// spreadPositions models d divergent positions spread evenly over a
// unit of n entries — the update stream while a host is down touches a
// block all over, so even spread is the faithful (and worst-case for
// the walk) placement when only the count is known.
func spreadPositions(d, n int) []int {
	if n <= 0 {
		return nil
	}
	if d > n {
		d = n
	}
	pos := make([]int, d)
	for i := range pos {
		pos[i] = i * n / d
	}
	return pos
}

// CheckInvariants verifies the set tree's links and leaf list
// (setTree.check), that every level's list is sound, child key sets
// partition their parent's, every hyperlink names the parent range
// holding the same key (the head sentinel's names the parent's head),
// counts match, block directories are ordered, and every block lives on
// a live host.
func (w *BlockedWeb) CheckInvariants() error {
	return w.check(w.checkNode)
}

// checkNode is CheckInvariants for one set node.
func (w *BlockedWeb) checkNode(n *bnode) error {
	if err := n.lvl.CheckInvariants(); err != nil {
		return fmt.Errorf("depth %d: %w", n.depth, err)
	}
	if n.lvl.Len() != n.count {
		return fmt.Errorf("depth %d: level len %d, count %d", n.depth, n.lvl.Len(), n.count)
	}
	if n.base == n {
		for i := 1; i < len(n.blockStarts); i++ {
			if n.blockStarts[i] <= n.blockStarts[i-1] && i > 1 {
				return fmt.Errorf("depth %d: block starts out of order", n.depth)
			}
		}
		if w.rep.k > 1 && len(n.blockMirrors) != len(n.blockHosts) {
			return fmt.Errorf("depth %d: %d mirror sets for %d blocks", n.depth, len(n.blockMirrors), len(n.blockHosts))
		}
		for bi := range n.blockHosts {
			if err := w.blockReplicas(n, bi).check(w.net, w.rep.k); err != nil {
				return fmt.Errorf("depth %d: block %d: %w", n.depth, bi, err)
			}
		}
	}
	if n.kids[0] == nil {
		return nil
	}
	seen := make(map[uint64]bool, n.count)
	for b := 0; b < 2; b++ {
		kid := n.kids[b].lvl
		if up := kid.up(kid.Head()); up != n.lvl.Head() {
			return fmt.Errorf("depth %d: head hyperlink is range %d, not the parent's head", n.depth+1, up)
		}
		for r := kid.Next(kid.Head()); r != NoRange; r = kid.Next(r) {
			k := kid.Key(r)
			if seen[k] {
				return fmt.Errorf("depth %d: key %d in both halves", n.depth, k)
			}
			seen[k] = true
			if up := kid.up(r); !n.lvl.live(up) || n.lvl.IsHead(up) || n.lvl.Key(up) != k {
				return fmt.Errorf("depth %d: hyperlink of key %d is range %d, not the parent range holding it", n.depth+1, k, up)
			}
		}
	}
	return nil
}
