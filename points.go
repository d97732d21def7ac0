package skipwebs

import (
	"fmt"
	"sync"

	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/quadtree"
)

// Point is a d-dimensional point with non-negative integer coordinates.
// Coordinates must be below 2^(62/d) per dimension (2^31 for d = 2, 2^20
// for d = 3).
type Point []uint32

// PointLocation is the answer to a point-location query in the quadtree
// subdivision: the deepest cell of the compressed quadtree containing the
// query point, per Section 3.1. Point-location answers support
// approximate nearest-neighbor and range queries (Eppstein et al.).
type PointLocation struct {
	// Leaf is true when the cell stores exactly one data point.
	Leaf bool
	// LeafPoint is that point when Leaf.
	LeafPoint Point
	// CellPrefix and CellBits identify the dyadic cell (a Morton-code
	// prefix of CellBits bits).
	CellPrefix uint64
	CellBits   int
	// Hops is the number of messages the query cost.
	Hops int
	// Latency is the query's modeled critical-path latency under the
	// cluster's latency model, in model units. Zero without a model and
	// zero on cache hits.
	Latency int64
}

// Points is a skip-web over a d-dimensional point set, built on
// compressed quadtrees (d = 2) or octrees (d >= 3): O(log n) expected
// messages per point-location query even when the underlying tree has
// depth Θ(n).
type Points struct {
	ops *core.QuadOps
	striped[pointWeb]
}

type pointWeb = *core.Web[*quadtree.Tree, quadtree.Point, uint64]

// NewPoints builds a point-set skip-web of the given dimension
// (2 <= d <= 6) over distinct points. With Options.WriteStripes > 1 it
// builds one independent sub-web per Morton-code stripe (see the
// Options.WriteStripes doc): the Morton code is the same locational key
// the quadtree itself orders by, so each stripe is a contiguous band of
// the space-filling curve.
func NewPoints(c *Cluster, d int, points []Point, opts Options) (*Points, error) {
	if d < 2 || d > 6 {
		return nil, fmt.Errorf("skipwebs: dimension %d out of range [2, 6]", d)
	}
	// p.ops serves only Code, which is pure; each stripe web owns a
	// private QuadOps, because the adapter reuses Change buffers across
	// updates, which concurrent stripe writers must not share.
	p := &Points{ops: core.NewQuadOps(d)}
	items := make([]quadtree.Point, len(points))
	for i, pt := range points {
		items[i] = quadtree.Point(pt)
	}
	code := func(pt quadtree.Point) uint64 { return p.stripeCode(Point(pt)) }
	st, parts := splitByStripe(items, opts.WriteStripes, opts.CacheFingers, code, nil)
	err := buildStriped(&p.striped, c, "points", opts, st, parts,
		func(pt quadtree.Point) uint64 { return hashKey64(code(pt)) },
		func(w pointWeb) []uint64 {
			var codes []uint64
			g := w.GroundStructure()
			g.VisitNodes(func(id quadtree.NodeID) bool {
				if g.IsLeaf(id) {
					codes = append(codes, code(g.PointAt(id)))
				}
				return true
			})
			return codes
		},
		func(part []quadtree.Point, seed uint64) (pointWeb, error) {
			return core.NewWeb[*quadtree.Tree, quadtree.Point, uint64](core.NewQuadOps(d), c.network(), part,
				core.Config{Seed: seed, Replicas: opts.Replicas})
		})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// stripeCode maps a point to its stripe code (its Morton code). An
// out-of-range point maps to stripe 0, whose engine then reports the
// same validation error the unsharded path would.
func (p *Points) stripeCode(q Point) uint64 {
	code, _ := p.ops.Code(quadtree.Point(q)) // 0 on error
	return code
}

// Len returns the number of stored points.
func (p *Points) Len() int { return p.size() }

// TreeDepth returns the depth of the underlying ground quadtree (the
// deepest stripe's, under write striping; may be Θ(n) for clustered
// inputs — queries stay O(log n) regardless).
func (p *Points) TreeDepth() int {
	depth := 0
	p.each(func(w pointWeb) { depth = max(depth, w.GroundStructure().Depth()) })
	return depth
}

// Locate routes a point-location query from the given host in O(log n)
// expected messages (Theorem 2 via Lemma 3), independent of the tree
// depth — the skip-web's advantage over walking the quadtree itself.
// Under write striping the query descends the stripe owning the point's
// Morton code; the located cell is that stripe's deepest cell containing
// the query, which is the subdivision cell of the stripe's curve band.
// An empty stripe has no cell to route to: Locate reports the universal
// cell (CellBits 0) at no message cost.
func (p *Points) Locate(q Point, origin HostID) (PointLocation, error) {
	code, err := p.ops.Code(quadtree.Point(q))
	if err != nil {
		return PointLocation{}, fmt.Errorf("skipwebs: %w", err)
	}
	return p.locateCode(code, origin)
}

// locateCode is Locate for a point already reduced to its (valid) Morton
// code, which is injective over valid points and therefore the exact
// cache identity of the query.
func (p *Points) locateCode(code uint64, origin HostID) (PointLocation, error) {
	ck := cacheKey{op: opLocate, code: code}
	hit, sum, ok := probe[PointLocation](p.rc, origin, ck)
	if ok {
		return hit, nil
	}
	i := p.st.of(code)
	p.st.rlock(i)
	defer p.st.runlock(i)
	res, err := p.ws[i].Query(code, origin)
	if err != nil {
		return PointLocation{}, fmt.Errorf("skipwebs: %w", err)
	}
	g := p.ws[i].GroundStructure()
	var loc PointLocation
	// An empty stripe has no cell; its subdivision is the whole space,
	// the universal cell (prefix 0 of 0 bits), which the zero loc reports.
	var cell quadtree.Cell
	if res.Range != core.NoRange {
		id := quadtree.NodeID(res.Range)
		cell = g.CellOf(id)
		loc.CellPrefix, loc.CellBits = cell.Prefix, cell.PLen
		if g.IsLeaf(id) {
			loc.Leaf = true
			loc.LeafPoint = Point(g.PointAt(id))
		}
	}
	// Only a point inside the located cell can split it, empty it or hang
	// a deeper cell under it on the query's path (such a cell lies inside
	// this one and contains the new point), so the answer depends on the
	// cell's Morton interval alone. Memoized before the cost goes in: a
	// hit is free.
	free := uint(g.Dim()*g.CoordBits() - cell.PLen) // code bits below the cell's prefix
	blo, bhi, e := p.epochs(i, cell.Prefix<<free, cell.Prefix<<free|(1<<free-1))
	memo(p.rc, origin, ck, loc, blo, bhi, sum+e)
	loc.Hops, loc.Latency = res.Hops, res.Latency
	return loc, nil
}

// Contains reports whether the exact point is stored — O(log n)
// expected messages, the same bound as Locate. Exact membership needs
// only the stripe owning the point's Morton code.
func (p *Points) Contains(q Point, origin HostID) (bool, int, error) {
	found, c, err := p.containsCost(q, origin)
	return found, c.Hops, err
}

// containsCost is Contains returning the full hop/latency cost pair —
// the variant ContainsBatch surfaces per-query latency through.
func (p *Points) containsCost(q Point, origin HostID) (bool, core.Cost, error) {
	code, err := p.ops.Code(quadtree.Point(q))
	if err != nil {
		return false, core.Cost{}, fmt.Errorf("skipwebs: %w", err)
	}
	if p.nb != nil && p.nb.definitelyAbsent(origin, p.st.of(code), hashKey64(code)) {
		return false, core.Cost{}, nil
	}
	loc, err := p.locateCode(code, origin)
	if err != nil {
		return false, core.Cost{}, err
	}
	found := loc.Leaf && len(loc.LeafPoint) == len(q)
	if found {
		for i := range q {
			if loc.LeafPoint[i] != q[i] {
				found = false
				break
			}
		}
	}
	if p.nb != nil && !found {
		p.nb.falsePositive(origin)
	}
	return found, core.Cost{Hops: loc.Hops, Latency: loc.Latency}, nil
}

// Nearest returns the exact nearest stored point to q under squared
// Euclidean distance. It first routes a distributed point-location query
// (the skip-web part), then refines with a best-first search over the
// ground tree, charging one extra hop per tree node expanded — the
// standard way point location supports neighbor queries (Section 3.1).
// Under write striping the refinement starts in the stripe owning the
// query's Morton code — a curve band whose cells are near q, seeding a
// tight distance bound — then prunes the other stripes' trees against
// that shared bound, so the extra expansions stay close to the
// single-tree search's.
func (p *Points) Nearest(q Point, origin HostID) (Point, int, error) {
	pt, c, err := p.nearestCost(q, origin)
	return pt, c.Hops, err
}

// nearestCost is Nearest returning the full hop/latency cost pair — the
// variant NearestBatch surfaces per-query latency through. Latency
// covers the routed point-location descent; the best-first refinement's
// expansions are charged as hops only (the search walks ground trees
// without tracking per-node host placement).
func (p *Points) nearestCost(q Point, origin HostID) (Point, core.Cost, error) {
	code, err := p.ops.Code(quadtree.Point(q))
	if err != nil {
		return nil, core.Cost{}, fmt.Errorf("skipwebs: %w", err)
	}
	ck := cacheKey{op: opNearest, code: code}
	hit, sum, ok := probe[Point](p.rc, origin, ck)
	if ok {
		return hit, core.Cost{}, nil
	}
	loc, err := p.locateCode(code, origin)
	if err != nil {
		return nil, core.Cost{}, err
	}
	own := p.st.of(code)
	var best quadtree.Point
	bestDist := ^uint64(0)
	extra := 0
	bhi := 0
	search := func(i int) {
		p.st.rlock(i)
		defer p.st.runlock(i)
		_, b, e := p.epochs(i, 0, ^uint64(0))
		sum += e
		bhi = max(bhi, b)
		g := p.ws[i].GroundStructure()
		if g.Len() == 0 {
			return
		}
		pt, d, exp := nearestInTree(g, quadtree.Point(q), bestDist)
		extra += exp
		if pt != nil && d < bestDist {
			best, bestDist = pt, d
		}
	}
	search(own)
	for i := range p.ws {
		if i != own {
			search(i)
		}
	}
	if best == nil {
		return nil, core.Cost{Hops: loc.Hops + extra, Latency: loc.Latency},
			fmt.Errorf("skipwebs: empty point set")
	}
	// The refinement read every stripe, so the epoch spans every bucket.
	memo(p.rc, origin, ck, Point(best), 0, bhi, sum)
	return Point(best), core.Cost{Hops: loc.Hops + extra, Latency: loc.Latency}, nil
}

// nearestItem is one frontier entry of the best-first search.
type nearestItem struct {
	id   quadtree.NodeID
	dist uint64
}

// nearestHeapPool recycles frontier buffers across Nearest calls (and
// across the concurrent NearestBatch workers), so the refinement search
// does not allocate a heap per query.
var nearestHeapPool = sync.Pool{New: func() any { return new([]nearestItem) }}

// nearestInTree is a best-first search with cell distance pruning. It
// returns the best point strictly closer than bound (nil when the tree
// holds none), its distance, and the number of nodes expanded. Pass
// ^uint64(0) to search unbounded; a striped Nearest threads the running
// best distance through as the bound so later trees prune early.
func nearestInTree(g *quadtree.Tree, q quadtree.Point, bound uint64) (quadtree.Point, uint64, int) {
	type item = nearestItem
	var bestPt quadtree.Point
	bestDist := bound
	expanded := 0
	heapBuf := nearestHeapPool.Get().(*[]nearestItem)
	heap := (*heapBuf)[:0]
	defer func() {
		*heapBuf = heap[:0]
		nearestHeapPool.Put(heapBuf)
	}()
	push := func(it item) {
		heap = append(heap, it)
		for i := len(heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if heap[parent].dist <= heap[i].dist {
				break
			}
			heap[parent], heap[i] = heap[i], heap[parent]
			i = parent
		}
	}
	pop := func() item {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && heap[l].dist < heap[small].dist {
				small = l
			}
			if r < len(heap) && heap[r].dist < heap[small].dist {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}
	push(item{id: g.Root(), dist: cellDist(g, g.Root(), q)})
	for len(heap) > 0 {
		it := pop()
		if it.dist >= bestDist {
			break
		}
		expanded++
		if g.IsLeaf(it.id) {
			d := pointDist(g.PointAt(it.id), q)
			if d < bestDist {
				bestDist = d
				bestPt = g.PointAt(it.id)
			}
			continue
		}
		for _, c := range g.Children(it.id) {
			if d := cellDist(g, c, q); d < bestDist {
				push(item{id: c, dist: d})
			}
		}
	}
	return bestPt, bestDist, expanded
}

// cellDist is the squared distance from q to node id's cell.
func cellDist(g *quadtree.Tree, id quadtree.NodeID, q quadtree.Point) uint64 {
	cell := g.CellOf(id)
	d := g.Dim()
	k := g.CoordBits()
	side := uint32(1) << uint(k-cell.PLen/d)
	// Decode the cell's corner from the Morton prefix. Dimension is at
	// most 6, so a fixed-size array keeps this allocation-free.
	var cornerBuf [6]uint32
	corner := cornerBuf[:d]
	for b := 0; b < cell.PLen; b++ {
		dim := b % d
		bit := (cell.Prefix >> uint(cell.PLen-1-b)) & 1
		corner[dim] = corner[dim]<<1 | uint32(bit)
	}
	for i := 0; i < d; i++ {
		corner[i] <<= uint(k - cell.PLen/d)
	}
	var sum uint64
	for i := 0; i < d; i++ {
		lo, hi := corner[i], corner[i]+side-1
		var diff uint64
		switch {
		case q[i] < lo:
			diff = uint64(lo - q[i])
		case q[i] > hi:
			diff = uint64(q[i] - hi)
		}
		sum += diff * diff
	}
	return sum
}

func pointDist(a, b quadtree.Point) uint64 {
	var sum uint64
	for i := range a {
		var diff uint64
		if a[i] > b[i] {
			diff = uint64(a[i] - b[i])
		} else {
			diff = uint64(b[i] - a[i])
		}
		sum += diff * diff
	}
	return sum
}

// Insert adds a point, returning the update's message cost — O(log n)
// expected messages (Section 4): a routed location plus an
// O(1)-message cell split per level of the point's bit path. The update
// holds only its stripe's writer lock, so inserts into different Morton
// bands run concurrently.
func (p *Points) Insert(q Point, origin HostID) (int, error) {
	// An invalid point (code 0 with an error) takes stripe 0 and leaves
	// the bloom alone; the engine rejects it.
	code, cerr := p.ops.Code(quadtree.Point(q))
	i := p.st.of(code)
	p.st.wlock(i)
	defer p.st.wunlock(i)
	p.st.bump(i, code)
	if p.nb != nil && cerr == nil {
		p.nb.add(i, hashKey64(code))
	}
	return wrapHops(p.ws[i].Insert(quadtree.Point(q), origin))
}

// Delete removes a point, returning the update's message cost — O(log
// n) expected messages (Section 4), pruning emptied cells level by
// level. The update holds only its stripe's writer lock.
func (p *Points) Delete(q Point, origin HostID) (int, error) {
	code := p.stripeCode(q)
	i := p.st.of(code)
	p.st.wlock(i)
	defer p.st.wunlock(i)
	p.st.bump(i, code)
	return wrapHops(p.ws[i].Delete(quadtree.Point(q), origin))
}

// NearestResult is one answer of a nearest-neighbor batch.
type NearestResult struct {
	// Point is the nearest stored point under squared Euclidean distance.
	Point Point
	// Hops is the number of messages the query cost.
	Hops int
	// Latency is the modeled critical-path latency of the routed
	// point-location descent, in model units (refinement expansions are
	// hop-only; see Nearest). Zero without a model and zero on cache hits.
	Latency int64
}

// LocateBatch answers one point-location query per element of qs
// concurrently (see the batch engine notes in batch.go). Results are in
// input order.
func (p *Points) LocateBatch(qs []Point, origins []HostID) ([]PointLocation, error) {
	return runReadBatch(p.c, qs, origins, p.Locate)
}

// ContainsBatch answers one exact-membership query per point concurrently.
func (p *Points) ContainsBatch(qs []Point, origins []HostID) ([]ContainsResult, error) {
	return runReadBatch(p.c, qs, origins, func(q Point, origin HostID) (ContainsResult, error) {
		ok, c, err := p.containsCost(q, origin)
		return ContainsResult{Found: ok, Hops: c.Hops, Latency: c.Latency}, err
	})
}

// NearestBatch answers one exact nearest-neighbor query per point
// concurrently.
func (p *Points) NearestBatch(qs []Point, origins []HostID) ([]NearestResult, error) {
	return runReadBatch(p.c, qs, origins, func(q Point, origin HostID) (NearestResult, error) {
		pt, c, err := p.nearestCost(q, origin)
		return NearestResult{Point: pt, Hops: c.Hops, Latency: c.Latency}, err
	})
}

// InsertBatch adds the points — one parallel writer per Morton-code
// stripe, strict input order within each stripe — returning each
// update's message cost in input order.
func (p *Points) InsertBatch(qs []Point, origins []HostID) ([]int, error) {
	return runWriteBatch(p.c, qs, origins, p.st, p.stripeCode, p.Insert)
}

// DeleteBatch removes the points — one parallel writer per Morton-code
// stripe, strict input order within each stripe — returning each
// update's message cost in input order.
func (p *Points) DeleteBatch(qs []Point, origins []HostID) ([]int, error) {
	return runWriteBatch(p.c, qs, origins, p.st, p.stripeCode, p.Delete)
}

// CheckConsistent verifies the point web's invariants: every cell on a
// live host, hyperlinks matching recomputation, and per-level counts
// that add up, and — under striping — every point stored in the stripe
// its Morton code routes to. Cost: O(n log n) local work, no messages.
func (p *Points) CheckConsistent() error { return p.check() }
