package main

import (
	"fmt"

	skipwebs "github.com/skipwebs/skipwebs"
	"github.com/skipwebs/skipwebs/internal/experiments"
	"github.com/skipwebs/skipwebs/internal/trapmap"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// sortedSet is the slice of the public API the modes use of the three
// key-addressed structures.
type sortedSet interface {
	Floor(q uint64, origin skipwebs.HostID) (skipwebs.FloorResult, error)
	Contains(key uint64, origin skipwebs.HostID) (bool, int, error)
	Insert(key uint64, origin skipwebs.HostID) (int, error)
	Delete(key uint64, origin skipwebs.HostID) (int, error)
	FloorBatch(qs []uint64, origins []skipwebs.HostID) ([]skipwebs.FloorResult, error)
}

// Indexes into sortedSets, and the first three structures of a six.
const (
	oneDim = iota
	blocked
	bucketed
)

// sortedSets is the constructor table of the key-addressed structures.
// cap is the largest key count the structure builds at in a scale sweep:
// OneDim stores every key at O(log n) levels, so its memory is n log n
// units; Blocked divides the node count by the block size M but keeps
// every key resident; Bucketed keeps one routing entry per bucket (~per
// host) and packs keys into sorted arrays, so it is the one that reaches
// 10M keys.
var sortedSets = []struct {
	name  string
	cap   int
	build func(c *skipwebs.Cluster, keys []uint64, o skipwebs.Options) (sortedSet, error)
}{
	{"onedim", 1 << 20, func(c *skipwebs.Cluster, keys []uint64, o skipwebs.Options) (sortedSet, error) {
		return skipwebs.NewOneDim(c, keys, o)
	}},
	{"blocked", 1 << 21, func(c *skipwebs.Cluster, keys []uint64, o skipwebs.Options) (sortedSet, error) {
		return skipwebs.NewBlocked(c, keys, o)
	}},
	{"bucketed", 1 << 24, func(c *skipwebs.Cluster, keys []uint64, o skipwebs.Options) (sortedSet, error) {
		return skipwebs.NewBucketed(c, keys, o)
	}},
}

// sixNames names the structures of a six in query order.
var sixNames = [6]string{"onedim", "blocked", "bucketed", "points", "strings", "planar"}

// sizes says how much of each kind of data a mode's fixture holds.
type sizes struct {
	keys    int   // keys stored in each sorted set
	extra   int   // further distinct keys drawn with them, held back for inserts
	strided bool  // draw the keys with scaleKeys (no dedup map) instead of experiments.Keys
	items   int   // points, and strings
	strMin  int   // shortest string
	segCap  int   // segments = min(keys/8, segCap)
	span    int64 // the planar map covers [-span, span] on both axes
}

// dataset is the seeded data every six-structure fixture is built over:
// keys, then points, then strings, then segments, drawn from one rng in
// that order.
type dataset struct {
	keys, extra []uint64
	pts         []skipwebs.Point
	strKeys     []string
	segs        []skipwebs.PlanarSegment
	span        int64
}

func newDataset(seed uint64, sz sizes) *dataset {
	rng := xrand.New(seed)
	ds := &dataset{span: sz.span}
	if sz.strided {
		ds.keys = scaleKeys(rng, sz.keys+sz.extra)
	} else {
		ds.keys = experiments.Keys(rng, sz.keys+sz.extra, 1<<40)
	}
	ds.keys, ds.extra = ds.keys[:sz.keys], ds.keys[sz.keys:]
	raw := experiments.UniformPoints(rng, 2, sz.items, 1<<30)
	ds.pts = make([]skipwebs.Point, len(raw))
	for i, p := range raw {
		ds.pts[i] = skipwebs.Point(p)
	}
	ds.strKeys = experiments.UniformStrings(rng, sz.items, "acgt", sz.strMin, 24)
	ds.segs = planarSegments(rng, min(sz.keys/8, sz.segCap), sz.span)
	return ds
}

// scaleKeys generates n distinct keys in [0, 1<<40) in O(1) extra
// memory: key i is a uniform draw from its own bucket of a partition of
// the key space into n equal strides, so keys are distinct by
// construction (no dedup map — at 10M keys the map the sim-scale
// generator uses costs more memory than the keys). The output is
// ascending, which matches the sorted bulk-construction path.
func scaleKeys(rng *xrand.Rand, n int) []uint64 {
	stride := (uint64(1) << 40) / uint64(n)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)*stride + rng.Uint64n(stride)
	}
	return keys
}

// planarSegments draws n disjoint segments inside [-span, span]^2.
func planarSegments(rng *xrand.Rand, n int, span int64) []skipwebs.PlanarSegment {
	raw := experiments.DisjointSegments(rng, n, trapmap.Rect{MinX: -span, MinY: -span, MaxX: span, MaxY: span})
	segs := make([]skipwebs.PlanarSegment, len(raw))
	for i, s := range raw {
		segs[i] = skipwebs.PlanarSegment{
			A: skipwebs.PlanarPoint{X: s.A.X, Y: s.A.Y},
			B: skipwebs.PlanarPoint{X: s.B.X, Y: s.B.Y},
		}
	}
	return segs
}

func planarBounds(span int64) skipwebs.PlanarBounds {
	return skipwebs.PlanarBounds{MinX: -span, MinY: -span, MaxX: span, MaxY: span}
}

// planarPoint draws a query point strictly inside the planar bounds.
func planarPoint(rng *xrand.Rand, span int64) skipwebs.PlanarPoint {
	return skipwebs.PlanarPoint{
		X: int64(rng.Uint64n(uint64(2*span-2))) - (span - 1),
		Y: int64(rng.Uint64n(uint64(2*span-2))) - (span - 1),
	}
}

// six is a cluster carrying (up to) all six structures over one dataset,
// built deterministically so two builds from the same arguments answer
// identically while both are intact.
type six struct {
	c *skipwebs.Cluster
	*dataset
	sorted [3]sortedSet
	points *skipwebs.Points
	strs   *skipwebs.Strings
	planar *skipwebs.Planar
}

// add builds structure s (an index into sixNames) on the fixture's
// cluster.
func (f *six) add(s int, o skipwebs.Options) (err error) {
	switch s {
	case oneDim, blocked, bucketed:
		f.sorted[s], err = sortedSets[s].build(f.c, f.keys, o)
	case 3:
		f.points, err = skipwebs.NewPoints(f.c, 2, f.pts, o)
	case 4:
		f.strs, err = skipwebs.NewStrings(f.c, f.strKeys, o)
	case 5:
		f.planar, err = skipwebs.NewPlanar(f.c, f.segs, planarBounds(f.span), o)
	}
	return err
}

// buildSix builds all six structures on c, structure s with opts(s)
// (see seeded).
func buildSix(c *skipwebs.Cluster, ds *dataset, opts func(s int) skipwebs.Options) (*six, error) {
	f := &six{c: c, dataset: ds}
	for s := range sixNames {
		if err := f.add(s, opts(s)); err != nil {
			return nil, fmt.Errorf("build %s: %w", sixNames[s], err)
		}
	}
	return f, nil
}

// draw supplies the input of one query, per kind of structure. member
// asks for a membership probe (Contains) of the returned item instead of
// the structure's search query.
type draw struct {
	key    func() (k uint64, member bool)
	point  func() (p skipwebs.Point, member bool)
	str    func() (s string, member bool)
	planar func() skipwebs.PlanarPoint
}

// uniform draws every query input uniformly from rng: random keys and
// points, stored strings.
func (ds *dataset) uniform(rng *xrand.Rand) *draw {
	return &draw{
		key: func() (uint64, bool) { return rng.Uint64n(1 << 40), false },
		point: func() (skipwebs.Point, bool) {
			return skipwebs.Point{uint32(rng.Uint64n(1 << 30)), uint32(rng.Uint64n(1 << 30))}, false
		},
		str:    func() (string, bool) { return ds.strKeys[rng.Intn(len(ds.strKeys))], false },
		planar: func() skipwebs.PlanarPoint { return planarPoint(rng, ds.span) },
	}
}

// skewed draws Zipf-weighted stored items, with an absent fraction of
// the sorted-set queries replaced by uniform (adversarial absent) keys.
func (ds *dataset) skewed(rng *xrand.Rand, zipf *xrand.Zipf, absent float64) *draw {
	return &draw{
		key: func() (uint64, bool) {
			if rng.Float64() < absent {
				return rng.Uint64n(1 << 40), false
			}
			return ds.keys[zipf.Next()], false
		},
		point:  func() (skipwebs.Point, bool) { return ds.pts[zipf.Next()%len(ds.pts)], false },
		str:    func() (string, bool) { return ds.strKeys[zipf.Next()%len(ds.strKeys)], false },
		planar: func() skipwebs.PlanarPoint { return planarPoint(rng, ds.span) },
	}
}

// answer is one query's comparable outcome: equal answers mean every
// field the structure reported is equal.
type answer struct {
	a, b      uint64
	s         string
	ok, found bool
}

// query runs workload query i — structure i mod 6, input from d — from
// origin, and returns its answer, its hops and its modeled latency.
func (f *six) query(i int, origin skipwebs.HostID, d *draw) (ans answer, hops int, latency int64, err error) {
	switch s := i % 6; s {
	case oneDim, blocked, bucketed:
		k, member := d.key()
		if member {
			ans.found, hops, err = f.sorted[s].Contains(k, origin)
			return ans, hops, 0, err
		}
		r, err := f.sorted[s].Floor(k, origin)
		return answer{a: r.Key, found: r.Found}, r.Hops, r.Latency, err
	case 3:
		p, member := d.point()
		if member {
			ans.found, hops, err = f.points.Contains(p, origin)
			return ans, hops, 0, err
		}
		r, err := f.points.Locate(p, origin)
		return answer{a: r.CellPrefix, b: uint64(r.CellBits), ok: r.Leaf}, r.Hops, r.Latency, err
	case 4:
		q, member := d.str()
		if member {
			ans.found, hops, err = f.strs.Contains(q, origin)
			return ans, hops, 0, err
		}
		r, err := f.strs.Search(q, origin)
		return answer{s: r.Locus, ok: r.IsKey, found: r.Exact}, r.Hops, r.Latency, err
	default:
		r, err := f.planar.Locate(d.planar(), origin)
		return answer{a: uint64(r.LeftX), b: uint64(r.RightX), ok: r.HasTop, found: r.HasBottom}, r.Hops, r.Latency, err
	}
}

// sweep is the zero-lost-keys check: every stored key, point and string
// must still be reachable by a routed query.
func (f *six) sweep() error {
	for i, k := range f.keys {
		for s, w := range f.sorted {
			if found, _, err := w.Contains(k, f.c.HostAt(i)); err != nil || !found {
				return fmt.Errorf("%s lost key %d: %v", sixNames[s], k, err)
			}
		}
	}
	for i, p := range f.pts {
		if found, _, err := f.points.Contains(p, f.c.HostAt(i)); err != nil || !found {
			return fmt.Errorf("points lost %v: %v", p, err)
		}
	}
	for i, s := range f.strKeys {
		if found, _, err := f.strs.Contains(s, f.c.HostAt(i)); err != nil || !found {
			return fmt.Errorf("strings lost %q: %v", s, err)
		}
	}
	return nil
}
