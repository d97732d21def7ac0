package skipwebs

import (
	"fmt"

	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/trapmap"
)

// PlanarPoint is an exact integer point in the plane, |X|,|Y| <= MaxCoord.
type PlanarPoint struct {
	X, Y int64
}

// PlanarSegment is a non-vertical segment with A.X < B.X.
type PlanarSegment struct {
	A, B PlanarPoint
}

// PlanarBounds is the bounding box of a planar subdivision.
type PlanarBounds struct {
	MinX, MinY, MaxX, MaxY int64
}

// MaxPlanarCoord bounds all planar coordinates (exact arithmetic).
const MaxPlanarCoord = trapmap.MaxCoord

// Trapezoid describes the face containing a query point: its bounding
// segments (when not the box edge) and wall abscissas, in the original
// input coordinates where exact (walls fall on endpoint coordinates).
type Trapezoid struct {
	Top, Bottom       PlanarSegment
	HasTop, HasBottom bool
	LeftX, RightX     int64
	// Hops is the number of messages the query cost.
	Hops int
	// Latency is the query's modeled critical-path latency under the
	// cluster's latency model, in model units. Zero without a model and
	// zero on cache hits.
	Latency int64
}

// Planar is a skip-web over a trapezoidal map of non-crossing segments
// (Section 3.3): planar point-location in O(log n) expected messages.
// The structure is static (build + query), matching the paper's
// amortization caveat for trapezoid updates; having no writers, it
// ignores Options.WriteStripes: it is the one-stripe case of the striped
// base, whose stripe lock is never taken and whose write epoch never
// moves, so its cache epochs are churn-only.
type Planar struct {
	striped[planarWeb]
}

type planarWeb = *core.Web[*trapmap.Map, trapmap.Segment, trapmap.Point]

// NewPlanar builds a planar point-location skip-web over pairwise
// disjoint segments in general position (distinct endpoint x
// coordinates, no verticals), all strictly inside bounds.
func NewPlanar(c *Cluster, segments []PlanarSegment, bounds PlanarBounds, opts Options) (*Planar, error) {
	segs := make([]trapmap.Segment, len(segments))
	for i, s := range segments {
		segs[i] = trapmap.Segment{
			A: trapmap.Point{X: s.A.X, Y: s.A.Y},
			B: trapmap.Point{X: s.B.X, Y: s.B.Y},
		}
	}
	ops := core.TrapOps{Bounds: trapmap.Rect{
		MinX: bounds.MinX, MinY: bounds.MinY, MaxX: bounds.MaxX, MaxY: bounds.MaxY,
	}}
	p := &Planar{}
	// There is no membership query, so no negative bloom (nil hash), and
	// the trapezoidal map has no key codes to audit (nil codes).
	err := buildStriped(&p.striped, c, "planar", opts, newStripeSet(nil, 1, opts.CacheFingers), [][]trapmap.Segment{segs}, nil, nil,
		func(part []trapmap.Segment, seed uint64) (planarWeb, error) {
			return core.NewWeb[*trapmap.Map, trapmap.Segment, trapmap.Point](ops, c.network(), part,
				core.Config{Seed: seed, Replicas: opts.Replicas})
		})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Len returns the number of segments.
func (p *Planar) Len() int { return p.ws[0].Len() }

// NumFaces returns the number of trapezoids in the ground map (3n+1).
func (p *Planar) NumFaces() int { return p.ws[0].GroundStructure().NumTraps() }

// Locate routes a planar point-location query from the given host in
// O(log n) expected messages (Theorem 2 via Lemma 5): one expected-O(1)
// conflict-list hop per level of the hierarchy. The descent is
// allocation-free in steady state (pooled accounting Op, counted-loop
// trapezoid enumeration); only the returned Trapezoid value is
// materialized per call.
func (p *Planar) Locate(q PlanarPoint, origin HostID) (Trapezoid, error) {
	ck := cacheKey{op: opPlanarLocate, code: uint64(q.X), code2: uint64(q.Y)}
	hit, sum, ok := probe[Trapezoid](p.rc, origin, ck)
	if ok {
		return hit, nil
	}
	w := p.ws[0]
	res, err := w.Query(trapmap.Point{X: q.X, Y: q.Y}, origin)
	if err != nil {
		return Trapezoid{}, fmt.Errorf("skipwebs: %w", err)
	}
	g := w.GroundStructure()
	t := g.Trap(trapmap.TrapID(res.Range))
	out := Trapezoid{
		HasTop:    t.HasTop,
		HasBottom: t.HasBottom,
		LeftX:     t.L / trapmap.Scale,
		RightX:    t.R / trapmap.Scale,
	}
	if t.HasTop {
		out.Top = PlanarSegment{
			A: PlanarPoint{X: t.Top.A.X / trapmap.Scale, Y: t.Top.A.Y / trapmap.Scale},
			B: PlanarPoint{X: t.Top.B.X / trapmap.Scale, Y: t.Top.B.Y / trapmap.Scale},
		}
	}
	if t.HasBottom {
		out.Bottom = PlanarSegment{
			A: PlanarPoint{X: t.Bottom.A.X / trapmap.Scale, Y: t.Bottom.A.Y / trapmap.Scale},
			B: PlanarPoint{X: t.Bottom.B.X / trapmap.Scale, Y: t.Bottom.B.Y / trapmap.Scale},
		}
	}
	// Memoized before the cost goes in: a hit is free.
	memo(p.rc, origin, ck, out, 0, 0, sum)
	out.Hops, out.Latency = res.Hops, res.Latency
	return out, nil
}

// LocateBatch answers one planar point-location query per element of qs
// concurrently (see the batch engine notes in batch.go). Results are in
// input order. The structure is static, so there is no update batch.
func (p *Planar) LocateBatch(qs []PlanarPoint, origins []HostID) ([]Trapezoid, error) {
	return runReadBatch(p.c, qs, origins, p.Locate)
}

// CheckConsistent verifies the planar web's invariants: every trapezoid
// on a live host, conflict-list hyperlinks matching recomputation, and
// per-level counts that add up. Cost: O(n log n) local work, no
// messages.
func (p *Planar) CheckConsistent() error { return p.check() }
