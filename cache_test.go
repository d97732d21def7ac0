package skipwebs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"

	"github.com/skipwebs/skipwebs/internal/experiments"
	"github.com/skipwebs/skipwebs/internal/trapmap"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// The read-path cache parity suite. Every test builds TWIN fixtures —
// one cluster with Options.CacheFingers + Options.NegativeBloom, one
// identical cluster without — and replays the same deterministic
// workload against both. The control is the oracle: the cached
// structure must return the identical answer on every operation while
// charging at most the control's messages, and strictly fewer in
// aggregate once the workload repeats queries.

// cachedOpts/controlOpts are the twin option sets: identical except for
// the two cache knobs, so placement and routing are bit-identical.
func cachedOpts(seed uint64) Options {
	return Options{Seed: seed, WriteStripes: 4, CacheFingers: true, NegativeBloom: true}
}

func controlOpts(seed uint64) Options {
	return Options{Seed: seed, WriteStripes: 4}
}

// floorSet is the Floor/Contains/Insert/Delete surface OneDim, Blocked,
// and Bucketed share, letting one parity loop cover all three.
type floorSet interface {
	Floor(q uint64, origin HostID) (FloorResult, error)
	Contains(key uint64, origin HostID) (bool, int, error)
	Insert(key uint64, origin HostID) (int, error)
	Delete(key uint64, origin HostID) (int, error)
	FloorBatch(qs []uint64, origins []HostID) ([]FloorResult, error)
}

// TestCacheParityFloorStructures replays a skewed mixed workload —
// Zipf floor queries, absent-key membership floods, interleaved
// inserts and deletes, and a churn event — against cached and control
// twins of OneDim, Blocked, and Bucketed.
func TestCacheParityFloorStructures(t *testing.T) {
	builders := []struct {
		name  string
		build func(c *Cluster, keys []uint64, o Options) (floorSet, error)
	}{
		{"onedim", func(c *Cluster, keys []uint64, o Options) (floorSet, error) { return NewOneDim(c, keys, o) }},
		{"blocked", func(c *Cluster, keys []uint64, o Options) (floorSet, error) { return NewBlocked(c, keys, o) }},
		{"bucketed", func(c *Cluster, keys []uint64, o Options) (floorSet, error) { return NewBucketed(c, keys, o) }},
	}
	for _, bb := range builders {
		bb := bb
		t.Run(bb.name, func(t *testing.T) {
			const hosts, nkeys, nops = 24, 800, 3000
			rng := xrand.New(11)
			keys := distinctKeys(rng, nkeys+200)
			build, extra := keys[:nkeys], keys[nkeys:]
			absent := xrand.AbsentKeys(11, keys, 128, 1<<40)

			cc, ctl := NewCluster(hosts), NewCluster(hosts)
			cached, err := bb.build(cc, build, cachedOpts(7))
			if err != nil {
				t.Fatal(err)
			}
			control, err := bb.build(ctl, build, controlOpts(7))
			if err != nil {
				t.Fatal(err)
			}

			zipf := xrand.NewZipf(xrand.New(xrand.Substream(11, 1)), 1.1, nkeys)
			pick := xrand.New(xrand.Substream(11, 2))
			sumCached, sumControl := 0, 0
			nextExtra, inFlight := 0, []uint64{}
			for op := 0; op < nops; op++ {
				origin := HostID(op % hosts)
				switch r := pick.Intn(100); {
				case r < 60: // skewed floor on a present key
					q := build[zipf.Next()]
					a, err1 := cached.Floor(q, origin)
					b, err2 := control.Floor(q, origin)
					if err1 != nil || err2 != nil {
						t.Fatalf("op %d floor errs: %v / %v", op, err1, err2)
					}
					if a.Key != b.Key || a.Found != b.Found {
						t.Fatalf("op %d Floor(%d) diverged: cached %+v control %+v", op, q, a, b)
					}
					if a.Hops > b.Hops {
						t.Fatalf("op %d Floor(%d): cached %d hops > control %d", op, q, a.Hops, b.Hops)
					}
					sumCached += a.Hops
					sumControl += b.Hops
				case r < 80: // absent-key membership flood
					q := absent[pick.Intn(len(absent))]
					af, ah, err1 := cached.Contains(q, origin)
					bf, bh, err2 := control.Contains(q, origin)
					if err1 != nil || err2 != nil {
						t.Fatalf("op %d contains errs: %v / %v", op, err1, err2)
					}
					if af != bf {
						t.Fatalf("op %d Contains(absent %d) diverged: %v vs %v", op, q, af, bf)
					}
					if ah > bh {
						t.Fatalf("op %d Contains(%d): cached %d hops > control %d", op, q, ah, bh)
					}
					sumCached += ah
					sumControl += bh
				case r < 90: // present-key membership
					q := build[zipf.Next()]
					af, ah, err1 := cached.Contains(q, origin)
					bf, bh, err2 := control.Contains(q, origin)
					if err1 != nil || err2 != nil || af != bf || ah > bh {
						t.Fatalf("op %d Contains(present %d): %v/%d/%v vs %v/%d/%v",
							op, q, af, ah, err1, bf, bh, err2)
					}
					sumCached += ah
					sumControl += bh
				case r < 96 && nextExtra < len(extra): // insert a fresh key
					k := extra[nextExtra]
					nextExtra++
					inFlight = append(inFlight, k)
					if _, err := cached.Insert(k, origin); err != nil {
						t.Fatal(err)
					}
					if _, err := control.Insert(k, origin); err != nil {
						t.Fatal(err)
					}
				default: // delete a previously inserted key
					if len(inFlight) == 0 {
						continue
					}
					k := inFlight[len(inFlight)-1]
					inFlight = inFlight[:len(inFlight)-1]
					if _, err := cached.Delete(k, origin); err != nil {
						t.Fatal(err)
					}
					if _, err := control.Delete(k, origin); err != nil {
						t.Fatal(err)
					}
				}
				if op == nops/2 {
					// Identical churn on both twins: the control stays an
					// exact oracle, and the cached side must invalidate.
					cc.Join()
					ctl.Join()
					if err := cc.Leave(cc.HostAt(3)); err != nil {
						t.Fatal(err)
					}
					if err := ctl.Leave(ctl.HostAt(3)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if sumCached >= sumControl {
				t.Fatalf("no aggregate reduction: cached %d hops, control %d", sumCached, sumControl)
			}
			st := cc.Stats()
			if st.CacheHits == 0 || st.BloomTrueNegatives == 0 {
				t.Fatalf("cache counters flat: %+v", st)
			}
			if err := cc.CheckConsistent(); err != nil {
				t.Fatal(err)
			}

			// Batch parity: same queries, same explicit origins; per-origin
			// serialization keeps cached batch hop counts deterministic.
			qs := make([]uint64, 200)
			origins := make([]HostID, len(qs))
			for i := range qs {
				qs[i] = build[zipf.Next()]
				origins[i] = cc.HostAt(i % 8)
			}
			ra, err := cached.FloorBatch(qs, origins)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := control.FloorBatch(qs, origins)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ra {
				if ra[i].Key != rb[i].Key || ra[i].Found != rb[i].Found {
					t.Fatalf("batch %d diverged: %+v vs %+v", i, ra[i], rb[i])
				}
				if ra[i].Hops > rb[i].Hops {
					t.Fatalf("batch %d: cached %d hops > control %d", i, ra[i].Hops, rb[i].Hops)
				}
			}
		})
	}
}

// TestCacheParityPoints replays skewed Locate/Contains/Nearest traffic
// with interleaved point updates against cached and control Points
// twins.
func TestCacheParityPoints(t *testing.T) {
	const hosts, npts, nops = 16, 512, 1500
	rng := xrand.New(13)
	var pts []Point
	for _, p := range experiments.UniformPoints(rng, 2, npts+100, 1<<30) {
		pts = append(pts, Point(p))
	}
	build, extra := pts[:npts], pts[npts:]

	cc, ctl := NewCluster(hosts), NewCluster(hosts)
	cached, err := NewPoints(cc, 2, build, cachedOpts(9))
	if err != nil {
		t.Fatal(err)
	}
	control, err := NewPoints(ctl, 2, build, controlOpts(9))
	if err != nil {
		t.Fatal(err)
	}

	zipf := xrand.NewZipf(xrand.New(xrand.Substream(13, 1)), 1.2, npts)
	pick := xrand.New(xrand.Substream(13, 2))
	absent := func() Point {
		base := build[pick.Intn(npts)]
		return Point{base[0] ^ 1, base[1] ^ 3}
	}
	sumCached, sumControl := 0, 0
	nextExtra := 0
	for op := 0; op < nops; op++ {
		origin := HostID(op % hosts)
		switch r := pick.Intn(100); {
		case r < 50: // skewed locate
			q := build[zipf.Next()]
			a, err1 := cached.Locate(q, origin)
			b, err2 := control.Locate(q, origin)
			if err1 != nil || err2 != nil {
				t.Fatalf("op %d locate errs: %v / %v", op, err1, err2)
			}
			if a.Leaf != b.Leaf || a.CellPrefix != b.CellPrefix || a.CellBits != b.CellBits ||
				fmt.Sprint(a.LeafPoint) != fmt.Sprint(b.LeafPoint) {
				t.Fatalf("op %d Locate diverged: %+v vs %+v", op, a, b)
			}
			if a.Hops > b.Hops {
				t.Fatalf("op %d Locate: cached %d hops > control %d", op, a.Hops, b.Hops)
			}
			sumCached += a.Hops
			sumControl += b.Hops
		case r < 70: // absent membership
			q := absent()
			af, ah, err1 := cached.Contains(q, origin)
			bf, bh, err2 := control.Contains(q, origin)
			if err1 != nil || err2 != nil || af != bf || ah > bh {
				t.Fatalf("op %d Contains(absent): %v/%d/%v vs %v/%d/%v", op, af, ah, err1, bf, bh, err2)
			}
			sumCached += ah
			sumControl += bh
		case r < 90: // skewed nearest
			q := build[zipf.Next()]
			pa, ah, err1 := cached.Nearest(q, origin)
			pb, bh, err2 := control.Nearest(q, origin)
			if err1 != nil || err2 != nil {
				t.Fatalf("op %d nearest errs: %v / %v", op, err1, err2)
			}
			if fmt.Sprint(pa) != fmt.Sprint(pb) {
				t.Fatalf("op %d Nearest diverged: %v vs %v", op, pa, pb)
			}
			if ah > bh {
				t.Fatalf("op %d Nearest: cached %d hops > control %d", op, ah, bh)
			}
			sumCached += ah
			sumControl += bh
		default: // updates: insert a fresh point, delete a build point, reinsert it
			if nextExtra < len(extra) {
				p := extra[nextExtra]
				nextExtra++
				if _, err := cached.Insert(p, origin); err != nil {
					t.Fatal(err)
				}
				if _, err := control.Insert(p, origin); err != nil {
					t.Fatal(err)
				}
			}
			v := build[pick.Intn(npts)]
			if _, err := cached.Delete(v, origin); err != nil {
				continue // already deleted earlier in the stream; skip both twins
			}
			if _, err := control.Delete(v, origin); err != nil {
				t.Fatal(err)
			}
			if _, err := cached.Insert(v, origin); err != nil {
				t.Fatal(err)
			}
			if _, err := control.Insert(v, origin); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sumCached >= sumControl {
		t.Fatalf("no aggregate reduction: cached %d hops, control %d", sumCached, sumControl)
	}
	if err := cc.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheParityStrings replays skewed Search/Contains/PrefixSearch
// traffic with trie updates against cached and control Strings twins.
func TestCacheParityStrings(t *testing.T) {
	const hosts, nkeys, nops = 16, 600, 1500
	rng := xrand.New(17)
	keys := experiments.UniformStrings(rng, nkeys+100, "acgt", 6, 24)
	build, extra := keys[:nkeys], keys[nkeys:]
	absent := xrand.AbsentStrings(17, build, 96)

	cc, ctl := NewCluster(hosts), NewCluster(hosts)
	cached, err := NewStrings(cc, build, cachedOpts(21))
	if err != nil {
		t.Fatal(err)
	}
	control, err := NewStrings(ctl, build, controlOpts(21))
	if err != nil {
		t.Fatal(err)
	}

	zipf := xrand.NewZipf(xrand.New(xrand.Substream(17, 1)), 1.2, nkeys)
	pick := xrand.New(xrand.Substream(17, 2))
	sumCached, sumControl := 0, 0
	nextExtra := 0
	for op := 0; op < nops; op++ {
		origin := HostID(op % hosts)
		switch r := pick.Intn(100); {
		case r < 50: // skewed exact search
			q := build[zipf.Next()]
			a, err1 := cached.Search(q, origin)
			b, err2 := control.Search(q, origin)
			if err1 != nil || err2 != nil {
				t.Fatalf("op %d search errs: %v / %v", op, err1, err2)
			}
			if a.Locus != b.Locus || a.IsKey != b.IsKey || a.Exact != b.Exact {
				t.Fatalf("op %d Search(%q) diverged: %+v vs %+v", op, q, a, b)
			}
			if a.Hops > b.Hops {
				t.Fatalf("op %d Search: cached %d hops > control %d", op, a.Hops, b.Hops)
			}
			sumCached += a.Hops
			sumControl += b.Hops
		case r < 70: // absent-key flood
			q := absent[pick.Intn(len(absent))]
			af, ah, err1 := cached.Contains(q, origin)
			bf, bh, err2 := control.Contains(q, origin)
			if err1 != nil || err2 != nil || af != bf || ah > bh {
				t.Fatalf("op %d Contains(%q): %v/%d/%v vs %v/%d/%v", op, q, af, ah, err1, bf, bh, err2)
			}
			sumCached += ah
			sumControl += bh
		case r < 85: // repeated prefix enumeration
			q := build[zipf.Next()]
			prefix := q[:4]
			ka, ah, err1 := cached.PrefixSearch(prefix, 16, origin)
			kb, bh, err2 := control.PrefixSearch(prefix, 16, origin)
			if err1 != nil || err2 != nil {
				t.Fatalf("op %d prefix errs: %v / %v", op, err1, err2)
			}
			if fmt.Sprint(ka) != fmt.Sprint(kb) {
				t.Fatalf("op %d PrefixSearch(%q) diverged: %v vs %v", op, prefix, ka, kb)
			}
			if ah > bh {
				t.Fatalf("op %d PrefixSearch: cached %d hops > control %d", op, ah, bh)
			}
			sumCached += ah
			sumControl += bh
		default: // trie updates
			if nextExtra >= len(extra) {
				continue
			}
			k := extra[nextExtra]
			nextExtra++
			if _, err := cached.Insert(k, origin); err != nil {
				t.Fatal(err)
			}
			if _, err := control.Insert(k, origin); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sumCached >= sumControl {
		t.Fatalf("no aggregate reduction: cached %d hops, control %d", sumCached, sumControl)
	}
	if err := cc.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheParityPlanar replays repeated planar point-location queries
// against cached and control Planar twins, with identical churn in the
// middle to prove the churn-only epoch invalidates.
func TestCacheParityPlanar(t *testing.T) {
	const hosts, nsegs, nops = 12, 100, 800
	bounds := PlanarBounds{MinX: 0, MinY: 0, MaxX: 20000, MaxY: 20000}
	rng := xrand.New(19)
	raw := experiments.DisjointSegments(rng, nsegs,
		trapmap.Rect{MinX: 0, MinY: 0, MaxX: 20000, MaxY: 20000})
	segs := make([]PlanarSegment, len(raw))
	for i, s := range raw {
		segs[i] = PlanarSegment{
			A: PlanarPoint{X: s.A.X, Y: s.A.Y},
			B: PlanarPoint{X: s.B.X, Y: s.B.Y},
		}
	}
	cc, ctl := NewCluster(hosts), NewCluster(hosts)
	cached, err := NewPlanar(cc, segs, bounds, cachedOpts(31))
	if err != nil {
		t.Fatal(err)
	}
	control, err := NewPlanar(ctl, segs, bounds, controlOpts(31))
	if err != nil {
		t.Fatal(err)
	}
	// A small pool of query points revisited Zipf-style.
	pick := xrand.New(xrand.Substream(19, 1))
	pool := make([]PlanarPoint, 64)
	for i := range pool {
		pool[i] = PlanarPoint{X: int64(pick.Uint64n(20000)), Y: int64(pick.Uint64n(20000))}
	}
	zipf := xrand.NewZipf(xrand.New(xrand.Substream(19, 2)), 1.2, len(pool))
	sumCached, sumControl := 0, 0
	for op := 0; op < nops; op++ {
		origin := HostID(op % hosts)
		q := pool[zipf.Next()]
		a, err1 := cached.Locate(q, origin)
		b, err2 := control.Locate(q, origin)
		if err1 != nil || err2 != nil {
			t.Fatalf("op %d locate errs: %v / %v", op, err1, err2)
		}
		if a.Top != b.Top || a.Bottom != b.Bottom || a.HasTop != b.HasTop ||
			a.HasBottom != b.HasBottom || a.LeftX != b.LeftX || a.RightX != b.RightX {
			t.Fatalf("op %d Locate diverged: %+v vs %+v", op, a, b)
		}
		if a.Hops > b.Hops {
			t.Fatalf("op %d Locate: cached %d hops > control %d", op, a.Hops, b.Hops)
		}
		sumCached += a.Hops
		sumControl += b.Hops
		if op == nops/2 {
			cc.Join()
			ctl.Join()
			if err := cc.Leave(cc.HostAt(2)); err != nil {
				t.Fatal(err)
			}
			if err := ctl.Leave(ctl.HostAt(2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sumCached >= sumControl {
		t.Fatalf("no aggregate reduction: cached %d hops, control %d", sumCached, sumControl)
	}
	if cc.Stats().CacheInvalidations == 0 {
		t.Fatal("churn produced no invalidations on revisited queries")
	}
}

// TestCacheInvalidationUpdateThenQuery pins the sharpest invalidation
// edge: populate an entry, mutate its own stripe so the answer changes,
// and require the very next query to see the new answer (epoch check
// evicts the stale entry).
func TestCacheInvalidationUpdateThenQuery(t *testing.T) {
	c := NewCluster(8)
	rng := xrand.New(23)
	keys := distinctKeys(rng, 400)
	d, err := NewOneDim(c, keys, cachedOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	// Pick a query above some stored key, with room for a closer key.
	var q uint64 = 1 << 39
	before, err := d.Floor(q, 0)
	if err != nil || !before.Found {
		t.Fatalf("Floor(%d) = %+v, %v", q, before, err)
	}
	again, err := d.Floor(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Hops != 0 || again.Key != before.Key {
		t.Fatalf("second Floor not a free hit: %+v (want key %d, 0 hops)", again, before.Key)
	}
	// Insert a strictly closer floor into the same stripe as q's answer.
	closer := before.Key + (q-before.Key)/2
	if closer == before.Key {
		t.Fatalf("no room between %d and %d", before.Key, q)
	}
	if _, err := d.Insert(closer, 0); err != nil {
		t.Fatal(err)
	}
	after, err := d.Floor(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if after.Key != closer {
		t.Fatalf("stale cache answer survived insert: Floor(%d) = %d, want %d", q, after.Key, closer)
	}
	// Delete it again: the answer must fall back, through another eviction.
	if _, err := d.Delete(closer, 0); err != nil {
		t.Fatal(err)
	}
	final, err := d.Floor(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.Key != before.Key {
		t.Fatalf("Floor(%d) after delete = %d, want %d", q, final.Key, before.Key)
	}
	st := c.Stats()
	if st.CacheInvalidations < 2 {
		t.Fatalf("expected >= 2 invalidations (insert + delete), got %d", st.CacheInvalidations)
	}
	// The same key updated in place: membership flips false -> true must
	// not be masked by the bloom (superset) or a stale contains entry.
	missing := q + 12345
	if ok, _, err := d.Contains(missing, 1); err != nil || ok {
		t.Fatalf("Contains(missing) = %v, %v", ok, err)
	}
	if _, err := d.Insert(missing, 1); err != nil {
		t.Fatal(err)
	}
	if ok, _, err := d.Contains(missing, 1); err != nil || !ok {
		t.Fatalf("Contains(inserted) = %v, %v — bloom or cache hid the insert", ok, err)
	}
}

// TestCacheStatsByHostMatchesAggregate checks the observability
// contract: per-host counters sum to the cluster aggregate, hits land on
// the origin hosts that repeated their queries, and every cache lookup is
// counted as exactly one hit or miss — an origin's first one included.
func TestCacheStatsByHostMatchesAggregate(t *testing.T) {
	c := NewCluster(6)
	rng := xrand.New(29)
	keys := distinctKeys(rng, 300)
	d, err := NewBlocked(c, keys, cachedOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	absent := xrand.AbsentKeys(29, keys, 32, 1<<40)
	for round := 0; round < 3; round++ {
		for i := 0; i < 120; i++ {
			if _, err := d.Floor(keys[i%40], HostID(i%6)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := d.Contains(absent[i%len(absent)], HostID(i%6)); err != nil {
				t.Fatal(err)
			}
		}
	}
	agg := c.Stats()
	byHost := c.CacheStatsByHost()
	var sum CacheStats
	for _, cs := range byHost {
		sum.add(cs)
	}
	if sum.Hits != agg.CacheHits || sum.Misses != agg.CacheMisses ||
		sum.Invalidations != agg.CacheInvalidations ||
		sum.BloomTrueNegatives != agg.BloomTrueNegatives ||
		sum.BloomFalsePositives != agg.BloomFalsePositives {
		t.Fatalf("per-host sum %+v != aggregate %+v", sum, agg)
	}
	if agg.CacheHits == 0 || agg.BloomTrueNegatives == 0 {
		t.Fatalf("counters flat: %+v", agg)
	}
	// Each host issued 60 floors and 60 absent-key membership queries;
	// every floor looks the cache up, and so does every membership query
	// the bloom did not answer.
	for h := HostID(0); h < 6; h++ {
		cs := byHost[h]
		if cs.Hits == 0 {
			t.Fatalf("host %d repeated its queries but shows no hits: %+v", h, cs)
		}
		if lookups := 120 - cs.BloomTrueNegatives; cs.Hits+cs.Misses != lookups {
			t.Fatalf("host %d: %d hits + %d misses != %d cache lookups issued", h, cs.Hits, cs.Misses, lookups)
		}
	}
	if lookups := 720 - agg.BloomTrueNegatives; agg.CacheHits+agg.CacheMisses != lookups {
		t.Fatalf("aggregate: %d hits + %d misses != %d cache lookups issued", agg.CacheHits, agg.CacheMisses, lookups)
	}
}

// TestCacheRacesChurn runs cached batch queries concurrently with
// Join/Leave/Crash/Restart at Replicas 2 on a durable cluster — the
// race the epoch + cluster-lock design must survive. Run under -race;
// answers are checked against the static ground truth throughout, and
// full consistency after.
func TestCacheRacesChurn(t *testing.T) {
	const hosts, nkeys = 10, 300
	c := NewCluster(hosts)
	rng := xrand.New(31)
	keys := distinctKeys(rng, nkeys)
	opts := cachedOpts(13)
	opts.Replicas = 2
	opts.Durable = true
	w, err := NewBlocked(c, keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	absent := xrand.AbsentKeys(31, keys, 64, 1<<40)

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		qs := make([]uint64, 64)
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := range qs {
				if i%4 == 0 {
					qs[i] = absent[(round+i)%len(absent)]
				} else {
					qs[i] = keys[(round*7+i)%nkeys]
				}
			}
			res, err := w.FloorBatch(qs, nil)
			if err != nil {
				errCh <- fmt.Errorf("floor batch: %w", err)
				return
			}
			for i, r := range res {
				if i%4 != 0 && (!r.Found || r.Key != qs[i]) {
					errCh <- fmt.Errorf("round %d: Floor(%d) = %+v", round, qs[i], r)
					return
				}
			}
		}
	}()

	// Churn driver: join, leave, crash + restart, repeatedly.
	for cycle := 0; cycle < 3; cycle++ {
		c.Join()
		if err := c.Leave(c.HostAt(1)); err != nil {
			t.Fatal(err)
		}
		victim := c.HostAt(2)
		if err := c.Crash(victim); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Restart(victim); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := c.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	// Post-churn ground truth, including the bloom's absent answers.
	for i, k := range keys {
		r, err := w.Floor(k, c.HostAt(i))
		if err != nil || !r.Found || r.Key != k {
			t.Fatalf("post-churn Floor(%d) = %+v, %v", k, r, err)
		}
	}
	for i, k := range absent {
		ok, _, err := w.Contains(k, c.HostAt(i))
		if err != nil || ok {
			t.Fatalf("post-churn Contains(absent %d) = %v, %v", k, ok, err)
		}
	}
}

// TestBloomNegativeDuringCrash pins the one place the negative bloom
// changes an outcome rather than a cost: after a crash beyond the
// replication tolerance (k = 1), a membership query for a never-stored
// key whose bloom-free control descent fails with ErrHostDown answers
// (false, 0 messages, nil) with NegativeBloom on — the filter needs no
// remote host to prove absence — while a stored key on a lost unit
// still fails fast on both twins: the filter never vouches for presence.
// This is a decision, not an accident: "definitely absent" is correct
// whatever the hosts' state, and refusing to say so would only turn a
// right answer into an error.
func TestBloomNegativeDuringCrash(t *testing.T) {
	rng := xrand.New(37)
	keys := distinctKeys(rng, 400)
	t.Run("onedim", func(t *testing.T) {
		bloomCrashRow(t, keys, xrand.AbsentKeys(37, keys, 200, 1<<40),
			func(c *Cluster, o Options) (func(uint64, HostID) (bool, int, error), error) {
				w, err := NewOneDim(c, keys, o)
				return w.Contains, err
			})
	})
	t.Run("blocked", func(t *testing.T) {
		bloomCrashRow(t, keys, xrand.AbsentKeys(37, keys, 200, 1<<40),
			func(c *Cluster, o Options) (func(uint64, HostID) (bool, int, error), error) {
				w, err := NewBlocked(c, keys, o)
				return w.Contains, err
			})
	})
	t.Run("bucketed", func(t *testing.T) {
		bloomCrashRow(t, keys, xrand.AbsentKeys(37, keys, 200, 1<<40),
			func(c *Cluster, o Options) (func(uint64, HostID) (bool, int, error), error) {
				w, err := NewBucketed(c, keys, o)
				return w.Contains, err
			})
	})
	t.Run("points", func(t *testing.T) {
		raw := experiments.UniformPoints(rng, 2, 600, 1<<30)
		pts := make([]Point, len(raw))
		for i, p := range raw {
			pts[i] = Point(p)
		}
		bloomCrashRow(t, pts[:400], pts[400:],
			func(c *Cluster, o Options) (func(Point, HostID) (bool, int, error), error) {
				w, err := NewPoints(c, 2, pts[:400], o)
				return w.Contains, err
			})
	})
	t.Run("strings", func(t *testing.T) {
		strs := experiments.UniformStrings(rng, 400, "acgt", 6, 20)
		bloomCrashRow(t, strs, xrand.AbsentStrings(37, strs, 200),
			func(c *Cluster, o Options) (func(string, HostID) (bool, int, error), error) {
				w, err := NewStrings(c, strs, o)
				return w.Contains, err
			})
	})
}

// bloomCrashRow builds bloom-on and bloom-off twins of one structure,
// crashes the same host of each at k = 1, and compares their membership
// answers on the lost part of the key space.
func bloomCrashRow[T any](t *testing.T, present, absent []T,
	build func(c *Cluster, o Options) (func(T, HostID) (bool, int, error), error)) {
	twin := func(bloom bool) (*Cluster, func(T, HostID) (bool, int, error)) {
		c := NewCluster(8)
		// Small buckets, so that every host holds some of Bucketed's too.
		contains, err := build(c, Options{Seed: 37, WriteStripes: 2, NegativeBloom: bloom, BucketSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		var dl *DataLossError
		if err := c.Crash(c.HostAt(2)); !errors.As(err, &dl) || dl.Units <= 0 {
			t.Fatalf("k=1 crash returned %v, want DataLossError with positive units", err)
		}
		return c, contains
	}
	cb, withBloom := twin(true)
	cc, control := twin(false)
	provedAbsent, lostPresent := 0, 0
	for i, q := range absent {
		origin := cc.HostAt(i)
		_, _, cerr := control(q, origin)
		found, hops, err := withBloom(q, origin)
		switch {
		case cerr == nil:
			// The control's descent survived; the parity suite covers it.
		case !errors.Is(cerr, ErrHostDown):
			t.Fatalf("control Contains(absent %v): %v, want ErrHostDown", q, cerr)
		case err == nil:
			if found || hops != 0 {
				t.Fatalf("bloom answered Contains(absent %v) = (%v, %d msgs) where the control hit a dead host", q, found, hops)
			}
			provedAbsent++
		case !errors.Is(err, ErrHostDown): // a bloom false positive descends and fails like the control
			t.Fatalf("bloom twin Contains(absent %v): %v, want ErrHostDown", q, err)
		}
	}
	for i, q := range present {
		origin := cc.HostAt(i)
		_, _, cerr := control(q, origin)
		_, _, err := withBloom(q, origin)
		if (cerr == nil) != (err == nil) {
			t.Fatalf("Contains(present %v): bloom twin %v, control %v", q, err, cerr)
		}
		if cerr != nil {
			if !errors.Is(cerr, ErrHostDown) || !errors.Is(err, ErrHostDown) {
				t.Fatalf("Contains(present %v) failed with %v / %v, want ErrHostDown on both", q, err, cerr)
			}
			lostPresent++
		}
	}
	if provedAbsent == 0 || lostPresent == 0 {
		t.Fatalf("%d absent keys answered past a dead host, %d present keys lost; the row needs both", provedAbsent, lostPresent)
	}
	if tn := cb.Stats().BloomTrueNegatives; tn < int64(provedAbsent) {
		t.Fatalf("%d bloom true negatives counted, %d observed", tn, provedAbsent)
	}
}

// advTwin is one structure under the adversarial replay: its cached
// query methods with the answer rendered to a string (hops kept apart —
// they are compared with <=, not ==), and its update methods (nil for the
// static Planar).
type advTwin[T any] struct {
	reads                    []func(x T, origin HostID) (string, int, error)
	insert, remove           func(x T, origin HostID) (int, error)
	insertBatch, removeBatch func(xs []T, origins []HostID) ([]int, error)
	check                    func() error
}

// render turns a query's answer into the string the twins are compared
// on.
func render(v any, hops int, err error) (string, int, error) { return fmt.Sprint(v), hops, err }

// advSortedSet and advStrings wrap a sorted set and a string web; their
// first read is the structure's search (Floor, Search), the second
// Contains.
func advSortedSet(w sortedSetAPI) advTwin[uint64] {
	return advTwin[uint64]{
		reads: []func(uint64, HostID) (string, int, error){
			func(q uint64, o HostID) (string, int, error) {
				r, err := w.Floor(q, o)
				return render([]any{r.Key, r.Found}, r.Hops, err)
			},
			func(q uint64, o HostID) (string, int, error) { return render(w.Contains(q, o)) },
		},
		insert: w.Insert, remove: w.Delete, insertBatch: w.InsertBatch, removeBatch: w.DeleteBatch,
		check: w.CheckConsistent,
	}
}

func advStrings(w *Strings) advTwin[string] {
	prefix := func(max int) func(string, HostID) (string, int, error) {
		return func(q string, o HostID) (string, int, error) { return render(w.PrefixSearch(q, max, o)) }
	}
	return advTwin[string]{
		reads: []func(string, HostID) (string, int, error){
			func(q string, o HostID) (string, int, error) {
				r, err := w.Search(q, o)
				return render([]any{r.Locus, r.IsKey, r.Exact}, r.Hops, err)
			},
			func(q string, o HostID) (string, int, error) { return render(w.Contains(q, o)) },
			prefix(0), prefix(2),
		},
		insert: w.Insert, remove: w.Delete, insertBatch: w.InsertBatch, removeBatch: w.DeleteBatch,
		check: w.CheckConsistent,
	}
}

// advReplay drives one seeded adversarial stream against a cached and a
// cache-free twin of one structure, op for op: every answer must be
// identical and every op's hops at most the control's. universe is a
// small dense candidate set in code order, so that a build of a third of
// it puts about one key in every epoch bucket (a stripe of fewer keys
// than buckets gets one bucket per key) and every read lands on, or next
// to, a key some write moves. The stream has four phases: random reads
// and writes around a few hot items from two origins; a drain from the
// top of the universe down to its lowest stored items in batches, with
// the hot items re-read between batches (floors fall through one, two
// and three stripes, tries and quadtrees prune up to the root); a refill
// in sorted single-origin batches; and
// the random phase again after a Join and a Leave. The first four items
// of the universe are never stored: reads of them lie below the minimum.
func advReplay[T any](t *testing.T, seed uint64, stripes int, universe []T,
	mk func(c *Cluster, build []T, o Options) (advTwin[T], error)) {
	t.Helper()
	const hosts, reserved = 8, 4
	rng := xrand.New(seed)
	present := make([]bool, len(universe))
	var build []T
	for i := reserved; i < len(universe); i++ {
		if rng.Intn(3) == 0 {
			present[i] = true
			build = append(build, universe[i])
		}
	}
	rng.Shuffle(len(build), func(a, b int) { build[a], build[b] = build[b], build[a] })
	cc, ctl := NewCluster(hosts), NewCluster(hosts)
	cached, err := mk(cc, build, Options{Seed: seed, WriteStripes: stripes, BucketSize: 4, CacheFingers: true, NegativeBloom: true})
	if err != nil {
		t.Fatal(err)
	}
	control, err := mk(ctl, build, Options{Seed: seed, WriteStripes: stripes, BucketSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	defer ctl.Close()

	step := 0
	origin := func() HostID { return cc.HostAt(rng.Intn(2)) }
	read := func(kind, i int, o HostID) {
		t.Helper()
		step++
		a, ah, err1 := cached.reads[kind](universe[i], o)
		b, bh, err2 := control.reads[kind](universe[i], o)
		if (err1 == nil) != (err2 == nil) || a != b {
			t.Fatalf("seed %d stripes %d step %d: read %d of %v diverged: cached %s (%v), control %s (%v)",
				seed, stripes, step, kind, universe[i], a, err1, b, err2)
		}
		if ah > bh {
			t.Fatalf("seed %d stripes %d step %d: read %d of %v: cached %d hops > control %d",
				seed, stripes, step, kind, universe[i], ah, bh)
		}
	}
	same := func(what string, ah []int, err1 error, bh []int, err2 error) {
		t.Helper()
		step++
		if (err1 == nil) != (err2 == nil) || fmt.Sprint(ah) != fmt.Sprint(bh) {
			t.Fatalf("seed %d stripes %d step %d: %s diverged: cached %v (%v), control %v (%v)",
				seed, stripes, step, what, ah, err1, bh, err2)
		}
	}
	write := func(i int, o HostID) { // flips item i: a delete when stored, an insert when not
		t.Helper()
		op, ctlOp := cached.insert, control.insert
		if present[i] {
			op, ctlOp = cached.remove, control.remove
		}
		ah, err1 := op(universe[i], o)
		bh, err2 := ctlOp(universe[i], o)
		same("write", []int{ah}, err1, []int{bh}, err2)
		if err1 != nil {
			t.Fatalf("seed %d stripes %d step %d: write of %v: %v", seed, stripes, step, universe[i], err1)
		}
		present[i] = !present[i]
	}
	batch := func(idx []int, insert bool, o HostID) {
		t.Helper()
		op, ctlOp := cached.removeBatch, control.removeBatch
		if insert {
			op, ctlOp = cached.insertBatch, control.insertBatch
		}
		var xs []T
		for _, i := range idx {
			if present[i] != insert {
				xs = append(xs, universe[i])
				present[i] = insert
			}
		}
		if len(xs) == 0 {
			return
		}
		origins := make([]HostID, len(xs))
		for i := range origins {
			origins[i] = o
		}
		ah, err1 := op(xs, origins)
		bh, err2 := ctlOp(xs, origins)
		same("batch", ah, err1, bh, err2)
	}

	hot := []int{0, reserved, len(universe) - 1}
	for len(hot) < 10 {
		hot = append(hot, rng.Intn(len(universe)))
	}
	near := func() int { // a hot item or one of its neighbours
		i := hot[rng.Intn(len(hot))] + rng.Intn(3) - 1
		return min(max(i, 0), len(universe)-1)
	}
	random := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			i := near()
			if rng.Intn(4) == 0 {
				i = rng.Intn(len(universe))
			}
			if r := rng.Intn(100); r < 70 || cached.insert == nil || i < reserved {
				read(rng.Intn(len(cached.reads)), i, origin())
			} else {
				write(i, origin())
			}
		}
	}
	sweep := func() { // every read of every hot item: each re-reads what the sweep before the last batch memoized
		t.Helper()
		for _, i := range hot {
			for k := range cached.reads {
				read(k, i, cc.HostAt(0))
			}
		}
	}

	random(500)
	if cached.insert != nil {
		left, stored := reserved, 0 // the drain stops above the third-lowest stored item
		for ; left < len(universe)-1; left++ {
			if present[left] {
				if stored++; stored == 3 {
					break
				}
			}
		}
		const chunk = 8
		for hi := len(universe); hi > left+1; hi -= chunk {
			var idx []int
			for i := max(hi-chunk, left+1); i < hi; i++ {
				idx = append(idx, i)
			}
			batch(idx, false, origin())
			sweep()
		}
		for lo := left + 1; lo < len(universe); lo += chunk {
			var idx []int
			for i := lo; i < min(lo+chunk, len(universe)); i++ {
				if rng.Intn(2) == 0 {
					idx = append(idx, i)
				}
			}
			batch(idx, true, origin())
			sweep()
		}
	}
	cc.Join()
	ctl.Join()
	if err := cc.Leave(cc.HostAt(2)); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Leave(ctl.HostAt(2)); err != nil {
		t.Fatal(err)
	}
	random(500)
	if err := cached.check(); err != nil {
		t.Fatalf("seed %d stripes %d: %v", seed, stripes, err)
	}
	if st := cc.Stats(); st.CacheHits == 0 || (cached.insert != nil && st.CacheInvalidations == 0) {
		t.Fatalf("seed %d stripes %d: the replay never re-read or never voided an entry: %+v", seed, stripes, st)
	}
}

// TestCacheParityAdversarial pins the dependency intervals of the finger
// cache (the table in ARCHITECTURE.md "Read-path caching"): cached and
// cache-free twins of all six structures replay advReplay's stream, 20
// seeds at WriteStripes 0 (one stripe, still cut into epoch buckets) and
// 4. Narrowing any one interval to the query's own bucket fails it.
func TestCacheParityAdversarial(t *testing.T) {
	keys := make([]uint64, 160)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	// Strings over {a, b} up to six bytes, plus a family sharing one
	// eight-byte prefix — one stripe code, so one bucket, for all of it.
	var strs []string
	for n := 1; n <= 6; n++ {
		for m := 0; m < 1<<n; m++ {
			b := make([]byte, n)
			for j := range b {
				b[j] = 'a' + byte(m>>(n-1-j)&1)
			}
			strs = append(strs, string(b))
		}
	}
	for _, tail := range []string{"", "a", "b", "aa", "ab", "ba", "bb"} {
		strs = append(strs, "abababab"+tail)
	}
	sort.Strings(strs)
	// A dense 8 x 16 grid in Morton order.
	var pts []Point
	for code := 0; code < 128; code++ {
		var p Point = []uint32{0, 0}
		for b := 0; b < 8; b++ {
			p[b%2] |= uint32(code>>(7-b)&1) << (3 - b/2)
		}
		pts = append(pts, p)
	}
	bounds := PlanarBounds{MinX: 0, MinY: 0, MaxX: 2000, MaxY: 2000}
	raw := experiments.DisjointSegments(xrand.New(41), 40, trapmap.Rect{MinX: 0, MinY: 0, MaxX: 2000, MaxY: 2000})
	segs := make([]PlanarSegment, len(raw))
	for i, s := range raw {
		segs[i] = PlanarSegment{A: PlanarPoint{X: s.A.X, Y: s.A.Y}, B: PlanarPoint{X: s.B.X, Y: s.B.Y}}
	}
	var probes []PlanarPoint
	for x := int64(50); x < 2000; x += 300 {
		for y := int64(50); y < 2000; y += 300 {
			probes = append(probes, PlanarPoint{X: x, Y: y})
		}
	}

	for seed := uint64(1); seed <= 20; seed++ {
		for _, stripes := range []int{0, 4} {
			for _, bb := range sortedSetBuilders {
				advReplay(t, seed, stripes, keys, func(c *Cluster, build []uint64, o Options) (advTwin[uint64], error) {
					w, err := bb.build(c, build, o)
					if err != nil {
						return advTwin[uint64]{}, err
					}
					return advSortedSet(w), nil
				})
			}
			advReplay(t, seed, stripes, strs, func(c *Cluster, build []string, o Options) (advTwin[string], error) {
				w, err := NewStrings(c, build, o)
				if err != nil {
					return advTwin[string]{}, err
				}
				return advStrings(w), nil
			})
			advReplay(t, seed, stripes, pts, func(c *Cluster, build []Point, o Options) (advTwin[Point], error) {
				w, err := NewPoints(c, 2, build, o)
				if err != nil {
					return advTwin[Point]{}, err
				}
				return advTwin[Point]{
					reads: []func(Point, HostID) (string, int, error){
						func(q Point, o HostID) (string, int, error) {
							r, err := w.Locate(q, o)
							return render([]any{r.Leaf, r.LeafPoint, r.CellPrefix, r.CellBits}, r.Hops, err)
						},
						func(q Point, o HostID) (string, int, error) { return render(w.Contains(q, o)) },
						func(q Point, o HostID) (string, int, error) { return render(w.Nearest(q, o)) },
					},
					insert: w.Insert, remove: w.Delete, insertBatch: w.InsertBatch, removeBatch: w.DeleteBatch,
					check: w.CheckConsistent,
				}, nil
			})
		}
		advReplay(t, seed, 0, probes, func(c *Cluster, _ []PlanarPoint, o Options) (advTwin[PlanarPoint], error) {
			w, err := NewPlanar(c, segs, bounds, o)
			if err != nil {
				return advTwin[PlanarPoint]{}, err
			}
			return advTwin[PlanarPoint]{
				reads: []func(PlanarPoint, HostID) (string, int, error){
					func(q PlanarPoint, o HostID) (string, int, error) {
						r, err := w.Locate(q, o)
						hops := r.Hops
						r.Hops, r.Latency = 0, 0
						return render(r, hops, err)
					},
				},
				check: w.CheckConsistent,
			}, nil
		})
	}
}

// TestCachePaysUnderWrites gates the finger cache's payoff on the mix
// the zipf-cached benchmark workload runs — Zipf(1.2) reads of stored
// keys, 25 % membership queries (half of them adversarial absent keys)
// and 5 % insert-then-delete of a fresh key, origins rotating over 64
// hosts — on striped cached Blocked and Strings against their cache-free
// twins: identical answers, at least 35 % of cache lookups answered (with
// one epoch per stripe instead of per bucket it was 5.5 %), and messages
// per op within the cache_ceilings of bench_baseline.json. Counts, not
// wall-clock: both repeat exactly.
func TestCachePaysUnderWrites(t *testing.T) {
	raw, err := os.ReadFile("bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Ceilings []struct {
			Name string  `json:"name"`
			Hit  float64 `json:"min_hit_ratio"`
			Msgs float64 `json:"max_msgs_per_op"`
		} `json:"cache_ceilings"`
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("bench_baseline.json: %v", err)
	}
	if len(base.Ceilings) != 2 {
		t.Fatalf("bench_baseline.json: %d cache_ceilings, want 2", len(base.Ceilings))
	}
	const hosts, nkeys, pool, nops = 64, 8192, 256, 80000
	rng := xrand.New(43)
	keys := distinctKeys(rng, nkeys+pool)
	strs := experiments.UniformStrings(rng, nkeys+pool, "acgt", 8, 20)
	mixes := map[string]func(t *testing.T) (cachedMsgs, controlMsgs int, cc *Cluster){
		"mixed/blocked-zipf-writes-cached": func(t *testing.T) (int, int, *Cluster) {
			return payMix(t, hosts, nops, keys[:nkeys], keys[nkeys:], xrand.AbsentKeys(43, keys, pool, 1<<40),
				func(c *Cluster, o Options) (advTwin[uint64], error) {
					w, err := NewBlocked(c, keys[:nkeys], o)
					if err != nil {
						return advTwin[uint64]{}, err
					}
					return advSortedSet(w), nil
				})
		},
		"mixed/strings-zipf-writes-cached": func(t *testing.T) (int, int, *Cluster) {
			return payMix(t, hosts, nops, strs[:nkeys], strs[nkeys:], xrand.AbsentStrings(43, strs, pool),
				func(c *Cluster, o Options) (advTwin[string], error) {
					w, err := NewStrings(c, strs[:nkeys], o)
					if err != nil {
						return advTwin[string]{}, err
					}
					return advStrings(w), nil
				})
		},
	}
	for _, ceil := range base.Ceilings {
		mix := mixes[ceil.Name]
		if mix == nil {
			t.Fatalf("bench_baseline.json: unknown cache ceiling %q", ceil.Name)
		}
		t.Run(ceil.Name, func(t *testing.T) {
			cachedMsgs, controlMsgs, cc := mix(t)
			st := cc.Stats()
			ratio := float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
			perOp := float64(cachedMsgs) / nops
			t.Logf("hit ratio %.3f (%d invalidations), %.3f msgs/op cached vs %.3f control",
				ratio, st.CacheInvalidations, perOp, float64(controlMsgs)/nops)
			if ratio < ceil.Hit {
				t.Errorf("hit ratio %.3f under writes, want >= %.2f", ratio, ceil.Hit)
			}
			if perOp > ceil.Msgs {
				t.Errorf("%.3f msgs/op, ceiling %.3f", perOp, ceil.Msgs)
			}
		})
	}
}

// payMix replays nops ops of the zipf-cached mix against a cached and a
// cache-free twin (reads[0] the search, reads[1] Contains), requiring
// identical answers and per-op hops at most the control's, and returns
// the messages each side was charged.
func payMix[T any](t *testing.T, hosts, nops int, stored, fresh, absent []T,
	mk func(c *Cluster, o Options) (advTwin[T], error)) (cachedMsgs, controlMsgs int, cc *Cluster) {
	cc, ctl := NewCluster(hosts), NewCluster(hosts)
	cached, err := mk(cc, cachedOpts(47))
	if err != nil {
		t.Fatal(err)
	}
	control, err := mk(ctl, controlOpts(47))
	if err != nil {
		t.Fatal(err)
	}
	zipf := xrand.NewZipf(xrand.New(xrand.Substream(43, 1)), 1.2, len(stored))
	pick := xrand.New(xrand.Substream(43, 2))
	charge := func(op int, what string, ah int, err1 error, bh int, err2 error) {
		if err1 != nil || err2 != nil {
			t.Fatalf("op %d %s: %v / %v", op, what, err1, err2)
		}
		if ah > bh {
			t.Fatalf("op %d %s: cached %d hops > control %d", op, what, ah, bh)
		}
		cachedMsgs += ah
		controlMsgs += bh
	}
	for op, nextFresh := 0, 0; op < nops; op++ {
		origin := HostID(op % hosts)
		switch r := pick.Intn(100); {
		case r < 70:
			q := stored[zipf.Next()]
			a, ah, err1 := cached.reads[0](q, origin)
			b, bh, err2 := control.reads[0](q, origin)
			if a != b {
				t.Fatalf("op %d read of %v diverged: cached %s, control %s", op, q, a, b)
			}
			charge(op, "read", ah, err1, bh, err2)
		case r < 95:
			q := stored[zipf.Next()]
			if r%2 == 0 {
				q = absent[pick.Intn(len(absent))]
			}
			a, ah, err1 := cached.reads[1](q, origin)
			b, bh, err2 := control.reads[1](q, origin)
			if a != b {
				t.Fatalf("op %d Contains(%v) diverged: cached %v, control %v", op, q, a, b)
			}
			charge(op, "contains", ah, err1, bh, err2)
		default: // a write slot is two ops: the insert of a fresh key and its delete
			x := fresh[nextFresh%len(fresh)]
			nextFresh++
			ah, err1 := cached.insert(x, origin)
			bh, err2 := control.insert(x, origin)
			charge(op, "insert", ah, err1, bh, err2)
			op++
			ah, err1 = cached.remove(x, origin)
			bh, err2 = control.remove(x, origin)
			charge(op, "delete", ah, err1, bh, err2)
		}
	}
	return cachedMsgs, controlMsgs, cc
}
