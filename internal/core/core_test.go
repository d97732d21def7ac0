package core

import (
	"math"
	"strings"
	"testing"

	"github.com/skipwebs/skipwebs/internal/quadtree"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/trapmap"
	"github.com/skipwebs/skipwebs/internal/trie"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

func distinctKeys(rng *xrand.Rand, n int, bound uint64) []uint64 {
	seen := map[uint64]bool{}
	out := make([]uint64, 0, n)
	for len(out) < n {
		k := rng.Uint64n(bound)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func newListWeb(t testing.TB, n int, seed uint64) (*Web[*ListLevel, uint64, uint64], *sim.Network, []uint64) {
	t.Helper()
	rng := xrand.New(seed)
	keys := distinctKeys(rng, n, 1<<40)
	net := sim.NewNetwork(maxInt(n, 1))
	w, err := NewWeb[*ListLevel, uint64, uint64](NewListOps(), net, keys, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w, net, keys
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestListWebQueryMatchesOracle(t *testing.T) {
	w, net, keys := newListWeb(t, 500, 1)
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ground := w.GroundStructure()
	rng := xrand.New(99)
	for i := 0; i < 2000; i++ {
		q := rng.Uint64n(1 << 41)
		origin := sim.HostID(rng.Intn(net.Hosts()))
		res, err := w.Query(q, origin)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want := ground.Locate(q)
		if res.Range != want {
			t.Fatalf("query %d: terminal %d, oracle %d", i, res.Range, want)
		}
	}
	_ = keys
}

func TestListWebQueryForStoredKeys(t *testing.T) {
	w, net, keys := newListWeb(t, 300, 2)
	ground := w.GroundStructure()
	for _, k := range keys {
		res, err := w.Query(k, sim.HostID(int(k)%net.Hosts()))
		if err != nil {
			t.Fatal(err)
		}
		if ground.IsHead(res.Range) || ground.Key(res.Range) != k {
			t.Fatalf("key %d: terminal does not hold the key", k)
		}
	}
}

func TestListWebQueryHopsLogarithmic(t *testing.T) {
	// Q(n) should grow like log n: the ratio hops/log2(n) must not grow.
	rng := xrand.New(7)
	var ratios []float64
	for _, n := range []int{256, 1024, 4096} {
		keys := distinctKeys(rng.Split(), n, 1<<40)
		net := sim.NewNetwork(n)
		w, err := NewWeb[*ListLevel, uint64, uint64](NewListOps(), net, keys, Config{Seed: uint64(n)})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		const queries = 300
		qr := rng.Split()
		for i := 0; i < queries; i++ {
			res, err := w.Query(qr.Uint64n(1<<40), sim.HostID(qr.Intn(n)))
			if err != nil {
				t.Fatal(err)
			}
			total += res.Hops
		}
		ratios = append(ratios, float64(total)/queries/math.Log2(float64(n)))
	}
	if ratios[len(ratios)-1] > ratios[0]*1.6 {
		t.Fatalf("hops growing faster than log n: ratios %v", ratios)
	}
	for _, r := range ratios {
		if r > 8 {
			t.Fatalf("hops/log2(n) = %v too large (ratios %v)", r, ratios)
		}
	}
}

func TestListWebInsertDelete(t *testing.T) {
	w, net, keys := newListWeb(t, 200, 3)
	rng := xrand.New(55)
	present := map[uint64]bool{}
	for _, k := range keys {
		present[k] = true
	}
	for i := 0; i < 400; i++ {
		k := rng.Uint64n(1 << 40)
		origin := sim.HostID(rng.Intn(net.Hosts()))
		if present[k] {
			continue
		}
		if _, err := w.Insert(k, origin); err != nil {
			t.Fatalf("insert %d (key %d): %v", i, k, err)
		}
		present[k] = true
		if i%50 == 0 {
			if err := w.CheckInvariants(); err != nil {
				t.Fatalf("after insert %d: %v", i, err)
			}
		}
	}
	// Delete half.
	var all []uint64
	for k := range present {
		all = append(all, k)
	}
	for i, k := range all {
		if i%2 == 0 {
			continue
		}
		if _, err := w.Delete(k, sim.HostID(rng.Intn(net.Hosts()))); err != nil {
			t.Fatalf("delete key %d: %v", k, err)
		}
		delete(present, k)
		if i%50 == 1 {
			if err := w.CheckInvariants(); err != nil {
				t.Fatalf("after delete %d: %v", i, err)
			}
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every remaining key still found; every deleted key maps to floor.
	ground := w.GroundStructure()
	if ground.Len() != len(present) {
		t.Fatalf("ground has %d keys, want %d", ground.Len(), len(present))
	}
	for k := range present {
		res, err := w.Query(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ground.IsHead(res.Range) || ground.Key(res.Range) != k {
			t.Fatalf("key %d lost after churn", k)
		}
	}
}

func TestListWebInsertIntoEmpty(t *testing.T) {
	net := sim.NewNetwork(8)
	w, err := NewWeb[*ListLevel, uint64, uint64](NewListOps(), net, nil, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 50; i++ {
		if _, err := w.Insert(i*100, sim.HostID(i)%8); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 50 {
		t.Fatalf("len %d", w.Len())
	}
	res, err := w.Query(550, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.GroundStructure().Key(res.Range) != 500 {
		t.Fatalf("Query(550) floor = %d, want 500", w.GroundStructure().Key(res.Range))
	}
}

func TestListWebDrainToEmpty(t *testing.T) {
	w, net, keys := newListWeb(t, 64, 4)
	for _, k := range keys {
		if _, err := w.Delete(k, 0); err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
	}
	if w.Len() != 0 {
		t.Fatalf("len %d after drain", w.Len())
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Storage should be nearly fully released (only the root's sentinel
	// structures remain).
	s := net.Snapshot()
	if s.MaxStorage > 4 {
		t.Fatalf("storage leak: max %d per host after drain", s.MaxStorage)
	}
	// And the web must keep working.
	if _, err := w.Insert(42, 0); err != nil {
		t.Fatal(err)
	}
	res, err := w.Query(43, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.GroundStructure().Key(res.Range) != 42 {
		t.Fatal("reinsert after drain failed")
	}
}

func TestListWebDuplicateInsertFails(t *testing.T) {
	w, _, keys := newListWeb(t, 32, 5)
	if _, err := w.Insert(keys[0], 0); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if _, err := w.Delete(12345678901, 0); err == nil {
		t.Fatal("absent delete accepted")
	}
}

func TestListWebStoragePerHostLogarithmic(t *testing.T) {
	// With H = n hosts, per-host memory should be O(log n).
	rng := xrand.New(11)
	for _, n := range []int{512, 2048} {
		keys := distinctKeys(rng.Split(), n, 1<<40)
		net := sim.NewNetwork(n)
		if _, err := NewWeb[*ListLevel, uint64, uint64](NewListOps(), net, keys, Config{Seed: uint64(n)}); err != nil {
			t.Fatal(err)
		}
		s := net.Snapshot()
		logn := math.Log2(float64(n))
		if s.MeanStorage > 6*logn {
			t.Fatalf("n=%d: mean storage %.1f > 6 log n", n, s.MeanStorage)
		}
		if float64(s.MaxStorage) > 30*logn {
			t.Fatalf("n=%d: max storage %d vastly exceeds O(log n)", n, s.MaxStorage)
		}
	}
}

// --- Quadtree web ---

func randPoints(rng *xrand.Rand, d, n int, bound uint64) []quadtree.Point {
	proto := quadtree.New(d)
	seen := map[uint64]bool{}
	out := make([]quadtree.Point, 0, n)
	for len(out) < n {
		p := make(quadtree.Point, d)
		for i := range p {
			p[i] = uint32(rng.Uint64n(bound))
		}
		c, err := proto.Code(p)
		if err != nil {
			panic(err)
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, p)
		}
	}
	return out
}

func TestQuadWebQueryMatchesOracle(t *testing.T) {
	rng := xrand.New(21)
	pts := randPoints(rng, 2, 400, 1<<20)
	net := sim.NewNetwork(400)
	ops := NewQuadOps(2)
	w, err := NewWeb[*quadtree.Tree, quadtree.Point, uint64](ops, net, pts, Config{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ground := w.GroundStructure()
	for i := 0; i < 1000; i++ {
		q := quadtree.Point{uint32(rng.Uint64n(1 << 20)), uint32(rng.Uint64n(1 << 20))}
		code, err := ops.Code(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.Query(code, sim.HostID(rng.Intn(400)))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want, _ := ground.Locate(code)
		if quadtree.NodeID(res.Range) != want {
			t.Fatalf("query %d: node %d, oracle %d", i, res.Range, want)
		}
	}
}

func TestQuadWebAdversarialDepth(t *testing.T) {
	// Nested clusters force Θ(n) tree depth; the skip-web should still
	// answer in a logarithmic number of hops (Theorem 2 / E6).
	var pts []quadtree.Point
	step := uint32(1) << 29
	base := uint32(0)
	for i := 0; i < 28; i++ {
		pts = append(pts, quadtree.Point{base + step, base + step})
		pts = append(pts, quadtree.Point{base + step + 1, base + step + 1})
		step >>= 1
	}
	net := sim.NewNetwork(len(pts))
	ops := NewQuadOps(2)
	w, err := NewWeb[*quadtree.Tree, quadtree.Point, uint64](ops, net, pts, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ground := w.GroundStructure()
	if ground.Depth() < 10 {
		t.Fatalf("ground tree not deep: %d", ground.Depth())
	}
	rng := xrand.New(3)
	total := 0
	const queries = 200
	for i := 0; i < queries; i++ {
		q := quadtree.Point{uint32(rng.Uint64n(1 << 30)), uint32(rng.Uint64n(1 << 30))}
		code, _ := ops.Code(q)
		res, err := w.Query(code, sim.HostID(rng.Intn(len(pts))))
		if err != nil {
			t.Fatal(err)
		}
		total += res.Hops
	}
	mean := float64(total) / queries
	if mean > 12*math.Log2(float64(len(pts))) {
		t.Fatalf("mean hops %.1f not logarithmic for deep tree", mean)
	}
}

func TestQuadWebInsertDelete(t *testing.T) {
	rng := xrand.New(31)
	pts := randPoints(rng, 2, 150, 1<<16)
	net := sim.NewNetwork(256)
	ops := NewQuadOps(2)
	w, err := NewWeb[*quadtree.Tree, quadtree.Point, uint64](ops, net, pts[:100], Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts[100:] {
		if _, err := w.Insert(p, sim.HostID(i%256)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
	}
	for i, p := range pts[:60] {
		if _, err := w.Delete(p, sim.HostID(i%256)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("after delete %d: %v", i, err)
		}
	}
	ground := w.GroundStructure()
	if ground.Len() != 90 {
		t.Fatalf("ground has %d points", ground.Len())
	}
	// Remaining points still locatable.
	for _, p := range pts[60:] {
		code, _ := ops.Code(p)
		res, err := w.Query(code, 0)
		if err != nil {
			t.Fatal(err)
		}
		id := quadtree.NodeID(res.Range)
		if !ground.IsLeaf(id) {
			t.Fatalf("point %v: terminal not a leaf", p)
		}
	}
}

// --- Trie web ---

func randStrings(rng *xrand.Rand, n int, alphabet string, minLen, maxLen int) []string {
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for len(out) < n {
		l := minLen + rng.Intn(maxLen-minLen+1)
		var b strings.Builder
		for i := 0; i < l; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		s := b.String()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func TestTrieWebQueryMatchesOracle(t *testing.T) {
	rng := xrand.New(41)
	keys := randStrings(rng, 400, "acgt", 4, 14)
	net := sim.NewNetwork(400)
	w, err := NewWeb[*trie.Trie, string, string](NewTrieOps(), net, keys, Config{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ground := w.GroundStructure()
	for i := 0; i < 1000; i++ {
		q := randStrings(rng, 1, "acgt", 1, 14)[0]
		res, err := w.Query(q, sim.HostID(rng.Intn(400)))
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		want, _ := ground.Locate(q)
		if trie.NodeID(res.Range) != want {
			t.Fatalf("query %q: node %q, oracle %q", q,
				ground.Locus(trie.NodeID(res.Range)), ground.Locus(want))
		}
	}
}

func TestTrieWebDeepSharedPrefixes(t *testing.T) {
	// Keys a, aa, aaa... force a path-shaped ground trie of linear depth;
	// queries must stay logarithmic (E6).
	var keys []string
	for i := 1; i <= 128; i++ {
		keys = append(keys, strings.Repeat("a", i))
	}
	net := sim.NewNetwork(128)
	w, err := NewWeb[*trie.Trie, string, string](NewTrieOps(), net, keys, Config{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if w.GroundStructure().Depth() != 128 {
		t.Fatalf("ground depth %d", w.GroundStructure().Depth())
	}
	rng := xrand.New(4)
	total := 0
	const queries = 200
	for i := 0; i < queries; i++ {
		q := strings.Repeat("a", 1+rng.Intn(130))
		res, err := w.Query(q, sim.HostID(rng.Intn(128)))
		if err != nil {
			t.Fatal(err)
		}
		total += res.Hops
	}
	if mean := float64(total) / queries; mean > 12*math.Log2(128) {
		t.Fatalf("mean hops %.1f on degenerate trie", mean)
	}
}

func TestTrieWebInsertDelete(t *testing.T) {
	rng := xrand.New(51)
	keys := randStrings(rng, 150, "ab", 2, 12)
	net := sim.NewNetwork(128)
	w, err := NewWeb[*trie.Trie, string, string](NewTrieOps(), net, keys[:100], Config{Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys[100:] {
		if _, err := w.Insert(k, sim.HostID(i%128)); err != nil {
			t.Fatalf("insert %q: %v", k, err)
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("after insert %q: %v", k, err)
		}
	}
	for i, k := range keys[:50] {
		if _, err := w.Delete(k, sim.HostID(i%128)); err != nil {
			t.Fatalf("delete %q: %v", k, err)
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("after delete %q: %v", k, err)
		}
	}
	ground := w.GroundStructure()
	if ground.Len() != 100 {
		t.Fatalf("ground has %d keys", ground.Len())
	}
	for _, k := range keys[50:] {
		if !ground.Contains(k) {
			t.Fatalf("key %q lost", k)
		}
	}
}

// --- Trapezoidal-map web ---

func genSegments(rng *xrand.Rand, n int, bounds trapmap.Rect) []trapmap.Segment {
	usedX := map[int64]bool{}
	var out []trapmap.Segment
	w := bounds.MaxX - bounds.MinX
	h := bounds.MaxY - bounds.MinY
	for len(out) < n {
		x1 := bounds.MinX + 1 + int64(rng.Uint64n(uint64(w-2)))
		x2 := x1 + 1 + int64(rng.Uint64n(uint64(w)/8+1))
		if x2 >= bounds.MaxX || usedX[x1] || usedX[x2] {
			continue
		}
		y1 := bounds.MinY + 1 + int64(rng.Uint64n(uint64(h-2)))
		y2 := bounds.MinY + 1 + int64(rng.Uint64n(uint64(h-2)))
		s := trapmap.Segment{A: trapmap.Point{X: x1, Y: y1}, B: trapmap.Point{X: x2, Y: y2}}
		ok := true
		for _, u := range out {
			if segsIntersectForTest(s, u) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		usedX[x1] = true
		usedX[x2] = true
		out = append(out, s)
	}
	return out
}

// segsIntersectForTest duplicates the package-private predicate closely
// enough for rejection sampling (validated again by Build).
func segsIntersectForTest(a, b trapmap.Segment) bool {
	o := func(s trapmap.Segment, p trapmap.Point) int64 {
		return (s.B.X-s.A.X)*(p.Y-s.A.Y) - (s.B.Y-s.A.Y)*(p.X-s.A.X)
	}
	o1, o2 := o(a, b.A), o(a, b.B)
	o3, o4 := o(b, a.A), o(b, a.B)
	if ((o1 > 0) != (o2 > 0)) && ((o3 > 0) != (o4 > 0)) && o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 {
		return true
	}
	return o1 == 0 || o2 == 0 || o3 == 0 || o4 == 0
}

func TestTrapWebQueryMatchesOracle(t *testing.T) {
	bounds := trapmap.Rect{MinX: -1000, MinY: -1000, MaxX: 1000, MaxY: 1000}
	rng := xrand.New(61)
	segs := genSegments(rng, 100, bounds)
	net := sim.NewNetwork(128)
	ops := TrapOps{Bounds: bounds}
	w, err := NewWeb[*trapmap.Map, trapmap.Segment, trapmap.Point](ops, net, segs, Config{Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ground := w.GroundStructure()
	for i := 0; i < 500; i++ {
		q := trapmap.Point{
			X: bounds.MinX + int64(rng.Uint64n(uint64(bounds.MaxX-bounds.MinX))),
			Y: bounds.MinY + int64(rng.Uint64n(uint64(bounds.MaxY-bounds.MinY))),
		}
		res, err := w.Query(q, sim.HostID(rng.Intn(128)))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want, err := ground.Locate(q)
		if err != nil {
			t.Fatal(err)
		}
		if trapmap.TrapID(res.Range) != want {
			t.Fatalf("query %+v: trap %d, oracle %d", q, res.Range, want)
		}
	}
}

func TestTrapWebStatic(t *testing.T) {
	bounds := trapmap.Rect{MinX: -100, MinY: -100, MaxX: 100, MaxY: 100}
	rng := xrand.New(62)
	segs := genSegments(rng, 10, bounds)
	net := sim.NewNetwork(16)
	ops := TrapOps{Bounds: bounds}
	w, err := NewWeb[*trapmap.Map, trapmap.Segment, trapmap.Point](ops, net, segs, Config{Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	extra := genSegments(xrand.New(63), 1, bounds)
	if _, err := w.Insert(extra[0], 0); err == nil {
		t.Fatal("static web accepted insert")
	}
}

func TestWebLevelsLogarithmic(t *testing.T) {
	w, _, _ := newListWeb(t, 4096, 77)
	levels := 0
	w.eachNode(func(n *setNode[*ListLevel, uint64]) { levels = max(levels, n.depth+1) })
	if levels < 8 || levels > 30 {
		t.Fatalf("levels = %d for n = 4096", levels)
	}
}

func TestListLevelUnit(t *testing.T) {
	l, err := NewListLevel([]uint64{30, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := l.Keys(); len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("keys %v", got)
	}
	if r := l.Locate(5); !l.IsHead(r) {
		t.Fatal("Locate(5) not head")
	}
	if r := l.Locate(25); l.Key(r) != 20 {
		t.Fatalf("Locate(25) = %d", l.Key(r))
	}
	if r := l.Locate(99); l.Key(r) != 30 {
		t.Fatal("Locate(99) wrong")
	}
	if _, err := NewListLevel([]uint64{1, 1}); err == nil {
		t.Fatal("duplicate accepted")
	}
	// Insert and delete.
	id, err := l.InsertKey(25, l.Locate(25))
	if err != nil {
		t.Fatal(err)
	}
	if l.Key(id) != 25 {
		t.Fatal("insert misplaced")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	dead, pred, err := l.DeleteKey(20)
	if err != nil {
		t.Fatal(err)
	}
	if l.Key(pred) != 10 {
		t.Fatalf("pred key %d", l.Key(pred))
	}
	_ = dead
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if r := l.Locate(24); l.Key(r) != 10 {
		t.Fatal("locate after delete wrong")
	}
}
