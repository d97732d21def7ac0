package core

import (
	"fmt"
	"sort"
	"testing"

	"github.com/skipwebs/skipwebs/internal/quadtree"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/trie"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// These property tests pin the bulk-load acceptance claim of the PR 4
// write-path overhaul: on a fixed seed, building a web over an item set
// in one shot (the O(n)-per-level bulk path) yields a structure
// equivalent to inserting the same items one at a time into an empty web
// — identical set-tree shape, identical per-node item sets, and
// identical query answers. Range IDs and host placement may differ (the
// incremental path consumes placement randomness per update), so the
// signature compares structure, not identities.

// webSignature serializes the set tree: depth, item count, and the
// sorted item codes of every node in DFS order. Only leaves keep their
// item sets, so a node's set is gathered from the leaves below it.
func webSignature[L, T, Q any](w *Web[L, T, Q]) []string {
	var gather func(n *setNode[L, T], codes []uint64) []uint64
	gather = func(n *setNode[L, T], codes []uint64) []uint64 {
		if n == nil {
			return codes
		}
		for _, x := range n.items {
			codes = append(codes, w.ops.CodeOf(x))
		}
		return gather(n.kids[1], gather(n.kids[0], codes))
	}
	var out []string
	w.eachNode(func(n *setNode[L, T]) {
		codes := gather(n, nil)
		sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
		out = append(out, fmt.Sprintf("d%d n%d %v", n.depth, n.count, codes))
	})
	return out
}

func assertSameSignature(t *testing.T, name string, bulk, seq []string) {
	t.Helper()
	if len(bulk) != len(seq) {
		t.Fatalf("%s: bulk has %d set-tree nodes, sequential %d", name, len(bulk), len(seq))
	}
	for i := range bulk {
		if bulk[i] != seq[i] {
			t.Fatalf("%s: set-tree node %d differs:\n bulk %s\n seq  %s", name, i, bulk[i], seq[i])
		}
	}
}

func TestBulkEqualsSequentialOneDim(t *testing.T) {
	rng := xrand.New(0xb01d)
	keys := distinctKeys(rng, 700, 1<<40)
	cfg := Config{Seed: 77}

	bulk, err := NewWeb[*ListLevel, uint64, uint64](NewListOps(), sim.NewNetwork(16), keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewWeb[*ListLevel, uint64, uint64](NewListOps(), sim.NewNetwork(16), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if _, err := seq.Insert(k, sim.HostID(i%16)); err != nil {
			t.Fatalf("sequential insert %d: %v", i, err)
		}
	}
	assertSameSignature(t, "onedim", webSignature(bulk), webSignature(seq))
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatalf("bulk invariants: %v", err)
	}
	if err := seq.CheckInvariants(); err != nil {
		t.Fatalf("sequential invariants: %v", err)
	}
	qrng := xrand.New(5)
	g1, g2 := bulk.GroundStructure(), seq.GroundStructure()
	for i := 0; i < 500; i++ {
		q := qrng.Uint64n(1 << 40)
		r1, err1 := bulk.Query(q, sim.HostID(i%16))
		r2, err2 := seq.Query(q, sim.HostID(i%16))
		if err1 != nil || err2 != nil {
			t.Fatalf("query %d: %v / %v", q, err1, err2)
		}
		k1, h1 := uint64(0), g1.IsHead(r1.Range)
		if !h1 {
			k1 = g1.Key(r1.Range)
		}
		k2, h2 := uint64(0), g2.IsHead(r2.Range)
		if !h2 {
			k2 = g2.Key(r2.Range)
		}
		if h1 != h2 || k1 != k2 {
			t.Fatalf("query %d: bulk floor (%v,%d), sequential floor (%v,%d)", q, h1, k1, h2, k2)
		}
	}
}

func TestBulkEqualsSequentialPoints(t *testing.T) {
	rng := xrand.New(0xb02d)
	pts := make([]quadtree.Point, 0, 400)
	seen := map[uint64]bool{}
	ops := NewQuadOps(2)
	for len(pts) < 400 {
		p := quadtree.Point{uint32(rng.Uint64n(1 << 30)), uint32(rng.Uint64n(1 << 30))}
		c, err := ops.Code(p)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[c] {
			seen[c] = true
			pts = append(pts, p)
		}
	}
	cfg := Config{Seed: 78}
	bulk, err := NewWeb[*quadtree.Tree, quadtree.Point, uint64](NewQuadOps(2), sim.NewNetwork(16), pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// An empty quadtree has no ranges at all (no universal cell), so the
	// first point cannot be routed; the sequential twin seeds with one
	// point and inserts the rest.
	seq, err := NewWeb[*quadtree.Tree, quadtree.Point, uint64](NewQuadOps(2), sim.NewNetwork(16), pts[:1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts[1:] {
		if _, err := seq.Insert(p, sim.HostID(i%16)); err != nil {
			t.Fatalf("sequential insert %d: %v", i, err)
		}
	}
	assertSameSignature(t, "points", webSignature(bulk), webSignature(seq))
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatalf("bulk invariants: %v", err)
	}
	if err := seq.CheckInvariants(); err != nil {
		t.Fatalf("sequential invariants: %v", err)
	}
}

func TestBulkEqualsSequentialStrings(t *testing.T) {
	rng := xrand.New(0xb03d)
	seen := map[string]bool{}
	var keys []string
	for len(keys) < 400 {
		n := 4 + int(rng.Uint64n(12))
		b := make([]byte, n)
		for i := range b {
			b[i] = "acgt"[rng.Intn(4)]
		}
		s := string(b)
		if !seen[s] {
			seen[s] = true
			keys = append(keys, s)
		}
	}
	cfg := Config{Seed: 79}
	bulk, err := NewWeb[*trie.Trie, string, string](NewTrieOps(), sim.NewNetwork(16), keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewWeb[*trie.Trie, string, string](NewTrieOps(), sim.NewNetwork(16), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if _, err := seq.Insert(k, sim.HostID(i%16)); err != nil {
			t.Fatalf("sequential insert %d: %v", i, err)
		}
	}
	assertSameSignature(t, "strings", webSignature(bulk), webSignature(seq))
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatalf("bulk invariants: %v", err)
	}
	if err := seq.CheckInvariants(); err != nil {
		t.Fatalf("sequential invariants: %v", err)
	}
}

// blockedSignature serializes a BlockedWeb's set tree: depth, count, and
// key list per node in DFS order (block directories are excluded — the
// incremental path cuts blocks by growth and split, the bulk path by
// construction, and both are valid placements of the same level).
func blockedSignature(w *BlockedWeb) []string {
	var out []string
	w.eachNode(func(n *bnode) {
		out = append(out, fmt.Sprintf("d%d n%d %v", n.depth, n.count, n.lvl.Keys()))
	})
	return out
}

func TestBulkEqualsSequentialBlocked(t *testing.T) {
	rng := xrand.New(0xb04d)
	keys := distinctKeys(rng, 700, 1<<40)
	cfg := BlockedConfig{Seed: 80, M: 12}

	bulk, err := NewBlockedWeb(sim.NewNetwork(16), keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewBlockedWeb(sim.NewNetwork(16), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if _, err := seq.Insert(k, sim.HostID(i%16)); err != nil {
			t.Fatalf("sequential insert %d: %v", i, err)
		}
	}
	assertSameSignature(t, "blocked", blockedSignature(bulk), blockedSignature(seq))
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatalf("bulk invariants: %v", err)
	}
	if err := seq.CheckInvariants(); err != nil {
		t.Fatalf("sequential invariants: %v", err)
	}
	qrng := xrand.New(6)
	for i := 0; i < 500; i++ {
		q := qrng.Uint64n(1 << 40)
		k1, ok1, _, _ := bulk.Query(q, sim.HostID(i%16))
		k2, ok2, _, _ := seq.Query(q, sim.HostID(i%16))
		if ok1 != ok2 || k1 != k2 {
			t.Fatalf("query %d: bulk floor (%v,%d), sequential floor (%v,%d)", q, ok1, k1, ok2, k2)
		}
	}
}

func TestBulkEqualsSequentialBucketed(t *testing.T) {
	rng := xrand.New(0xb05d)
	keys := distinctKeys(rng, 600, 1<<40)

	bulk, err := NewBucketWeb(sim.NewNetwork(16), keys, 16, 12, 81, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The bucket web cannot start empty (queries need one bucket), so the
	// sequential twin seeds with the first key and inserts the rest.
	seq, err := NewBucketWeb(sim.NewNetwork(16), keys[:1], 16, 12, 81, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys[1:] {
		if _, err := seq.Insert(k, sim.HostID(i%16)); err != nil {
			t.Fatalf("sequential insert %d: %v", i, err)
		}
	}
	if bulk.Len() != seq.Len() {
		t.Fatalf("lengths diverged: bulk %d, sequential %d", bulk.Len(), seq.Len())
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatalf("bulk invariants: %v", err)
	}
	if err := seq.CheckInvariants(); err != nil {
		t.Fatalf("sequential invariants: %v", err)
	}
	// Bucket boundaries legitimately differ (split-grown vs cut at
	// construction); the contract is answer equivalence.
	qrng := xrand.New(7)
	for i := 0; i < 500; i++ {
		q := qrng.Uint64n(1 << 40)
		k1, ok1, _, _ := bulk.Query(q, sim.HostID(i%16))
		k2, ok2, _, _ := seq.Query(q, sim.HostID(i%16))
		if ok1 != ok2 || k1 != k2 {
			t.Fatalf("query %d: bulk floor (%v,%d), sequential floor (%v,%d)", q, ok1, k1, ok2, k2)
		}
	}
}
