package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// keyPathModel drives a BlockedWeb — bare, or as a BucketWeb's separator
// web — through a random update stream and checks every range the
// updates derive from hyperlinks against the level searches they
// replaced: keyPath's floors against Locate, Delete's chain against
// ByKey, and a failed insert's unwind against a snapshot of the levels.
type keyPathModel struct {
	t    *testing.T
	net  *sim.Network
	w    *BlockedWeb
	b    *BucketWeb // nil for a bare BlockedWeb
	keys map[uint64]bool
	rng  *xrand.Rand

	ground []uint64 // probe scratch
	// down is set while hosts are crashed: only then can an update
	// fail, so only then are the before-images taken.
	down bool
	// What the stream exercised, so a schedule that stops reaching a
	// path fails instead of passing vacuously.
	leafSplits, leafMerges, blockSplits, chains, failed, reinserts int
}

// keyPathBase offsets the stream's keys, leaving room below for a long
// run of separator rekeys, each roughly halving the lowest key.
const keyPathBase = 1 << 40

func newKeyPathModel(t *testing.T, kind string, k int) *keyPathModel {
	t.Helper()
	rng := xrand.New(uint64(300 + k))
	net := sim.NewNetwork(12)
	net.EnableDurability(0)
	net.PauseDurability()
	initial := distinctKeys(rng, 200, 1<<32)
	for i := range initial {
		initial[i] += keyPathBase
	}
	m := &keyPathModel{t: t, net: net, keys: map[uint64]bool{}, rng: rng}
	var err error
	if kind == "blocked" {
		m.w, err = NewBlockedWeb(net, initial, BlockedConfig{Seed: uint64(k), M: 8, Replicas: k})
	} else if m.b, err = NewBucketWeb(net, initial, 4, 8, uint64(k), k); err == nil {
		m.w = m.b.web
	}
	if err != nil {
		t.Fatal(err)
	}
	net.ResumeDurability()
	for _, key := range initial {
		m.keys[key] = true
	}
	return m
}

func (m *keyPathModel) origin() sim.HostID {
	return m.net.LiveAt(m.rng.Intn(m.net.LiveHosts()))
}

// checkPaths runs keyPath on probe keys — random ones, separators and
// their neighbours — and compares its bit path with the set tree's and
// each level's floor with that level's Locate.
func (m *keyPathModel) checkPaths(stage string) {
	m.t.Helper()
	w := m.w
	m.ground = w.Ground().AppendKeys(m.ground[:0])
	for i := 0; i < 6; i++ {
		q := m.rng.Uint64n(keyPathBase + 1<<33)
		if len(m.ground) > 0 && i%3 != 0 {
			q = m.ground[m.rng.Intn(len(m.ground))] + uint64(i%3) - 1
		}
		path, leafFloor := w.keyPath(q, true)
		floors := w.floorScratch
		n := w.root
		for i := range path {
			if path[i] != n {
				m.t.Fatalf("%s: keyPath(%d) strays from the bit path at depth %d", stage, q, i)
			}
			if want := n.lvl.Locate(q); floors[i] != want {
				m.t.Fatalf("%s: keyPath(%d) floor at depth %d is range %d, Locate says %d", stage, q, i, floors[i], want)
			}
			if n.kids[0] != nil {
				n = n.kids[w.bit(q, n.depth)]
			}
		}
		if n.kids[0] != nil || path[len(path)-1] != n {
			m.t.Fatalf("%s: keyPath(%d) stops above the leaf", stage, q)
		}
		if leafFloor != floors[len(path)-1] {
			m.t.Fatalf("%s: keyPath(%d) returns leaf floor %d, fills %d", stage, q, leafFloor, floors[len(path)-1])
		}
		if _, f := w.keyPath(q, false); f != leafFloor {
			m.t.Fatalf("%s: keyPath(%d) without floors returns leaf floor %d, want %d", stage, q, f, leafFloor)
		}
	}
}

// searchChain returns key's bit path and, per level, the range ByKey
// finds holding key: the reference for Delete's hyperlink chain.
func (m *keyPathModel) searchChain(key uint64) ([]*bnode, []RangeID) {
	m.t.Helper()
	var nodes []*bnode
	var ranges []RangeID
	for n := m.w.root; ; n = n.kids[m.w.bit(key, n.depth)] {
		r, ok := n.lvl.ByKey(key)
		if !ok {
			m.t.Fatalf("key %d missing at depth %d before its delete", key, n.depth)
		}
		nodes, ranges = append(nodes, n), append(ranges, r)
		if n.kids[0] == nil {
			return nodes, ranges
		}
	}
}

// checkChain asserts that the delete of key removed exactly the ranges
// ByKey named, on every level a merge did not release.
func (m *keyPathModel) checkChain(key uint64, nodes []*bnode, ranges []RangeID) {
	m.t.Helper()
	for i, n := range nodes {
		if n.lvl == nil {
			continue // released by the delete's merge
		}
		if n.lvl.live(ranges[i]) && n.lvl.Key(ranges[i]) == key {
			m.t.Fatalf("delete %d left range %d at depth %d live", key, ranges[i], n.depth)
		}
		if r, ok := n.lvl.ByKey(key); ok {
			m.t.Fatalf("delete %d left the key at depth %d in range %d", key, n.depth, r)
		}
	}
	m.chains++
}

// levelDigest folds every level's ranges in list order (id, key,
// hyperlink) and every block directory into one word: what a failed
// insert's unwind must restore. Slot capacity, free lists and the
// sorted-order index are execution state and left out.
func levelDigest(w *BlockedWeb) uint64 {
	h := uint64(14695981039346656037)
	add := func(v uint64) { h = (h ^ v) * 1099511628211 }
	w.eachNode(func(n *bnode) {
		add(uint64(n.depth))
		add(uint64(n.count))
		for r := n.lvl.Head(); r != NoRange; r = n.lvl.Next(r) {
			add(uint64(r))
			add(w.rangeKey(n, r))
			add(uint64(n.lvl.up(r)))
		}
		if n.base == n {
			for bi, host := range n.blockHosts {
				add(n.blockStarts[bi])
				add(uint64(host))
				add(uint64(n.blockSizes[bi]))
				if len(n.blockMirrors) > 0 {
					for _, mh := range n.blockMirrors[bi] {
						add(uint64(mh))
					}
				}
			}
		}
	})
	return h
}

// rekeys reports whether inserting key replaces the bucket web's lowest
// separator (a routing-web delete, then an insert).
func (m *keyPathModel) rekeys(key uint64) bool {
	if m.b == nil {
		return false
	}
	ground := m.w.Ground()
	first := ground.Next(ground.Head())
	return first != NoRange && key < ground.Key(first)
}

// insert attempts key. A failure must be a host-down error that leaves
// storage and every level as they were; a rekey that fails after its
// separator delete restores the old separator by the unrouted reinsert
// instead, which keeps the keys but may move ranges, so only the
// separator's return is checked there (and keyPath after it).
func (m *keyPathModel) insert(key uint64) {
	m.t.Helper()
	if m.keys[key] {
		return
	}
	origin := m.origin()
	rekey := m.rekeys(key)
	var oldMin uint64
	var nodes []*bnode
	var ranges []RangeID
	restores := false // a failed rekey would reach the reinsert
	if rekey {
		oldMin = m.w.Ground().Key(m.w.Ground().Next(0))
		nodes, ranges = m.searchChain(oldMin)
		// The rekey's routed steps before its separator insert descend
		// exactly as these queries do.
		_, _, _, err1 := m.w.Query(key, origin)
		_, _, _, err2 := m.w.Query(oldMin, origin)
		restores = err1 == nil && err2 == nil
	}
	var storage []int64
	var levels uint64
	if m.down {
		storage, levels = hostImages(m.net), levelDigest(m.w)
	}
	leaves, blocks, buckets := len(m.w.leaves), m.w.blockCount(), 0
	var err error
	if m.b == nil {
		_, err = m.w.Insert(key, origin)
	} else {
		buckets = m.b.NumBuckets()
		_, err = m.b.Insert(key, origin)
	}
	switch {
	case err == nil:
		m.keys[key] = true
		if rekey {
			m.checkChain(oldMin, nodes, ranges)
		}
		if m.down && m.b != nil && !rekey && m.b.NumBuckets() == buckets && levelDigest(m.w) != levels {
			m.t.Fatalf("insert %d split no bucket but changed the separator web", key)
		}
	case !errors.Is(err, sim.ErrHostDown):
		m.t.Fatalf("insert %d: %v, want a host-down error", key, err)
	case rekey:
		if _, ok := m.w.Ground().ByKey(oldMin); !ok {
			m.t.Fatalf("failed rekey to %d did not restore separator %d", key, oldMin)
		}
		if restores {
			m.reinserts++
		}
	default:
		m.failed++
		if !slices.Equal(hostImages(m.net), storage) {
			m.t.Fatalf("failed insert %d changed per-host storage", key)
		}
		if levelDigest(m.w) != levels {
			m.t.Fatalf("failed insert %d changed the levels", key)
		}
	}
	if len(m.w.leaves) > leaves {
		m.leafSplits++
	}
	if m.w.blockCount() > blocks {
		m.blockSplits++
	}
}

// delete removes a stored key: from the web itself, checking its chain,
// or from its bucket.
func (m *keyPathModel) delete(key uint64) {
	m.t.Helper()
	var err error
	if m.b != nil {
		_, err = m.b.Delete(key, m.origin())
	} else {
		nodes, ranges := m.searchChain(key)
		var storage []int64
		var levels uint64
		if m.down {
			storage, levels = hostImages(m.net), levelDigest(m.w)
		}
		leaves := len(m.w.leaves)
		if _, err = m.w.Delete(key, m.origin()); err == nil {
			m.checkChain(key, nodes, ranges)
			if len(m.w.leaves) < leaves {
				m.leafMerges++
			}
		} else if !slices.Equal(hostImages(m.net), storage) || levelDigest(m.w) != levels {
			m.t.Fatalf("failed delete %d (%v) changed the web", key, err)
		}
	}
	switch {
	case err == nil:
		delete(m.keys, key)
	case !errors.Is(err, sim.ErrHostDown):
		m.t.Fatalf("delete %d: %v", key, err)
	}
}

// run applies steps random updates — inserts (every lowEvery-th below
// every stored separator, which rekeys a bucket web) and deletes of
// stored keys — checking key paths after each and, unless a host is down
// (a block then sits on a crashed host), the invariants every 25.
func (m *keyPathModel) run(stage string, steps, lowEvery int, hostsDown bool) {
	m.t.Helper()
	m.down = hostsDown
	stored := make([]uint64, 0, len(m.keys))
	for i := 0; i < steps; i++ {
		switch {
		case m.rng.Intn(100) < 40 && len(m.keys) > 0:
			stored = stored[:0]
			for key := range m.keys {
				stored = append(stored, key)
			}
			slices.Sort(stored)
			m.delete(stored[m.rng.Intn(len(stored))])
		case i%lowEvery == 0:
			low := uint64(keyPathBase)
			if g := m.w.Ground(); g.Len() > 0 {
				low = min(low, g.Key(g.Next(g.Head())))
			}
			if low > 1 {
				m.insert(m.rng.Uint64n(low-1) + 1)
			}
		default:
			m.insert(m.rng.Uint64n(1<<33) + keyPathBase)
		}
		m.checkPaths(fmt.Sprintf("%s step %d", stage, i))
		if !hostsDown && i%25 == 0 {
			m.checkInvariants(stage)
		}
	}
	if !hostsDown {
		m.checkInvariants(stage)
	}
}

func (m *keyPathModel) checkInvariants(stage string) {
	m.t.Helper()
	var err error
	if m.b != nil {
		err = m.b.CheckInvariants()
	} else {
		err = m.w.CheckInvariants()
	}
	if err != nil {
		m.t.Fatalf("%s: %v", stage, err)
	}
}

func (m *keyPathModel) restart(down []sim.HostID) {
	for i := len(down) - 1; i >= 0; i-- {
		m.net.Restart(down[i])
		op := m.net.NewOp(down[i])
		if m.b != nil {
			m.b.RestartHost(down[i], op)
		} else {
			m.w.RestartHost(down[i], op)
		}
		op.Free()
	}
}

// TestKeyPathMatchesSearch pins the hyperlink-derived update ranges of
// BlockedWeb and of BucketWeb's separator web against the searches they
// replace, at replication factors 1 to 3. A random insert/delete stream
// (leaf splits and merges, block splits, bucket splits and separator
// rekeys) runs healthy; then with k adjacent hosts crashed, so inserts
// fail half-way up their climb and rekeys fail into the unrouted
// reinsert; then after a restart, and at k > 1 across a crash and
// Repair. After every update keyPath's floors must equal each level's
// Locate, every delete must remove exactly the ranges ByKey named, and
// every failed insert must leave storage and levels as they were.
func TestKeyPathMatchesSearch(t *testing.T) {
	for _, kind := range []string{"blocked", "bucket"} {
		var ran, leafSplits, leafMerges, blockSplits, chains, failed, reinserts int
		for k := 1; k <= 3; k++ {
			t.Run(fmt.Sprintf("%s/k%d", kind, k), func(t *testing.T) {
				ran++
				m := newKeyPathModel(t, kind, k)
				m.checkPaths("bulk build")
				m.run("healthy", 100, 10, false)
				down := []sim.HostID{m.net.LiveAt(2), m.net.LiveAt(3), m.net.LiveAt(4)}[:k]
				for _, h := range down {
					m.net.Crash(h)
				}
				m.run("hosts down", 100, 2, true)
				m.restart(down)
				m.run("restarted", 50, 10, false)
				if k > 1 {
					down := m.net.LiveAt(5)
					m.net.Crash(down)
					op := m.net.NewOp(sim.None)
					var err error
					if m.b != nil {
						err = m.b.Repair(op)
					} else {
						err = m.w.Repair(op)
					}
					op.Free()
					if err != nil {
						t.Fatalf("repair: %v", err)
					}
					m.run("repaired", 50, 10, false)
				}
				leafSplits += m.leafSplits
				leafMerges += m.leafMerges
				blockSplits += m.blockSplits
				chains += m.chains
				failed += m.failed
				reinserts += m.reinserts
			})
		}
		if ran < 3 {
			continue // a -run filter picked some factors: the path tally is partial
		}
		t.Logf("%s: %d leaf splits, %d leaf merges, %d block splits, %d delete chains, %d failed inserts, %d failed rekeys",
			kind, leafSplits, leafMerges, blockSplits, chains, failed, reinserts)
		if leafSplits == 0 || blockSplits == 0 || chains == 0 || failed == 0 {
			t.Fatalf("%s: the stream missed a path", kind)
		}
		if kind == "blocked" && leafMerges == 0 {
			t.Fatal("blocked: no delete merged a subtree")
		}
		if kind == "bucket" && reinserts == 0 {
			t.Fatal("bucket: no rekey failed into the unrouted reinsert")
		}
	}
}
