package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// TestListSlotSize pins the range record at 24 bytes: the hyperlink
// BlockedWeb stores per range sits in what was the slot's padding, so
// the link costs no memory.
func TestListSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(lslot{}); got != 24 {
		t.Fatalf("lslot is %d bytes, want 24", got)
	}
}

// linkModel is a BlockedWeb under TestBlockedHyperlinks with the key set
// it should hold.
type linkModel struct {
	t    *testing.T
	net  *sim.Network
	w    *BlockedWeb
	keys map[uint64]bool
	rng  *xrand.Rand
}

// verify checks the web's invariants — every stored hyperlink among
// them — and that routed floors still agree with the model.
func (m *linkModel) verify(stage string) {
	m.t.Helper()
	if err := m.w.CheckInvariants(); err != nil {
		m.t.Fatalf("%s: %v", stage, err)
	}
	if m.w.Len() != len(m.keys) {
		m.t.Fatalf("%s: Len %d, model %d", stage, m.w.Len(), len(m.keys))
	}
	sorted := make([]uint64, 0, len(m.keys))
	for k := range m.keys {
		sorted = append(sorted, k)
	}
	slices.Sort(sorted)
	for i := 0; i < 64; i++ {
		q := m.rng.Uint64n(1 << 34)
		if i%2 == 0 && len(sorted) > 0 {
			q = sorted[m.rng.Intn(len(sorted))]
		}
		got, ok, _, err := m.w.Query(q, m.net.LiveAt(i%m.net.LiveHosts()))
		want, wok := bruteFloorSlice(sorted, q)
		if err != nil || ok != wok || (ok && got != want) {
			m.t.Fatalf("%s: floor(%d) = %d,%v,%v; want %d,%v", stage, q, got, ok, err, want, wok)
		}
	}
}

func (m *linkModel) insert(k uint64) {
	m.t.Helper()
	if m.keys[k] {
		return
	}
	if _, err := m.w.Insert(k, m.net.LiveAt(int(k)%m.net.LiveHosts())); err != nil {
		m.t.Fatalf("insert %d: %v", k, err)
	}
	m.keys[k] = true
}

func (m *linkModel) delete(k uint64) {
	m.t.Helper()
	if _, err := m.w.Delete(k, m.net.LiveAt(int(k)%m.net.LiveHosts())); err != nil {
		m.t.Fatalf("delete %d: %v", k, err)
	}
	delete(m.keys, k)
}

// blockCount is the number of blocks over every basic node.
func (w *BlockedWeb) blockCount() int {
	n := 0
	w.eachNode(func(bn *bnode) {
		if bn.base == bn {
			n += len(bn.blockStarts)
		}
	})
	return n
}

// TestBlockedHyperlinks checks the stored hyperlinks (lslot.up) after
// every path that creates, recycles or relinks ranges — bulk build,
// ascending and random inserts, deletes, a leaf split, merge and
// re-split, block splits, a torn insert's unwind, the unrouted reinsert
// of a BucketWeb separator rekey, and Join, Leave, Crash, Restart and
// Repair — at replication factors 1 to 3. Each stage runs the full
// CheckInvariants, which verifies every link, plus routed floors
// against a model; the last subtest corrupts links and expects the
// check to say so.
func TestBlockedHyperlinks(t *testing.T) {
	for k := 1; k <= 3; k++ {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			rng := xrand.New(uint64(40 + k))
			net := sim.NewNetwork(12)
			net.EnableDurability(0)
			net.PauseDurability()
			initial := distinctKeys(rng, 300, 1<<32)
			w, err := NewBlockedWeb(net, initial, BlockedConfig{Seed: uint64(k), M: 8, Replicas: k})
			if err != nil {
				t.Fatal(err)
			}
			net.ResumeDurability()
			m := &linkModel{t: t, net: net, w: w, keys: map[uint64]bool{}, rng: xrand.New(uint64(k))}
			for _, key := range initial {
				m.keys[key] = true
			}
			m.verify("bulk build")

			blocks := w.blockCount()
			for i := uint64(1); i <= 200; i++ {
				m.insert(1<<33 + i)
			}
			if w.blockCount() <= blocks {
				t.Fatal("ascending inserts split no block")
			}
			m.verify("ascending inserts and block splits")
			for i := 0; i < 200; i++ {
				m.insert(rng.Uint64n(1 << 33))
			}
			m.verify("random inserts")
			stored := make([]uint64, 0, len(m.keys))
			for key := range m.keys {
				stored = append(stored, key)
			}
			slices.Sort(stored)
			for i, key := range stored {
				if i%3 == 0 {
					m.delete(key)
				}
			}
			m.verify("deletes")

			// Unrouted reinsert, as a failed BucketWeb rekey restores its
			// separator.
			low := stored[1]
			m.delete(low)
			w.reinsert(low, net.LiveAt(0))
			m.keys[low] = true
			m.verify("reinsert")

			splitMergeSplit(t, k)
			tornInsertUnwind(t, k)
			bucketRekey(t, k)

			// Churn: none of it moves a range, so every link must survive.
			h := net.AddHost()
			op := net.NewOp(h)
			w.Rebalance(h, op)
			op.Free()
			m.verify("join")
			leaver := net.LiveAt(1)
			net.RemoveHost(leaver)
			op = net.NewOp(sim.None)
			w.Rehome(leaver, op)
			op.Free()
			m.verify("leave")
			down := net.LiveAt(2)
			net.Crash(down)
			net.Restart(down)
			op = net.NewOp(down)
			w.RestartHost(down, op)
			op.Free()
			m.verify("crash and restart")
			if k > 1 {
				down = net.LiveAt(3)
				net.Crash(down)
				op = net.NewOp(sim.None)
				if err := w.Repair(op); err != nil {
					t.Fatalf("repair: %v", err)
				}
				op.Free()
				m.verify("crash and repair")
			}
			for i := 0; i < 100; i++ {
				m.insert(rng.Uint64n(1 << 33))
			}
			m.verify("inserts after churn")
		})
	}
	t.Run("corrupted", corruptedLinks)
}

// splitMergeSplit grows a one-leaf web past LeafMax (the root leaf
// splits), shrinks it to MergeMin (its subtree merges back) and grows it
// again: the kids of the second split must link to the root's surviving
// ranges, some of them slots the first kids' keys vacated.
func splitMergeSplit(t *testing.T, k int) {
	t.Helper()
	net := sim.NewNetwork(8)
	w, err := NewBlockedWeb(net, nil, BlockedConfig{Seed: uint64(k), M: 8, Replicas: k, LeafMax: 4, MergeMin: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := &linkModel{t: t, net: net, w: w, keys: map[uint64]bool{}, rng: xrand.New(9)}
	for _, key := range []uint64{50, 10, 40, 20, 30} {
		m.insert(key)
	}
	if w.root.kids[0] == nil {
		t.Fatal("five keys over LeafMax 4 did not split the root")
	}
	m.verify("split")
	for _, key := range []uint64{10, 30, 50} {
		m.delete(key)
	}
	if w.root.kids[0] != nil {
		t.Fatal("two keys at MergeMin 2 did not merge the root")
	}
	m.verify("merge")
	for _, key := range []uint64{35, 5, 45, 25} {
		m.insert(key)
	}
	if w.root.kids[0] == nil {
		t.Fatal("six keys did not split the root again")
	}
	m.verify("re-split")
}

// tornInsertUnwind crashes k adjacent hosts of a durable web so some
// blocks lose every replica, drives inserts until several fail half-way
// up their climb and unwind, then restarts the hosts and checks every
// link (the torn_insert_test.go schedule).
func tornInsertUnwind(t *testing.T, k int) {
	t.Helper()
	rng := xrand.New(uint64(100 + k))
	net := sim.NewNetwork(10)
	net.EnableDurability(0)
	net.PauseDurability()
	initial := distinctKeys(rng, 400, 1<<32)
	w, err := NewBlockedWeb(net, initial, BlockedConfig{Seed: 7, M: 8, Replicas: k})
	if err != nil {
		t.Fatal(err)
	}
	net.ResumeDurability()
	m := &linkModel{t: t, net: net, w: w, keys: map[uint64]bool{}, rng: xrand.New(3)}
	for _, key := range initial {
		m.keys[key] = true
	}
	down := []sim.HostID{net.LiveAt(2), net.LiveAt(3), net.LiveAt(4)}[:k]
	for _, h := range down {
		net.Crash(h)
	}
	failed := 0
	for i := 0; i < 1500; i++ {
		key := rng.Uint64n(1<<33) + 1
		if m.keys[key] {
			continue
		}
		if _, err := w.Insert(key, net.LiveAt(i%net.LiveHosts())); err == nil {
			m.keys[key] = true
		} else if errors.Is(err, sim.ErrHostDown) {
			failed++
		} else {
			t.Fatalf("insert %d: %v", key, err)
		}
	}
	if failed == 0 {
		t.Fatal("no insert failed: the schedule does not exercise the unwind")
	}
	for i := len(down) - 1; i >= 0; i-- {
		net.Restart(down[i])
		op := net.NewOp(down[i])
		w.RestartHost(down[i], op)
		op.Free()
	}
	m.verify(fmt.Sprintf("torn-insert unwind (%d failed)", failed))
}

// bucketRekey inserts keys below a BucketWeb's lowest separator: each
// rekeys the separator (routing-web delete, then insert) and must leave
// the routing web's links intact.
func bucketRekey(t *testing.T, k int) {
	t.Helper()
	rng := xrand.New(uint64(200 + k))
	net := sim.NewNetwork(10)
	keys := distinctKeys(rng, 300, 1<<32)
	for i := range keys {
		keys[i] += 1 << 24
	}
	b, err := NewBucketWeb(net, keys, 6, 8, uint64(k), k)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range []uint64{1 << 23, 1 << 22, 1 << 21} {
		if _, err := b.Insert(key, net.LiveAt(i)); err != nil {
			t.Fatalf("rekey insert %d: %v", key, err)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("after rekey to %d: %v", key, err)
		}
	}
}

// corruptedLinks is the mutation evidence for the link check:
// CheckInvariants must report one corrupted link, a non-head range's or
// a head sentinel's, and pass again once it is restored.
func corruptedLinks(t *testing.T) {
	w, _, _ := newBlocked(t, 300, 8, 5)
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	kid := w.root.kids[1]
	r := kid.lvl.Next(kid.lvl.Next(kid.lvl.Head()))
	for _, c := range []struct {
		name string
		r    RangeID
		to   RangeID
	}{
		{"range links to its neighbour's parent range", r, w.root.lvl.Next(kid.lvl.up(r))},
		{"range links to the parent head", r, 0},
		{"head links to a key", kid.lvl.Head(), w.root.lvl.Next(0)},
	} {
		saved := kid.lvl.up(c.r)
		kid.lvl.setUp(c.r, c.to)
		err := w.CheckInvariants()
		kid.lvl.setUp(c.r, saved)
		if err == nil || !strings.Contains(err.Error(), "hyperlink") {
			t.Fatalf("%s: CheckInvariants = %v, want a hyperlink error", c.name, err)
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("%s: restored link still fails: %v", c.name, err)
		}
	}
}
