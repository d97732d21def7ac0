package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/skipwebs/skipwebs/internal/quadtree"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/trie"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// webSchedule drives one Web through an update and churn schedule over a
// fixed universe of candidate items, against the plainest possible model:
// one present bit per candidate. After every step verify compares the
// web's routed answers with a structure freshly built from the model.
type webSchedule[L, T, Q any] struct {
	ops      Ops[L, T, Q]
	net      *sim.Network
	w        *Web[L, T, Q]
	universe []T
	present  []bool
	size     int
	replicas int
	// describe names a range by what it covers (a key, a cell, a locus),
	// so terminals of two different structures can be compared.
	describe func(l L, r RangeID) string
}

// scheduleConfig splits at three items and merges at one, so a handful of
// updates walks a node through split, merge and split again.
func scheduleConfig(seed uint64, replicas int) Config {
	return Config{Seed: seed, LeafMax: 2, MergeMin: 1, Replicas: replicas}
}

func newWebSchedule[L, T, Q any](ops Ops[L, T, Q], hosts int, universe []T, initial int, cfg Config,
	describe func(L, RangeID) string) (*webSchedule[L, T, Q], error) {
	net := sim.NewNetwork(hosts)
	w, err := NewWeb(ops, net, universe[:initial], cfg)
	if err != nil {
		return nil, err
	}
	s := &webSchedule[L, T, Q]{ops: ops, net: net, w: w, universe: universe,
		present: make([]bool, len(universe)), size: initial, replicas: w.rep.k, describe: describe}
	for i := 0; i < initial; i++ {
		s.present[i] = true
	}
	return s, nil
}

func (s *webSchedule[L, T, Q]) origin(i int) sim.HostID {
	return s.net.LiveAt(i % s.net.LiveHosts())
}

// insert adds candidate i; inserting a present item must fail and change
// nothing.
func (s *webSchedule[L, T, Q]) insert(i int) error {
	_, err := s.w.Insert(s.universe[i], s.origin(i))
	if s.present[i] {
		if err == nil {
			return fmt.Errorf("insert of present item %v succeeded", s.universe[i])
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("insert %v: %w", s.universe[i], err)
	}
	s.present[i] = true
	s.size++
	return nil
}

// remove deletes candidate i; deleting an absent item must fail and
// change nothing.
func (s *webSchedule[L, T, Q]) remove(i int) error {
	_, err := s.w.Delete(s.universe[i], s.origin(i))
	if !s.present[i] {
		if err == nil {
			return fmt.Errorf("delete of absent item %v succeeded", s.universe[i])
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("delete %v: %w", s.universe[i], err)
	}
	s.present[i] = false
	s.size--
	return nil
}

// leave retires a live host and rehomes its ranges.
func (s *webSchedule[L, T, Q]) leave(i int) {
	if s.net.LiveHosts() <= s.replicas+1 {
		return
	}
	h := s.origin(i)
	s.net.RemoveHost(h)
	op := s.net.NewOp(sim.None)
	s.w.Rehome(h, op)
	op.Free()
}

// join adds a host, rebalances onto it and tops replica sets back up.
func (s *webSchedule[L, T, Q]) join() error {
	if s.net.Hosts() >= 24 {
		return nil
	}
	h := s.net.AddHost()
	op := s.net.NewOp(h)
	defer op.Free()
	s.w.Rebalance(h, op)
	return s.w.Repair(op)
}

// crash kills a host uncleanly and repairs; an unreplicated web would
// lose data, so there it is a plain (no-op) repair pass.
func (s *webSchedule[L, T, Q]) crash(i int) error {
	if s.replicas > 1 && s.net.LiveHosts() > s.replicas+1 {
		s.net.Crash(s.origin(i))
	}
	op := s.net.NewOp(sim.None)
	defer op.Free()
	return s.w.Repair(op)
}

// verify checks the engine's invariants (which include: every slot that
// is not a live range is empty) and every candidate's routed answer.
func (s *webSchedule[L, T, Q]) verify() error {
	if err := s.w.CheckInvariants(); err != nil {
		return err
	}
	if s.w.Len() != s.size {
		return fmt.Errorf("web holds %d items, model %d", s.w.Len(), s.size)
	}
	var model []T
	for i, x := range s.universe {
		if s.present[i] {
			model = append(model, x)
		}
	}
	ref, err := s.ops.Build(model)
	if err != nil {
		return err
	}
	ground := s.w.GroundStructure()
	for i, x := range s.universe {
		q := s.ops.QueryOf(x)
		res, err := s.w.Query(q, s.origin(i))
		if err != nil {
			return fmt.Errorf("query %v: %w", x, err)
		}
		got, want := s.describe(ground, res.Range), s.describe(ref, s.ops.Locate(ref, q))
		if got != want {
			return fmt.Errorf("query %v: web answers %s, model %s", x, got, want)
		}
	}
	return nil
}

func describeList(l *ListLevel, r RangeID) string {
	if l.IsHead(r) {
		return "head"
	}
	return fmt.Sprint(l.Key(r))
}

func describeCell(l *quadtree.Tree, r RangeID) string {
	id := quadtree.NodeID(r)
	if l.IsLeaf(id) {
		return fmt.Sprint(l.CellOf(id), l.PointAt(id))
	}
	return fmt.Sprint(l.CellOf(id))
}

func describeLocus(l *trie.Trie, r RangeID) string {
	id := trie.NodeID(r)
	return fmt.Sprintf("%q key=%v", l.Locus(id), l.IsKey(id))
}

// slotWatch records, for one node's slot table, which RangeIDs have been
// live before, and counts the ids that came back after being released.
type slotWatch struct {
	wasLive, everLive []bool
	reused            int
}

func (sw *slotWatch) observe(s *rangeSlab) {
	for i := range s.slots {
		if i >= len(sw.wasLive) {
			sw.wasLive = append(sw.wasLive, false)
			sw.everLive = append(sw.everLive, false)
		}
		live := s.slots[i].host != sim.None
		if live && !sw.wasLive[i] && sw.everLive[i] {
			sw.reused++
		}
		sw.wasLive[i] = live
		sw.everLive[i] = sw.everLive[i] || live
	}
}

// runRecycleSchedule walks the item count up and down between floor and
// the whole universe several times, verifying after every step, and then
// requires that the schedule really did recycle RangeIDs at the root and
// take the root through split, merge and split again.
func runRecycleSchedule[L, T, Q any](t *testing.T, s *webSchedule[L, T, Q], floor int, seed uint64) {
	t.Helper()
	rng := xrand.New(seed)
	var watch slotWatch
	splits, merges := 0, 0
	internal := s.w.root.kids[0] != nil
	growing := true
	for step := 0; step < 700; step++ {
		if s.size >= len(s.universe) {
			growing = false
		} else if s.size <= floor {
			growing = true
		}
		i := rng.Intn(len(s.universe))
		for s.present[i] == growing {
			i = (i + 1) % len(s.universe)
		}
		var err error
		if growing {
			err = s.insert(i)
		} else {
			err = s.remove(i)
		}
		if err == nil {
			err = s.verify()
		}
		if err != nil {
			t.Fatalf("step %d (%d items): %v", step, s.size, err)
		}
		watch.observe(&s.w.root.slab)
		if now := s.w.root.kids[0] != nil; now != internal {
			if internal = now; now {
				splits++
			} else {
				merges++
			}
		}
	}
	if watch.reused == 0 {
		t.Fatal("schedule never recycled a RangeID at the root")
	}
	if splits < 2 || merges < 1 {
		t.Fatalf("root split %d times and merged %d times; want split, merge, split", splits, merges)
	}
}

// TestSlotRecycling runs the recycle schedule on every dynamic Ops,
// unreplicated and at k = 3.
func TestSlotRecycling(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		replicas := replicas
		t.Run(fmt.Sprintf("list-k%d", replicas), func(t *testing.T) {
			keys := distinctKeys(xrand.New(101), 40, 1<<20)
			s, err := newWebSchedule[*ListLevel, uint64, uint64](NewListOps(), 8, keys, 0, scheduleConfig(11, replicas), describeList)
			if err != nil {
				t.Fatal(err)
			}
			runRecycleSchedule(t, s, 0, 201)
		})
		t.Run(fmt.Sprintf("quad-k%d", replicas), func(t *testing.T) {
			pts := randPoints(xrand.New(102), 2, 40, 1<<12)
			// An empty quadtree has no range to route to, so the schedule
			// never drains below one point.
			s, err := newWebSchedule[*quadtree.Tree, quadtree.Point, uint64](NewQuadOps(2), 8, pts, 1, scheduleConfig(12, replicas), describeCell)
			if err != nil {
				t.Fatal(err)
			}
			runRecycleSchedule(t, s, 1, 202)
		})
		t.Run(fmt.Sprintf("trie-k%d", replicas), func(t *testing.T) {
			strs := randStrings(xrand.New(103), 40, "ab", 1, 9)
			s, err := newWebSchedule[*trie.Trie, string, string](NewTrieOps(), 8, strs, 0, scheduleConfig(13, replicas), describeLocus)
			if err != nil {
				t.Fatal(err)
			}
			runRecycleSchedule(t, s, 0, 203)
		})
	}
}

// TestDroppedRangeForgetsDivergence pins the last clause of the recycle
// rule. The divergence a crashed replica slept through is recorded per
// (node, RangeID, host), and a delete's tombstone to a crashed replica
// records one for the very range it is about to drop: dropping the range
// must forget it, or the next range to receive that RangeID would start
// life marked stale at a host that never held it.
func TestDroppedRangeForgetsDivergence(t *testing.T) {
	keys := distinctKeys(xrand.New(106), 30, 1<<20)
	s, err := newWebSchedule[*ListLevel, uint64, uint64](NewListOps(), 4, keys, len(keys), scheduleConfig(14, 2), describeList)
	if err != nil {
		t.Fatal(err)
	}
	s.net.EnableDurability(0)
	down := s.net.LiveAt(0)
	if s.net.Storage(down) == 0 {
		t.Fatalf("host %d holds no replica; pick another seed", down)
	}
	s.net.Crash(down) // not repaired: write-throughs to it are suppressed and recorded
	for i := range keys {
		if err := s.remove(i); err != nil {
			t.Fatal(err)
		}
		for k := range s.w.rep.missed {
			n, r := k.unit.node, k.unit.r
			if !n.slab.placed(r) || !n.slab.replicas(r).has(k.h) {
				t.Fatalf("after delete %d: divergence still recorded for dropped range %d at host %d", i, r, k.h)
			}
		}
	}
}

// scheduleStepper is the non-generic face of a webSchedule, so one loop
// can drive webs over different link structures.
type scheduleStepper interface {
	insert(i int) error
	remove(i int) error
	leave(i int)
	join() error
	crash(i int) error
	verify() error
}

// fuzzUniverse is the candidate count of each FuzzWebUpdates web.
const fuzzUniverse = 24

// keyedEngine is one of the two keyed engines a keyedSchedule drives.
type keyedEngine struct {
	name           string
	insert, remove func(k uint64, origin sim.HostID) (int, error)
	query          func(k uint64, origin sim.HostID) (uint64, bool, int, error)
	rehome         func(from sim.HostID, op *sim.Op)
	rebalance      func(onto sim.HostID, op *sim.Op)
	repair         func(op *sim.Op) error
	restart        func(h sim.HostID, op *sim.Op) int
	check          func() error
	present        []bool
}

// keyedSchedule drives a BlockedWeb and a BucketWeb side by side on one
// durable fabric, each against its own present-bit model. Two anchor keys
// above the universe are never removed, so the bucket web never runs out
// of separators and most universe inserts take its separator-rekey path.
// Its crash step is an outage — crash, insert, restart — rather than the
// generic webs' crash + Repair: with every replica of some block down, an
// insert can fail half-way up its climb and must then leave no trace.
type keyedSchedule struct {
	net      *sim.Network
	engines  []*keyedEngine
	universe []uint64
	replicas int
}

func newKeyedSchedule(hosts int, universe []uint64, seed uint64, replicas int) (*keyedSchedule, error) {
	net := sim.NewNetwork(hosts)
	net.EnableDurability(0)
	anchors := []uint64{1 << 20, 1 << 21}
	w, err := NewBlockedWeb(net, anchors, BlockedConfig{Seed: seed, M: 2, LeafMax: 2, MergeMin: 1, Replicas: replicas})
	if err != nil {
		return nil, err
	}
	b, err := NewBucketWeb(net, anchors, 2, 2, seed, replicas)
	if err != nil {
		return nil, err
	}
	return &keyedSchedule{net: net, universe: universe, replicas: replicas, engines: []*keyedEngine{
		{"blocked", w.Insert, w.Delete, w.Query, w.Rehome, w.Rebalance, w.Repair, w.RestartHost, w.CheckInvariants, make([]bool, len(universe))},
		{"bucket", b.Insert, b.Delete, b.Query, b.Rehome, b.Rebalance, b.Repair, b.RestartHost, b.CheckInvariants, make([]bool, len(universe))},
	}}, nil
}

func (s *keyedSchedule) origin(i int) sim.HostID {
	return s.net.LiveAt(i % s.net.LiveHosts())
}

// update runs one insert or delete of candidate i on every engine. A call
// that must fail (present insert, absent delete) has to fail; one that
// should succeed may fail only with a host-down error during an outage,
// and then the model does not move.
func (s *keyedSchedule) update(i int, insert, outage bool) error {
	for _, e := range s.engines {
		call := e.remove
		if insert {
			call = e.insert
		}
		_, err := call(s.universe[i], s.origin(i))
		switch {
		case e.present[i] == insert:
			if err == nil {
				return fmt.Errorf("%s: redundant update of %d succeeded", e.name, s.universe[i])
			}
		case err == nil:
			e.present[i] = insert
		case !outage || !errors.Is(err, sim.ErrHostDown):
			return fmt.Errorf("%s: update of %d: %w", e.name, s.universe[i], err)
		}
	}
	return nil
}

func (s *keyedSchedule) insert(i int) error { return s.update(i, true, false) }
func (s *keyedSchedule) remove(i int) error { return s.update(i, false, false) }

func (s *keyedSchedule) leave(i int) {
	if s.net.LiveHosts() <= s.replicas+1 {
		return
	}
	h := s.origin(i)
	s.net.RemoveHost(h)
	op := s.net.NewOp(sim.None)
	defer op.Free()
	for _, e := range s.engines {
		e.rehome(h, op)
	}
}

func (s *keyedSchedule) join() error {
	if s.net.Hosts() >= 24 {
		return nil
	}
	h := s.net.AddHost()
	op := s.net.NewOp(h)
	defer op.Free()
	for _, e := range s.engines {
		e.rebalance(h, op)
		if err := e.repair(op); err != nil {
			return err
		}
	}
	return nil
}

// crash is the outage step: as many adjacent hosts as there are replicas
// go down at once (round-robin placement puts a unit's replicas on
// neighbours, so whole units become unreachable), four candidates are
// inserted past them, and the hosts restart and reconcile.
func (s *keyedSchedule) crash(i int) error {
	if s.net.LiveHosts() <= s.replicas+1 {
		return nil
	}
	down := []sim.HostID{s.origin(i)}
	for len(down) < s.replicas {
		down = append(down, s.net.NextLive(down[len(down)-1]))
	}
	for _, h := range down {
		s.net.Crash(h)
	}
	for j := 0; j < 4; j++ {
		if err := s.update((i+j)%len(s.universe), true, true); err != nil {
			return err
		}
	}
	for _, h := range down {
		s.net.Restart(h)
		op := s.net.NewOp(h)
		for _, e := range s.engines {
			e.restart(h, op)
		}
		op.Free()
	}
	return nil
}

func (s *keyedSchedule) verify() error {
	for _, e := range s.engines {
		if err := e.check(); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		for i, k := range s.universe {
			got, ok, _, err := e.query(k, s.origin(i))
			if err != nil {
				return fmt.Errorf("%s: query %d: %w", e.name, k, err)
			}
			if found := ok && got == k; found != e.present[i] {
				return fmt.Errorf("%s: key %d found %v, model says %v", e.name, k, found, e.present[i])
			}
		}
	}
	return nil
}

// FuzzWebUpdates decodes its input into an insert / delete / leave+Rehome /
// join+Rebalance / crash schedule and runs it on a sorted-list web, a trie
// web and a BlockedWeb/BucketWeb pair, verifying each against its model
// after every step. The crash step is crash+Repair on the generic webs and
// a durable outage — crash, insert, restart — on the keyed pair. Byte 0
// picks the replication factor and the placement seed; each later pair of
// bytes is one step. The seed corpus (testdata/fuzz/FuzzWebUpdates) holds a
// drain-to-empty schedule, a RangeID-reuse schedule and the torn-insert
// schedule (an outage insert that fails half-way up the climb).
func FuzzWebUpdates(f *testing.F) {
	keys := distinctKeys(xrand.New(104), fuzzUniverse, 1<<16)
	strs := randStrings(xrand.New(105), fuzzUniverse, "ab", 1, 9)
	f.Fuzz(func(t *testing.T, data []byte) { runUpdateSchedule(t, keys, strs, data) })
}

func runUpdateSchedule(t *testing.T, keys []uint64, strs []string, data []byte) {
	if len(data) == 0 {
		return
	}
	if len(data) > 513 {
		data = data[:513] // 256 steps is plenty; keeps one input cheap
	}
	cfg := scheduleConfig(uint64(data[0]>>1), 1+int(data[0]&1))
	list, err := newWebSchedule[*ListLevel, uint64, uint64](NewListOps(), 6, keys, 0, cfg, describeList)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newWebSchedule[*trie.Trie, string, string](NewTrieOps(), 6, strs, 0, cfg, describeLocus)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := newKeyedSchedule(6, keys, cfg.Seed, cfg.Replicas)
	if err != nil {
		t.Fatal(err)
	}
	webs := []struct {
		name string
		s    scheduleStepper
	}{{"list", list}, {"trie", tr}, {"keyed", pair}}
	for at := 1; at+1 < len(data); at += 2 {
		kind, arg := int(data[at]%5), int(data[at+1])
		for _, web := range webs {
			var err error
			switch {
			case kind <= 1:
				err = web.s.insert(arg % fuzzUniverse)
			case kind <= 3:
				err = web.s.remove(arg % fuzzUniverse)
			case arg%3 == 0:
				web.s.leave(arg / 3)
			case arg%3 == 1:
				err = web.s.join()
			default:
				err = web.s.crash(arg / 3)
			}
			if err == nil {
				err = web.s.verify()
			}
			if err != nil {
				t.Fatalf("%s: step %d (kind %d, arg %d): %v", web.name, at/2, kind, arg, err)
			}
		}
	}
}
