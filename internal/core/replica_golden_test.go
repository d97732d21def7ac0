package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// The replica transcript golden. The churn, failover and durability tests
// check invariants and ratios; at k > 1 nothing else pins the exact
// per-host counts the replica layer charges. This test drives every engine
// through one fixed schedule — build, updates, leave + Rehome, join +
// Rebalance + Repair, crash, write-through updates, Repair, and on a
// durable fabric a second crash, more updates and Restart + RestartHost —
// and after every phase folds every host's message, storage and durable-
// image counter and every operation's hop count into one running hash.
// The constants were recorded at the commit before the replica layer was
// unified (internal/core/replicas.go) and must never move: placement
// draws, write-through charges, recorded misses, repair copies and merkle
// reconcile prices are all in the hash. One deliberate exception: the six
// durable blocked and bucket rows were re-recorded from phase 2 on when
// BlockedWeb's churn moved onto retargetUnits. Its former retarget
// discharged and recharged every range of a moved span at every replica
// of the block, and on a durable fabric each of those storage writes
// billed a WAL append at hosts whose storage netted to zero
// (TestChurnChargesOnlyMovedHosts). Non-durable rows did not move.

// transcript is the running FNV-1a fold of everything observed so far.
type transcript struct{ h uint64 }

func (t *transcript) fold(vs ...int64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			t.h ^= uint64(v>>(8*i)) & 0xff
			t.h *= 1099511628211
		}
	}
}

func (t *transcript) foldErr(err error) {
	switch {
	case err == nil:
		t.fold(0)
	case errors.Is(err, sim.ErrHostDown):
		t.fold(1)
	default:
		t.fold(2)
	}
}

func (t *transcript) foldNet(net *sim.Network) {
	for h := 0; h < net.Hosts(); h++ {
		id := sim.HostID(h)
		t.fold(net.Messages(id), net.Storage(id), net.DurableImage(id))
	}
}

// goldenEngine is the face of one engine the schedule drives.
type goldenEngine struct {
	insert, remove, query func(k uint64, origin sim.HostID) (int, error)
	size                  func() int
	rehome                func(from sim.HostID, op *sim.Op)
	rebalance             func(onto sim.HostID, op *sim.Op)
	repair                func(op *sim.Op) error
	restart               func(h sim.HostID, op *sim.Op) int
	check                 func() error
	// units lists every replica unit's hosts, slot order, in the
	// engine's churn order.
	units func() [][]sim.HostID
	// tearsOnHostDown marks the engines whose Insert could stop half-way
	// through its climb on a host-down error (the torn-insert bug, fixed
	// and pinned separately): while an unreplicated unit is unreachable
	// the schedule sends them deletes and queries only, so the transcript
	// is the same before and after that fix.
	tearsOnHostDown bool
}

var goldenBuilders = map[string]func(net *sim.Network, keys []uint64, k int) (goldenEngine, error){
	"web": func(net *sim.Network, keys []uint64, k int) (goldenEngine, error) {
		w, err := NewWeb[*ListLevel, uint64, uint64](NewListOps(), net, keys, Config{Seed: 41, Replicas: k})
		if err != nil {
			return goldenEngine{}, err
		}
		return goldenEngine{
			insert: w.Insert, remove: w.Delete,
			query: func(q uint64, origin sim.HostID) (int, error) {
				res, err := w.Query(q, origin)
				return res.Hops, err
			},
			size: w.Len, rehome: w.Rehome, rebalance: w.Rebalance, repair: w.Repair,
			restart: w.RestartHost, check: w.CheckInvariants,
			units: func() [][]sim.HostID { return unitHosts(w.eachUnit) },
		}, nil
	},
	"blocked": func(net *sim.Network, keys []uint64, k int) (goldenEngine, error) {
		w, err := NewBlockedWeb(net, keys, BlockedConfig{Seed: 42, M: 8, Replicas: k})
		if err != nil {
			return goldenEngine{}, err
		}
		return goldenEngine{
			insert: w.Insert, remove: w.Delete,
			query: func(q uint64, origin sim.HostID) (int, error) {
				_, _, hops, err := w.Query(q, origin)
				return hops, err
			},
			size: w.Len, rehome: w.Rehome, rebalance: w.Rebalance, repair: w.Repair,
			restart: w.RestartHost, check: w.CheckInvariants, tearsOnHostDown: true,
			units: func() [][]sim.HostID { return unitHosts(w.eachBlock) },
		}, nil
	},
	"bucket": func(net *sim.Network, keys []uint64, k int) (goldenEngine, error) {
		b, err := NewBucketWeb(net, keys, 6, 8, 43, k)
		if err != nil {
			return goldenEngine{}, err
		}
		return goldenEngine{
			insert: b.Insert, remove: b.Delete,
			query: func(q uint64, origin sim.HostID) (int, error) {
				_, _, hops, err := b.Query(q, origin)
				return hops, err
			},
			size: b.Len, rehome: b.Rehome, rebalance: b.Rebalance, repair: b.Repair,
			restart: b.RestartHost, check: b.CheckInvariants, tearsOnHostDown: true,
			units: func() [][]sim.HostID {
				return append(unitHosts(b.web.eachBlock), unitHosts(b.eachBucket)...)
			},
		}, nil
	},
}

// goldenRun is one engine under the schedule: the network, the engine, a
// model of the stored keys and the transcript.
type goldenRun struct {
	t       *testing.T
	net     *sim.Network
	e       goldenEngine
	rng     *xrand.Rand
	present []uint64
	tr      *transcript
}

func newGoldenRun(t *testing.T, tr *transcript, engine string, hosts, keys, k int, durable bool, seed uint64) *goldenRun {
	t.Helper()
	rng := xrand.New(seed)
	net := sim.NewNetwork(hosts)
	if durable {
		net.EnableDurability(16)
		net.PauseDurability()
	}
	present := distinctKeys(rng, keys, 1<<32)
	for i := range present {
		present[i]++ // key 0 doubles as the head sentinel's block key
	}
	e, err := goldenBuilders[engine](net, present, k)
	if err != nil {
		t.Fatal(err)
	}
	net.ResumeDurability()
	return &goldenRun{t: t, net: net, e: e, rng: rng, present: present, tr: tr}
}

func (g *goldenRun) origin() sim.HostID {
	return g.net.LiveAt(g.rng.Intn(g.net.LiveHosts()))
}

// updates runs n operations — inserts of fresh keys, deletes of stored
// ones and floor queries — folding each one's hop count and outcome.
func (g *goldenRun) updates(n int, insertsAllowed bool) {
	for i := 0; i < n; i++ {
		var hops int
		var err error
		switch kind := g.rng.Intn(3); {
		case kind == 0 && insertsAllowed:
			// Anywhere in the key space, and one time in four below every
			// stored key (BucketWeb's separator-rekey path).
			k := g.rng.Uint64n(1<<33) + 1
			if g.rng.Intn(4) == 0 {
				k = g.rng.Uint64n(1<<22) + 1
			}
			for slices.Contains(g.present, k) {
				k++
			}
			hops, err = g.e.insert(k, g.origin())
			if err == nil {
				g.present = append(g.present, k)
			}
		case kind <= 1 && len(g.present) > 0:
			j := g.rng.Intn(len(g.present))
			hops, err = g.e.remove(g.present[j], g.origin())
			if err == nil {
				g.present[j] = g.present[len(g.present)-1]
				g.present = g.present[:len(g.present)-1]
			}
		default:
			hops, err = g.e.query(g.rng.Uint64n(1<<34), g.origin())
		}
		g.tr.fold(int64(hops))
		g.tr.foldErr(err)
	}
	g.tr.fold(int64(g.e.size()))
	g.tr.foldNet(g.net)
}

// churn runs one migration pass under a fresh op and folds its cost.
func (g *goldenRun) churn(at sim.HostID, pass func(op *sim.Op)) {
	op := g.net.NewOp(at)
	pass(op)
	g.tr.fold(int64(op.Hops()))
	op.Free()
	g.tr.foldNet(g.net)
}

func (g *goldenRun) leave(i int) {
	victim := g.net.LiveAt(i)
	g.net.RemoveHost(victim)
	g.churn(victim, func(op *sim.Op) { g.e.rehome(victim, op) })
	if st := g.net.Storage(victim); st != 0 {
		g.t.Fatalf("leaver %d still holds %d units", victim, st)
	}
}

func (g *goldenRun) join() {
	h := g.net.AddHost()
	g.churn(h, func(op *sim.Op) { g.e.rebalance(h, op) })
}

func (g *goldenRun) repair() {
	g.churn(sim.None, func(op *sim.Op) {
		err := g.e.repair(op)
		var dl *DataLossError
		if errors.As(err, &dl) {
			g.tr.fold(int64(dl.Units))
			for _, h := range dl.Hosts {
				g.tr.fold(int64(h))
			}
		} else if err != nil {
			g.t.Fatalf("repair: %v", err)
		}
	})
}

func (g *goldenRun) restart(h sim.HostID) {
	g.tr.fold(int64(g.net.Restart(h)))
	g.churn(h, func(op *sim.Op) { g.tr.fold(int64(g.e.restart(h, op))) })
}

func (g *goldenRun) mustCheck(when string) {
	g.t.Helper()
	if err := g.e.check(); err != nil {
		g.t.Fatalf("invariants %s: %v", when, err)
	}
}

// replicaTranscript runs the schedule and returns the hash after each phase.
func replicaTranscript(t *testing.T, engine string, k int, durable bool) []uint64 {
	tr := &transcript{h: 14695981039346656037}
	var phases []uint64
	mark := func() { phases = append(phases, tr.h) }

	g := newGoldenRun(t, tr, engine, 14, 360, k, durable, 1000+uint64(k))
	tr.foldNet(g.net)
	g.mustCheck("after build")
	mark() // build

	g.updates(90, true)
	g.mustCheck("after updates")
	mark() // updates

	g.leave(3)
	g.leave(7)
	g.mustCheck("after leave")
	mark() // leave + Rehome

	g.join()
	g.join()
	g.repair()
	g.mustCheck("after join")
	mark() // join + Rebalance + Repair

	first := g.net.LiveAt(5)
	g.net.Crash(first)
	tr.foldNet(g.net)
	mark() // crash

	// While an unreplicated unit is down, tearing engines get no inserts.
	g.updates(90, k > 1 || !g.e.tearsOnHostDown)
	mark() // write-through (or recorded misses) past the crashed host

	g.repair()
	if k > 1 {
		g.mustCheck("after crash repair")
	}
	mark() // Repair

	if durable {
		second := g.net.LiveAt(2)
		g.net.Crash(second)
		g.updates(90, k > 1 || !g.e.tearsOnHostDown)
		g.join() // address updates to the down host's replicas are misses too
		mark()   // second crash, unrepaired: every miss is recorded
		g.restart(second)
		g.restart(first)
		g.mustCheck("after restart")
		mark() // Restart + RestartHost: merkle reconcile, then a purge-only pass
		g.updates(40, true)
		g.mustCheck("after post-restart updates")
		mark()
	}

	// A second, tiny instance shrinks below the replication factor (the
	// drop-replica path of Rehome) and grows back (Repair's top-up).
	s := newGoldenRun(t, tr, engine, 4, 48, k, durable, 2000+uint64(k))
	s.leave(1)
	s.leave(0)
	s.mustCheck("after shrink")
	s.updates(30, true)
	mark() // shrink below k
	s.join()
	s.join()
	s.repair()
	s.mustCheck("after regrow")
	s.updates(30, true)
	mark() // regrow
	return phases
}

func TestReplicaTranscriptGolden(t *testing.T) {
	for _, engine := range []string{"web", "blocked", "bucket"} {
		for k := 1; k <= 3; k++ {
			for _, durable := range []bool{false, true} {
				name := fmt.Sprintf("%s/k%d/durable=%v", engine, k, durable)
				t.Run(name, func(t *testing.T) {
					got := replicaTranscript(t, engine, k, durable)
					want := replicaGolden[name]
					if len(got) != len(want) {
						t.Fatalf("%d phases, golden has %d; actual row:\n%s", len(got), len(want), goldenRow(name, got))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("transcript diverges in phase %d (0-based); actual row:\n%s", i, goldenRow(name, got))
						}
					}
				})
			}
		}
	}
}

// goldenRow renders one row of replicaGolden as Go source.
func goldenRow(name string, phases []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\t%q: {", name)
	for i, p := range phases {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%#x", p)
	}
	b.WriteString("},")
	return b.String()
}

// replicaGolden holds, per engine × k × durability, the transcript hash
// after each phase of replicaTranscript.
var replicaGolden = map[string][]uint64{
	"web/k1/durable=false":     {0xaa533387c802671e, 0x97bd8ed529c42b60, 0x74f087b4a5a3b4a2, 0x9dec6087af21f4ac, 0xb351b582737d0ef6, 0xa0bf4c0f0b5b6be5, 0xc1d8deaa6f877763, 0xfcb93a16251bfdbe, 0xd89380b871358638},
	"web/k1/durable=true":      {0xe8f102d18214b4fd, 0x3d668c28a97a77e0, 0xc6f7a4148eee1765, 0x83fe3d7726853fb8, 0xbb3b69b5a73f8e9b, 0x3bc2b4da5eee9935, 0x2378f5246c00e7d1, 0x4bd3a0ea5ffc7670, 0x4431892dc8f5c6e1, 0x261787a0156e4579, 0xc525db1c90879426, 0x4c7cfaf50223cde4},
	"web/k2/durable=false":     {0x1fdba3625056019b, 0xd9b5000743237cf3, 0xd2a44ea5e29803f6, 0x2edb6adb604bdadf, 0xd493d5f97c29f52, 0xf9571ba5e4e1e759, 0x2b64115b4716b20, 0x1c535a76971b6c8f, 0x7b6d73da0208d981},
	"web/k2/durable=true":      {0xdf18d65b32c3ff39, 0xb781baacd0c947f7, 0x2d1c68464e51e5f0, 0xe7c195b3c76613e3, 0x629ad8fc38bf143a, 0x97ade69d5f85bb44, 0x7f8fb8eee5e6d626, 0x1a11bc634dcc29ce, 0xaa837cd254d67c58, 0x4ae7a9555c7bf07c, 0x6af272241b888833, 0x9187b292eadd7820},
	"web/k3/durable=false":     {0x554935089a8e58eb, 0x2510cdc0677992af, 0x84c7c5fe40207400, 0xff16f11e50cc4623, 0x63d52e90d5a769f4, 0xd120e7bc9007b521, 0x48f7d229c2474d02, 0x3a3a7764be7b2298, 0x5c38f0b6913e516},
	"web/k3/durable=true":      {0xc6ae33e837fb5e3d, 0x86308543bf09c511, 0x31244e2084cbbd07, 0xb213bdedf3c650e2, 0xc497fee747678884, 0xbad3d6318f87988f, 0x22b3c6d068b0c566, 0xe8213af33f83281a, 0x7e70187e83c98a41, 0x55d8f900f3690aef, 0x586a5553683415ed, 0xa4533291de3102c3},
	"blocked/k1/durable=false": {0x1bb8cadf863b3954, 0xc621569fd88d15fd, 0xbe6be42e41329b3f, 0x709e04e2b7e13a17, 0xf0bdc8e80a1824e6, 0x124ccb717689d918, 0x9747d8a858803a50, 0x46fe3e1061156fdc, 0x17f2b1719440b519},
	"blocked/k1/durable=true":  {0x66b9bea44c233d69, 0x81d2f8d7d2b544c0, 0xbda940d8462701fc, 0x997bb1f375e472c3, 0xd796d308691f1ebe, 0x6476e7849c3dbd05, 0x4f174059c1d32498, 0x45ef5137fe2e3a36, 0x188d7762bb6ae6e7, 0xf94be2afe46e04d0, 0xc61c2bf881837dda, 0x9542a0956eb0db79},
	"blocked/k2/durable=false": {0x43fa6c37f39ad085, 0x7337d6ad2877a6a5, 0xb8a2fea2b59fdf07, 0x6321f664a85658f1, 0xd011ae362fd5c2b, 0xf90b19e1832789d9, 0x10804eff6ac8b0ed, 0x325f03605d4bdb1b, 0xe6f0ca2313a0acaa},
	"blocked/k2/durable=true":  {0xcbb7a576602775e5, 0xfc2284ad3fb760aa, 0x1616b193166156cc, 0x6222e6a771941565, 0xabf34de0e6ad1c0a, 0x7ccf9ba74b3fdfe6, 0x2fe3e7afbd0b0d64, 0x65f0ed9a1290640, 0xa409e65c6e6c86eb, 0x89739c85df2126fd, 0x7daaf324a0e0f27, 0x51619a985bfe5648},
	"blocked/k3/durable=false": {0x36e00d3f22ae41df, 0x6309d120fb35c22d, 0xc356eded948605a, 0xbd43cb5bff85d650, 0xb4b1d40447639843, 0xccfb839499876673, 0x441dee98a3f9ece, 0x6abfe11db89fa454, 0xa25cca7fbeb75876},
	"blocked/k3/durable=true":  {0x67e10b019de357bd, 0x18b0d0d0d60a43b1, 0x5b2046bdc79f9006, 0xa3b2c66d155d3ffc, 0x9e9eb31ddfe2f92d, 0x3d0dcea50a2dd3c4, 0xcb1e32923cb7d4c2, 0xb10521c82c1c5a18, 0x9cc81330c0fcb850, 0x138acbe9711b24fc, 0xc1db57acd496c0a6, 0x477a953a6719b77a},
	"bucket/k1/durable=false":  {0x97d4394131af636d, 0x9b845ba649d9aafc, 0x1f47a3484a035e4e, 0x206d15852d57c647, 0x5856df72826d1824, 0xb77fc56845afbb9, 0x9b6fac7f91ae7073, 0x909206a5102454ac, 0x38c2419d17666c24},
	"bucket/k1/durable=true":   {0xdd69ffbb045938a5, 0x860cc0260a9139c7, 0xb097a56d94bdd0f2, 0xbe353427d06a7d11, 0x538013b9fdc7687e, 0x23d10238316a3763, 0x60b5a0ba6f61d434, 0xcb0b597a22d2a0f3, 0xe00487a7f50d3e2d, 0xeb04b8e23d3e3ec7, 0xd1796745a4a7d83a, 0x6b2be93c711d0558},
	"bucket/k2/durable=false":  {0xcdc0e6debcd501c5, 0xb4a23c7f12cac7b2, 0x9c49727e1828adb7, 0x961fd2b31c18336e, 0xbd09f6d8f601da8, 0xf6d07fe68c571541, 0xd2ae89a8c5d7e35d, 0x8ff8708cfea5c4dd, 0x9702df376e7e8a0a},
	"bucket/k2/durable=true":   {0xc594f80e804347a5, 0x9c914750e5ce73a2, 0xa5ee280f1ee5e6eb, 0x65bad78293b50795, 0xe39fc8aa3616b9b0, 0x51646eabb8652611, 0xac6594ba572108bb, 0x143602de6de688c1, 0x4cb4d49c311a7a3b, 0xd575185774c3dfb2, 0xeb0fa02cccc6a4e0, 0x6c7b0db1cda0fe90},
	"bucket/k3/durable=false":  {0x390dafa04e67bec9, 0x2c87932e8567b6c7, 0xb9bf51ce2a7db8c9, 0xeeee4f1a192d5b68, 0x5d10721e5b195bf0, 0x27e0755c9df644f8, 0xb6a1f0f497aab826, 0x2e598acbc5d4b2, 0xb169bba938f081f2},
	"bucket/k3/durable=true":   {0xa5d1d5cca2580edd, 0xc6d851a549e31256, 0xa84e691d37065156, 0xa43b3610955dbbec, 0x9a61ee9ab31974ba, 0x47871c59a1de0c47, 0xc17bfd90f876e910, 0xa23af2b935d39f2d, 0x43ed5bfcb2e0b779, 0xeec969f861497ae3, 0x2016d692861948c5, 0x11d1f77f4684c2cb},
}
