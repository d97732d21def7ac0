// Benchmarks regenerating each of the paper's evaluation artifacts; see
// EXPERIMENTS.md for the recorded paper-vs-measured outcomes. Each
// benchmark reports the paper's cost metric (messages per operation) via
// b.ReportMetric, so `go test -bench=.` reproduces the shapes without
// reading timing output.
package skipwebs

import (
	"fmt"
	"testing"

	"github.com/skipwebs/skipwebs/internal/bucketskipgraph"
	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/detskipnet"
	"github.com/skipwebs/skipwebs/internal/experiments"
	"github.com/skipwebs/skipwebs/internal/familytree"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/skipgraph"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

const benchN = 4096

func benchKeys(extra int) []uint64 {
	return experiments.Keys(xrand.New(1), benchN+extra, 1<<40)
}

// --- Table 1 (E1): one benchmark per method, reporting msgs/query.

func runQueryBench(b *testing.B, search func(q uint64, o sim.HostID) int, hosts int) {
	b.Helper()
	rng := xrand.New(2)
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total += search(rng.Uint64n(1<<40), sim.HostID(rng.Intn(hosts)))
	}
	b.ReportMetric(float64(total)/float64(b.N), "msgs/query")
}

func BenchmarkTable1_SkipGraph(b *testing.B) {
	net := sim.NewNetwork(benchN)
	g := skipgraph.New(net, 1, false)
	if err := g.Build(benchKeys(0)); err != nil {
		b.Fatal(err)
	}
	runQueryBench(b, func(q uint64, o sim.HostID) int { _, _, h := g.Search(q, o); return h }, benchN)
}

func BenchmarkTable1_NoNSkipGraph(b *testing.B) {
	net := sim.NewNetwork(benchN)
	g := skipgraph.New(net, 1, true)
	if err := g.Build(benchKeys(0)); err != nil {
		b.Fatal(err)
	}
	runQueryBench(b, func(q uint64, o sim.HostID) int { _, _, h := g.Search(q, o); return h }, benchN)
}

func BenchmarkTable1_FamilyTree(b *testing.B) {
	net := sim.NewNetwork(benchN)
	f := familytree.New(net, 1)
	if err := f.Build(benchKeys(0)); err != nil {
		b.Fatal(err)
	}
	runQueryBench(b, func(q uint64, o sim.HostID) int { _, _, h := f.Search(q, o); return h }, benchN)
}

func BenchmarkTable1_DeterministicSkipNet(b *testing.B) {
	net := sim.NewNetwork(benchN)
	l := detskipnet.New(net)
	if err := l.Build(benchKeys(0)); err != nil {
		b.Fatal(err)
	}
	runQueryBench(b, func(q uint64, o sim.HostID) int { _, _, h := l.Search(q, o); return h }, benchN)
}

func BenchmarkTable1_BucketSkipGraph(b *testing.B) {
	hosts := benchN / 8
	net := sim.NewNetwork(hosts)
	g := bucketskipgraph.New(net, 1, 8)
	if err := g.Build(benchKeys(0)); err != nil {
		b.Fatal(err)
	}
	runQueryBench(b, func(q uint64, o sim.HostID) int { _, _, h := g.Search(q, o); return h }, hosts)
}

func BenchmarkTable1_SkipWeb(b *testing.B) {
	net := sim.NewNetwork(benchN)
	w, err := core.NewBlockedWeb(net, benchKeys(0), core.BlockedConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	runQueryBench(b, func(q uint64, o sim.HostID) int { _, _, h, _ := w.Query(q, o); return h }, benchN)
}

func BenchmarkTable1_BucketSkipWeb(b *testing.B) {
	hosts := benchN / 8
	net := sim.NewNetwork(hosts)
	w, err := core.NewBucketWeb(net, benchKeys(0), 8, 0, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	runQueryBench(b, func(q uint64, o sim.HostID) int { _, _, h, _ := w.Query(q, o); return h }, hosts)
}

func BenchmarkTable1_Updates(b *testing.B) {
	// Update cost comparison: msgs/insert for the two headline methods.
	for _, method := range []string{"skipgraph", "skipweb"} {
		b.Run(method, func(b *testing.B) {
			keys := benchKeys(b.N)
			net := sim.NewNetwork(benchN + b.N)
			var insert func(k uint64, o sim.HostID) (int, error)
			switch method {
			case "skipgraph":
				g := skipgraph.New(net, 1, false)
				if err := g.Build(keys[:benchN]); err != nil {
					b.Fatal(err)
				}
				insert = g.Insert
			case "skipweb":
				w, err := core.NewBlockedWeb(net, keys[:benchN], core.BlockedConfig{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				insert = w.Insert
			}
			total := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := insert(keys[benchN+i], sim.HostID(i%benchN))
				if err != nil {
					b.Fatal(err)
				}
				total += h
			}
			b.ReportMetric(float64(total)/float64(b.N), "msgs/insert")
		})
	}
}

// --- Lemmas (E2–E5): conflict-list size per halving trial.

func BenchmarkLemma1Halving(b *testing.B) {
	b.ReportAllocs()
	rep, err := experiments.Lemma1(experiments.LemmaConfig{Sizes: []int{benchN}, Trials: b.N, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.Rows[0].Mean, "conflicts/trial")
}

func BenchmarkLemma3Halving(b *testing.B) {
	b.ReportAllocs()
	rep, err := experiments.Lemma3(experiments.LemmaConfig{Sizes: []int{benchN}, Trials: b.N, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.Rows[0].Mean, "conflicts/trial")
}

func BenchmarkLemma4Halving(b *testing.B) {
	b.ReportAllocs()
	rep, err := experiments.Lemma4(experiments.LemmaConfig{Sizes: []int{benchN}, Trials: b.N, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.Rows[0].Mean, "conflicts/trial")
}

func BenchmarkLemma5Halving(b *testing.B) {
	b.ReportAllocs()
	rep, err := experiments.Lemma5(experiments.LemmaConfig{Sizes: []int{512}, Trials: b.N, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.Rows[0].Mean, "conflicts/trial")
}

// --- Theorem 2 (E6): multi-dimensional query routing.

func BenchmarkTheorem2MultiDim(b *testing.B) {
	for _, kind := range []string{"quadtree-uniform", "quadtree-clustered", "trie-uniform", "trie-sharedprefix"} {
		b.Run(kind, func(b *testing.B) {
			rng := xrand.New(3)
			cluster := NewCluster(1024)
			var search func(i int) int
			switch kind {
			case "quadtree-uniform", "quadtree-clustered":
				var pts []Point
				if kind == "quadtree-uniform" {
					for _, p := range experiments.UniformPoints(rng, 2, 1024, 1<<30) {
						pts = append(pts, Point(p))
					}
				} else {
					for _, p := range experiments.ClusteredPoints(rng, 1024) {
						pts = append(pts, Point(p))
					}
				}
				w, err := NewPoints(cluster, 2, pts, Options{Seed: 3})
				if err != nil {
					b.Fatal(err)
				}
				search = func(i int) int {
					q := Point{uint32(rng.Uint64n(1 << 30)), uint32(rng.Uint64n(1 << 30))}
					loc, err := w.Locate(q, HostID(i%1024))
					if err != nil {
						b.Fatal(err)
					}
					return loc.Hops
				}
			case "trie-uniform", "trie-sharedprefix":
				var keys []string
				if kind == "trie-uniform" {
					keys = experiments.UniformStrings(rng, 1024, "acgt", 4, 24)
				} else {
					keys = experiments.SharedPrefixStrings(1024)
				}
				w, err := NewStrings(cluster, keys, Options{Seed: 3})
				if err != nil {
					b.Fatal(err)
				}
				search = func(i int) int {
					loc, err := w.Search(keys[i%len(keys)], HostID(i%1024))
					if err != nil {
						b.Fatal(err)
					}
					return loc.Hops
				}
			}
			total := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += search(i)
			}
			b.ReportMetric(float64(total)/float64(b.N), "msgs/query")
		})
	}
}

// --- Theorem 2 (E7): blocking sweep over M.

func BenchmarkTheorem2Blocking(b *testing.B) {
	keys := benchKeys(0)
	for _, m := range []int{4, 16, 256} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			net := sim.NewNetwork(benchN)
			w, err := core.NewBlockedWeb(net, keys, core.BlockedConfig{Seed: 3, M: m})
			if err != nil {
				b.Fatal(err)
			}
			rng := xrand.New(4)
			total := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, h, _ := w.Query(rng.Uint64n(1<<40), sim.HostID(rng.Intn(benchN)))
				total += h
			}
			b.ReportMetric(float64(total)/float64(b.N), "msgs/query")
		})
	}
}

// --- Section 4 (E8): update routing per structure.

func BenchmarkUpdates(b *testing.B) {
	for _, kind := range []string{"onedim", "quadtree", "trie"} {
		b.Run(kind, func(b *testing.B) {
			rng := xrand.New(5)
			cluster := NewCluster(1024)
			var insert func(i int) int
			switch kind {
			case "onedim":
				keys := experiments.Keys(rng, 1024+b.N, 1<<50)
				w, err := NewBlocked(cluster, keys[:1024], Options{Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				insert = func(i int) int {
					h, err := w.Insert(keys[1024+i], HostID(i%1024))
					if err != nil {
						b.Fatal(err)
					}
					return h
				}
			case "quadtree":
				raw := experiments.UniformPoints(rng, 2, 1024+b.N, 1<<30)
				var pts []Point
				for _, p := range raw {
					pts = append(pts, Point(p))
				}
				w, err := NewPoints(cluster, 2, pts[:1024], Options{Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				insert = func(i int) int {
					h, err := w.Insert(pts[1024+i], HostID(i%1024))
					if err != nil {
						b.Fatal(err)
					}
					return h
				}
			case "trie":
				keys := experiments.UniformStrings(rng, 1024+b.N, "acgt", 6, 24)
				w, err := NewStrings(cluster, keys[:1024], Options{Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				insert = func(i int) int {
					h, err := w.Insert(keys[1024+i], HostID(i%1024))
					if err != nil {
						b.Fatal(err)
					}
					return h
				}
			}
			total := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += insert(i)
			}
			b.ReportMetric(float64(total)/float64(b.N), "msgs/insert")
		})
	}
}

// --- E9: congestion under uniform load.

func BenchmarkCongestion(b *testing.B) {
	net := sim.NewNetwork(benchN)
	w, err := core.NewBlockedWeb(net, benchKeys(0), core.BlockedConfig{Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	net.ResetTraffic()
	rng := xrand.New(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Query(rng.Uint64n(1<<40), sim.HostID(rng.Intn(benchN)))
	}
	s := net.Snapshot()
	b.ReportMetric(float64(s.MaxCongestion)/float64(b.N), "maxtouch/query")
}

// --- Batch engine: wall-clock throughput of concurrent batch queries.

func BenchmarkBatchFloorThroughput(b *testing.B) {
	cluster := NewCluster(256)
	defer cluster.Close()
	keys := benchKeys(0)
	w, err := NewBlocked(cluster, keys, Options{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(10)
	const batch = 8192
	qs := make([]uint64, batch)
	for i := range qs {
		qs[i] = rng.Uint64n(1 << 40)
	}
	if _, err := w.FloorBatch(qs[:512], nil); err != nil { // warm the pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.FloorBatch(qs, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}

// BenchmarkWriteBatchDispatch is the write-batch dispatch profile: 256
// hosts, Blocked and Bucketed with four write stripes over 65,536 keys,
// and per iteration an InsertBatch then a DeleteBatch of 256 fresh keys
// on each, one origin per host — the shape of the benchmark module's
// update-batch workload. Run it with -cpuprofile to see where a write
// batch spends its CPU: the engine's descent and update versus the
// hand-off of each op to its origin host (sim.Cluster.RunAs).
func BenchmarkWriteBatchDispatch(b *testing.B) {
	const hosts, items, batch, batches = 256, 65536, 256, 64
	all := experiments.Keys(xrand.New(11), items+batch*batches, 1<<40)
	cluster := NewCluster(hosts)
	defer cluster.Close()
	opts := Options{Seed: 12, WriteStripes: 4}
	bl, err := NewBlocked(cluster, all[:items], opts)
	if err != nil {
		b.Fatal(err)
	}
	bu, err := NewBucketed(cluster, all[:items], opts)
	if err != nil {
		b.Fatal(err)
	}
	type writer interface {
		InsertBatch(keys []uint64, origins []HostID) ([]int, error)
		DeleteBatch(keys []uint64, origins []HostID) ([]int, error)
	}
	webs := []writer{bl, bu}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := all[items+batch*(i%batches):][:batch]
		for _, w := range webs {
			if _, err := w.InsertBatch(fresh, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := w.DeleteBatch(fresh, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(4*batch)*float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}

// --- Figures: structure regeneration cost (and smoke coverage).

func BenchmarkFigure2Census(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(uint64(i), 1024); err != nil {
			b.Fatal(err)
		}
	}
}
