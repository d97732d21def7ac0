package core

import (
	"math"
	"sort"
	"testing"

	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

func bruteFloorSlice(keys []uint64, q uint64) (uint64, bool) {
	best, ok := uint64(0), false
	for _, k := range keys {
		if k <= q && (!ok || k > best) {
			best, ok = k, true
		}
	}
	return best, ok
}

func newBlocked(t testing.TB, n, m int, seed uint64) (*BlockedWeb, *sim.Network, []uint64) {
	t.Helper()
	rng := xrand.New(seed)
	keys := distinctKeys(rng, n, 1<<40)
	net := sim.NewNetwork(maxInt(n, 4))
	w, err := NewBlockedWeb(net, keys, BlockedConfig{Seed: seed, M: m})
	if err != nil {
		t.Fatal(err)
	}
	return w, net, keys
}

func TestBlockedQueryMatchesBruteForce(t *testing.T) {
	w, net, keys := newBlocked(t, 600, 16, 1)
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(71)
	for i := 0; i < 2000; i++ {
		q := rng.Uint64n(1 << 41)
		got, ok, _, _ := w.Query(q, sim.HostID(rng.Intn(net.Hosts())))
		want, wok := bruteFloorSlice(keys, q)
		if ok != wok || (ok && got != want) {
			t.Fatalf("query %d: got %d,%v want %d,%v", q, got, ok, want, wok)
		}
	}
}

func TestBlockedQueryStoredKeys(t *testing.T) {
	w, _, keys := newBlocked(t, 300, 8, 2)
	for _, k := range keys {
		got, ok, _, _ := w.Query(k, 0)
		if !ok || got != k {
			t.Fatalf("Query(%d) = %d,%v", k, got, ok)
		}
	}
}

func TestBlockedHopsImproveWithM(t *testing.T) {
	// At fixed n, raising M must lower query hops: Q = O(log n / log M).
	rng := xrand.New(3)
	const n = 8192
	keys := distinctKeys(rng, n, 1<<40)
	var means []float64
	for _, m := range []int{4, 16, 256} {
		net := sim.NewNetwork(n)
		w, err := NewBlockedWeb(net, keys, BlockedConfig{Seed: 3, M: m})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		const queries = 400
		qr := xrand.New(4)
		for i := 0; i < queries; i++ {
			_, _, hops, _ := w.Query(qr.Uint64n(1<<40), sim.HostID(qr.Intn(n)))
			total += hops
		}
		means = append(means, float64(total)/queries)
	}
	if !(means[0] > means[1] && means[1] > means[2]) {
		t.Fatalf("hops not decreasing in M: %v", means)
	}
	// M = 256 gives L = 8: hops should be well under half of M = 4 (L=2).
	if means[2] > means[0]*0.6 {
		t.Fatalf("large-M improvement too small: %v", means)
	}
}

func TestBlockedHopsSubLogarithmic(t *testing.T) {
	// With M = log n, hops/log(n) should SHRINK as n grows (the
	// log n / log log n separation from plain skip graphs).
	rng := xrand.New(5)
	var ratios []float64
	for _, n := range []int{512, 4096, 32768} {
		keys := distinctKeys(rng.Split(), n, 1<<50)
		net := sim.NewNetwork(n)
		w, err := NewBlockedWeb(net, keys, BlockedConfig{Seed: uint64(n)})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		const queries = 300
		qr := rng.Split()
		for i := 0; i < queries; i++ {
			_, _, hops, _ := w.Query(qr.Uint64n(1<<50), sim.HostID(qr.Intn(n)))
			total += hops
		}
		ratios = append(ratios, float64(total)/queries/math.Log2(float64(n)))
	}
	if ratios[2] >= ratios[0] {
		t.Fatalf("hops/log n not shrinking: %v", ratios)
	}
}

func TestBlockedInsertDelete(t *testing.T) {
	w, net, keys := newBlocked(t, 200, 16, 6)
	rng := xrand.New(7)
	extra := distinctKeys(rng, 500, 1<<40)
	present := map[uint64]bool{}
	for _, k := range keys {
		present[k] = true
	}
	inserted := 0
	for _, k := range extra {
		if present[k] {
			continue
		}
		if _, err := w.Insert(k, sim.HostID(int(k)%net.Hosts())); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		present[k] = true
		inserted++
		if inserted%50 == 0 {
			if err := w.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", inserted, err)
			}
		}
	}
	var all []uint64
	for k := range present {
		all = append(all, k)
	}
	for i, k := range all {
		if i%2 == 1 {
			continue
		}
		if _, err := w.Delete(k, sim.HostID(i%net.Hosts())); err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
		delete(present, k)
		if i%60 == 0 {
			if err := w.CheckInvariants(); err != nil {
				t.Fatalf("after delete %d: %v", i, err)
			}
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	qr := xrand.New(8)
	var live []uint64
	for k := range present {
		live = append(live, k)
	}
	for i := 0; i < 1000; i++ {
		q := qr.Uint64n(1 << 41)
		got, ok, _, _ := w.Query(q, sim.HostID(qr.Intn(net.Hosts())))
		want, wok := bruteFloorSlice(live, q)
		if ok != wok || (ok && got != want) {
			t.Fatalf("after churn: query %d got %d,%v want %d,%v", q, got, ok, want, wok)
		}
	}
}

func TestBlockedDuplicateAndMissing(t *testing.T) {
	w, _, keys := newBlocked(t, 64, 8, 9)
	if _, err := w.Insert(keys[0], 0); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if _, err := w.Delete(9999999999999, 0); err == nil {
		t.Fatal("missing delete accepted")
	}
}

func TestBlockedStorageWithinM(t *testing.T) {
	// Mean per-host storage should be O(M) when H = c*n*log(n)/M hosts
	// are available; with H = n hosts and M = log n it stays O(log n).
	rng := xrand.New(10)
	for _, n := range []int{1024, 4096} {
		keys := distinctKeys(rng.Split(), n, 1<<40)
		net := sim.NewNetwork(n)
		if _, err := NewBlockedWeb(net, keys, BlockedConfig{Seed: uint64(n)}); err != nil {
			t.Fatal(err)
		}
		s := net.Snapshot()
		logn := math.Log2(float64(n))
		if s.MeanStorage > 8*logn {
			t.Fatalf("n=%d: mean storage %.1f above O(log n)", n, s.MeanStorage)
		}
	}
}

func TestBucketWebQueryMatchesBruteForce(t *testing.T) {
	rng := xrand.New(11)
	keys := distinctKeys(rng, 2000, 1<<40)
	net := sim.NewNetwork(256)
	b, err := NewBucketWeb(net, keys, 16, 16, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2000 {
		t.Fatalf("len %d", b.Len())
	}
	for i := 0; i < 1500; i++ {
		q := rng.Uint64n(1 << 41)
		got, ok, _, _ := b.Query(q, sim.HostID(rng.Intn(256)))
		want, wok := bruteFloorSlice(keys, q)
		if ok != wok || (ok && got != want) {
			t.Fatalf("query %d: got %d,%v want %d,%v", q, got, ok, want, wok)
		}
	}
}

func TestBucketWebConstantHopsForLargeM(t *testing.T) {
	// With M = H^(1/2) >> log H, queries should take only a handful of
	// hops; with huge M (one stratum) nearly constant.
	rng := xrand.New(12)
	keys := distinctKeys(rng, 16384, 1<<50)
	net := sim.NewNetwork(1024)
	b, err := NewBucketWeb(net, keys, 16, 1024, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	const queries = 300
	for i := 0; i < queries; i++ {
		_, _, hops, _ := b.Query(rng.Uint64n(1<<50), sim.HostID(rng.Intn(1024)))
		total += hops
	}
	if mean := float64(total) / queries; mean > 8 {
		t.Fatalf("mean hops %.1f not near-constant for M = H", mean)
	}
}

func TestBucketWebChurn(t *testing.T) {
	rng := xrand.New(13)
	keys := distinctKeys(rng, 1000, 1<<40)
	net := sim.NewNetwork(128)
	b, err := NewBucketWeb(net, keys[:600], 8, 16, 13, 1)
	if err != nil {
		t.Fatal(err)
	}
	present := map[uint64]bool{}
	for _, k := range keys[:600] {
		present[k] = true
	}
	for i, k := range keys[600:] {
		if _, err := b.Insert(k, sim.HostID(i%128)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		present[k] = true
	}
	for i := 0; i < 300; i++ {
		if _, err := b.Delete(keys[i], sim.HostID(i%128)); err != nil {
			t.Fatalf("delete %d: %v", keys[i], err)
		}
		delete(present, keys[i])
	}
	var live []uint64
	for k := range present {
		live = append(live, k)
	}
	qr := xrand.New(14)
	for i := 0; i < 800; i++ {
		q := qr.Uint64n(1 << 41)
		got, ok, _, _ := b.Query(q, sim.HostID(qr.Intn(128)))
		want, wok := bruteFloorSlice(live, q)
		if ok != wok || (ok && got != want) {
			t.Fatalf("after churn: query %d got %d,%v want %d,%v", q, got, ok, want, wok)
		}
	}
}

func TestBlockedRangeMatchesBruteForce(t *testing.T) {
	w, net, keys := newBlocked(t, 400, 16, 15)
	sorted := append([]uint64(nil), keys...)
	sortUint64(sorted)
	rng := xrand.New(88)
	for trial := 0; trial < 300; trial++ {
		lo := rng.Uint64n(1 << 41)
		hi := lo + rng.Uint64n(1<<38)
		got, hops, _ := w.Range(lo, hi, sim.HostID(rng.Intn(net.Hosts())))
		var want []uint64
		for _, k := range sorted {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Range(%d,%d): got %d keys want %d", lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Range(%d,%d)[%d] = %d want %d", lo, hi, i, got[i], want[i])
			}
		}
		if hops < 0 {
			t.Fatal("negative hops")
		}
	}
}

func TestBucketWebRangeMatchesBruteForce(t *testing.T) {
	rng := xrand.New(91)
	keys := distinctKeys(rng, 1500, 1<<40)
	net := sim.NewNetwork(128)
	b, err := NewBucketWeb(net, keys, 12, 16, 91, 1)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]uint64(nil), keys...)
	sortUint64(sorted)
	for trial := 0; trial < 300; trial++ {
		lo := rng.Uint64n(1 << 41)
		hi := lo + rng.Uint64n(1<<38)
		got, _, _ := b.Range(lo, hi, sim.HostID(rng.Intn(128)))
		var want []uint64
		for _, k := range sorted {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Range(%d,%d): got %d keys want %d", lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Range(%d,%d)[%d] = %d want %d", lo, hi, i, got[i], want[i])
			}
		}
	}
	// Range starting below every key covers the whole prefix.
	got, _, _ := b.Range(0, sorted[10], 0)
	if len(got) != 11 {
		t.Fatalf("prefix range returned %d keys, want 11", len(got))
	}
}

func sortUint64(xs []uint64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// BenchmarkBlockedBuild times NewBlockedWeb at the query-batch
// workload's shape — 262,144 keys over 4,096 hosts — so the bulk build
// (bit partitions, levels and their hyperlinks, block directories,
// storage charges) stays visible in a one-iteration bench smoke run.
func BenchmarkBlockedBuild(b *testing.B) {
	keys := distinctKeys(xrand.New(1), 262144, 1<<40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewBlockedWeb(sim.NewNetwork(4096), keys, BlockedConfig{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
