package skipwebs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/skipwebs/skipwebs/internal/xrand"
)

// buildTwinBlocked builds two identical Blocked webs on two fresh
// clusters, so a workload can run synchronously on one and batched on the
// other and the accounting compared counter for counter.
func buildTwinBlocked(t *testing.T, hosts, n int, seed uint64) (*Cluster, *Blocked, *Cluster, *Blocked, []uint64) {
	t.Helper()
	keys := distinctKeys(xrand.New(seed), n)
	cSync := NewCluster(hosts)
	wSync, err := NewBlocked(cSync, keys, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cBatch := NewCluster(hosts)
	wBatch, err := NewBlocked(cBatch, keys, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return cSync, wSync, cBatch, wBatch, keys
}

// TestFloorBatchMatchesSync checks the acceptance property of the batch
// engine: on an identical workload, batched execution returns the same
// answers with the same per-operation hop counts, and the cluster's
// message and congestion counters match the synchronous path exactly.
func TestFloorBatchMatchesSync(t *testing.T) {
	const hosts, n, ops = 128, 1024, 2000
	cSync, wSync, cBatch, wBatch, _ := buildTwinBlocked(t, hosts, n, 11)
	defer cBatch.Close()

	rng := xrand.New(99)
	qs := make([]uint64, ops)
	origins := make([]HostID, ops)
	for i := range qs {
		qs[i] = rng.Uint64n(1 << 41)
		origins[i] = HostID(rng.Intn(hosts))
	}

	cSync.ResetTraffic()
	want := make([]FloorResult, ops)
	for i := range qs {
		r, err := wSync.Floor(qs[i], origins[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	cBatch.ResetTraffic()
	got, err := wBatch.FloorBatch(qs, origins)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("op %d: batch %+v, sync %+v", i, got[i], want[i])
		}
	}

	ss, bs := cSync.Stats(), cBatch.Stats()
	if ss != bs {
		t.Fatalf("accounting diverged:\n sync  %+v\n batch %+v", ss, bs)
	}
	if bs.TotalOps != ops {
		t.Fatalf("batch ops = %d, want %d", bs.TotalOps, ops)
	}
}

// TestInsertDeleteBatchMatchesSync runs an identical update workload
// synchronously and batched and compares per-op hops, final contents, and
// network counters.
func TestInsertDeleteBatchMatchesSync(t *testing.T) {
	const hosts, n, ups = 64, 512, 200
	cSync, wSync, cBatch, wBatch, keys := buildTwinBlocked(t, hosts, n, 12)
	defer cBatch.Close()

	rng := xrand.New(7)
	ins := distinctKeys(rng, n+ups)[n:] // fresh keys absent from the web
	origins := make([]HostID, ups)
	for i := range origins {
		origins[i] = HostID(rng.Intn(hosts))
	}

	cSync.ResetTraffic()
	wantHops := make([]int, ups)
	for i := range ins {
		h, err := wSync.Insert(ins[i], origins[i])
		if err != nil {
			t.Fatal(err)
		}
		wantHops[i] = h
	}
	cBatch.ResetTraffic()
	gotHops, err := wBatch.InsertBatch(ins, origins)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotHops {
		if gotHops[i] != wantHops[i] {
			t.Fatalf("insert %d: batch %d hops, sync %d", i, gotHops[i], wantHops[i])
		}
	}
	if ss, bs := cSync.Stats(), cBatch.Stats(); ss != bs {
		t.Fatalf("insert accounting diverged:\n sync  %+v\n batch %+v", ss, bs)
	}

	// Delete the first half of the original keys the same way.
	del := keys[:ups]
	for i := range del {
		if _, err := wSync.Delete(del[i], origins[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wBatch.DeleteBatch(del, origins); err != nil {
		t.Fatal(err)
	}
	if wSync.Len() != wBatch.Len() {
		t.Fatalf("lengths diverged: sync %d, batch %d", wSync.Len(), wBatch.Len())
	}
	// Both webs must agree on every remaining key.
	probe, perr := wBatch.FloorBatch(keys[ups:], nil)
	if perr != nil {
		t.Fatal(perr)
	}
	for i, k := range keys[ups:] {
		if !probe[i].Found || probe[i].Key != k {
			t.Fatalf("key %d missing after batch deletes: %+v", k, probe[i])
		}
	}
}

// TestInsertBatchSortedRunMatchesSync is a parity case for one batch
// shape: strictly ascending keys from a single pinned origin, so every
// insert queues behind the previous one on one worker. It must charge
// exactly the same per-operation hops and cluster counters as the same
// inserts issued one at a time, on every sorted-set structure (Blocked,
// OneDim, Bucketed). A mixed unsorted batch is re-checked as the
// control.
func TestInsertBatchSortedRunMatchesSync(t *testing.T) {
	const hosts, n, ups = 64, 512, 256
	type twin struct {
		name   string
		ins    func(k uint64, origin HostID) (int, error) // sync twin
		batch  func(keys []uint64, origins []HostID) ([]int, error)
		cSync  *Cluster
		cBatch *Cluster
	}
	mk := func(seed uint64) []twin {
		keys := distinctKeys(xrand.New(seed), n)
		var tws []twin
		{
			cs, cb := NewCluster(hosts), NewCluster(hosts)
			ws, err := NewBlocked(cs, keys, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			wb, err := NewBlocked(cb, keys, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			tws = append(tws, twin{"blocked", ws.Insert, wb.InsertBatch, cs, cb})
		}
		{
			cs, cb := NewCluster(hosts), NewCluster(hosts)
			ws, err := NewOneDim(cs, keys, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			wb, err := NewOneDim(cb, keys, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			tws = append(tws, twin{"onedim", ws.Insert, wb.InsertBatch, cs, cb})
		}
		{
			cs, cb := NewCluster(hosts), NewCluster(hosts)
			ws, err := NewBucketed(cs, keys, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			wb, err := NewBucketed(cb, keys, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			tws = append(tws, twin{"bucketed", ws.Insert, wb.InsertBatch, cs, cb})
		}
		return tws
	}

	check := func(name string, tw twin, ins []uint64, origins []HostID) {
		t.Helper()
		tw.cSync.ResetTraffic()
		want := make([]int, len(ins))
		for i := range ins {
			h, err := tw.ins(ins[i], origins[i%len(origins)])
			if err != nil {
				t.Fatalf("%s/%s sync insert %d: %v", tw.name, name, i, err)
			}
			want[i] = h
		}
		tw.cBatch.ResetTraffic()
		got, err := tw.batch(ins, origins)
		if err != nil {
			t.Fatalf("%s/%s batch: %v", tw.name, name, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s/%s insert %d: batch %d hops, sync %d", tw.name, name, i, got[i], want[i])
			}
		}
		if ss, bs := tw.cSync.Stats(), tw.cBatch.Stats(); ss != bs {
			t.Fatalf("%s/%s accounting diverged:\n sync  %+v\n batch %+v", tw.name, name, ss, bs)
		}
	}

	// Sorted ascending keys, single pinned origin.
	rng := xrand.New(99)
	sorted := make([]uint64, 0, ups)
	next := uint64(1) << 41
	for len(sorted) < ups {
		next += 1 + rng.Uint64n(1<<20)
		sorted = append(sorted, next)
	}
	for _, tw := range mk(31) {
		check("sorted", tw, sorted, []HostID{3})
	}

	// Unsorted keys over mixed origins: the per-op fallback control.
	mixed := distinctKeys(xrand.New(41), n+ups)[n:]
	origins := make([]HostID, ups)
	for i := range origins {
		origins[i] = HostID(rng.Intn(hosts))
	}
	for _, tw := range mk(41) {
		check("mixed", tw, mixed, origins)
	}
}

// TestBatchAcrossStructures smoke-tests every batch entry point against
// its synchronous twin on small inputs.
func TestBatchAcrossStructures(t *testing.T) {
	const hosts = 32
	rng := xrand.New(21)

	t.Run("onedim", func(t *testing.T) {
		c := NewCluster(hosts)
		defer c.Close()
		keys := distinctKeys(xrand.New(5), 128)
		w, err := NewOneDim(c, keys, Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.FloorBatch(keys[:32], nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys[:32] {
			if !res[i].Found || res[i].Key != k {
				t.Fatalf("Floor(%d) = %+v", k, res[i])
			}
		}
		cres, err := w.ContainsBatch([]uint64{keys[0], keys[0] + 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !cres[0].Found || cres[1].Found {
			t.Fatalf("ContainsBatch = %+v", cres)
		}
		if _, err := w.InsertBatch([]uint64{1 << 60, 2 << 60}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := w.DeleteBatch([]uint64{1 << 60, 2 << 60}, nil); err != nil {
			t.Fatal(err)
		}
		if w.Len() != 128 {
			t.Fatalf("len %d after insert+delete round trip", w.Len())
		}
	})

	t.Run("bucketed-range", func(t *testing.T) {
		c := NewCluster(hosts)
		defer c.Close()
		keys := make([]uint64, 256)
		for i := range keys {
			keys[i] = uint64(i) * 10
		}
		w, err := NewBucketed(c, keys, Options{Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.RangeBatch([]KeyRange{{Lo: 100, Hi: 140}, {Lo: 0, Hi: 20}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res[0].Keys) != 5 || res[0].Keys[0] != 100 || res[0].Keys[4] != 140 {
			t.Fatalf("RangeBatch[0] = %+v", res[0])
		}
		if len(res[1].Keys) != 3 {
			t.Fatalf("RangeBatch[1] = %+v", res[1])
		}
	})

	t.Run("points", func(t *testing.T) {
		c := NewCluster(hosts)
		defer c.Close()
		pts := make([]Point, 0, 64)
		seen := map[uint64]bool{}
		for len(pts) < 64 {
			p := Point{uint32(rng.Uint64n(1 << 20)), uint32(rng.Uint64n(1 << 20))}
			k := uint64(p[0])<<32 | uint64(p[1])
			if !seen[k] {
				seen[k] = true
				pts = append(pts, p)
			}
		}
		w, err := NewPoints(c, 2, pts, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		locs, err := w.LocateBatch(pts[:16], nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range locs {
			want, werr := w.Locate(pts[i], HostID(i%hosts))
			if werr != nil {
				t.Fatal(werr)
			}
			if l.Leaf != want.Leaf || l.CellPrefix != want.CellPrefix || l.CellBits != want.CellBits {
				t.Fatalf("LocateBatch[%d] = %+v, sync %+v", i, l, want)
			}
		}
		cres, err := w.ContainsBatch(pts[:4], nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range cres {
			if !r.Found {
				t.Fatalf("ContainsBatch[%d] = %+v", i, r)
			}
		}
		nres, err := w.NearestBatch([]Point{pts[0]}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(nres[0].Point) != 2 || nres[0].Point[0] != pts[0][0] || nres[0].Point[1] != pts[0][1] {
			t.Fatalf("NearestBatch = %+v", nres[0])
		}
		ins := []Point{{1 << 21, 1 << 21}}
		if _, err := w.InsertBatch(ins, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := w.DeleteBatch(ins, nil); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("strings", func(t *testing.T) {
		c := NewCluster(hosts)
		defer c.Close()
		keys := []string{"arge", "argon", "eppstein", "goodrich", "skip", "skipweb", "web"}
		w, err := NewStrings(c, keys, Options{Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.SearchBatch(keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if !r.Exact || r.Locus != keys[i] {
				t.Fatalf("SearchBatch[%d] = %+v", i, r)
			}
		}
		cres, err := w.ContainsBatch([]string{"skip", "skipw"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !cres[0].Found || cres[1].Found {
			t.Fatalf("ContainsBatch = %+v", cres)
		}
		pres, err := w.PrefixSearchBatch([]string{"skip", "arg"}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pres[0].Keys) != 2 || len(pres[1].Keys) != 2 {
			t.Fatalf("PrefixSearchBatch = %+v", pres)
		}
		if _, err := w.InsertBatch([]string{"podc"}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := w.DeleteBatch([]string{"podc"}, nil); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("planar", func(t *testing.T) {
		c := NewCluster(hosts)
		defer c.Close()
		segs := []PlanarSegment{
			{A: PlanarPoint{X: 10, Y: 40}, B: PlanarPoint{X: 90, Y: 60}},
			{A: PlanarPoint{X: 20, Y: 10}, B: PlanarPoint{X: 80, Y: 20}},
		}
		bounds := PlanarBounds{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
		w, err := NewPlanar(c, segs, bounds, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		qs := []PlanarPoint{{X: 50, Y: 30}, {X: 50, Y: 80}, {X: 50, Y: 5}}
		got, err := w.LocateBatch(qs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			want, werr := w.Locate(q, HostID(i%hosts))
			if werr != nil {
				t.Fatal(werr)
			}
			if got[i].HasTop != want.HasTop || got[i].HasBottom != want.HasBottom ||
				got[i].Top != want.Top || got[i].Bottom != want.Bottom {
				t.Fatalf("LocateBatch[%d] = %+v, sync %+v", i, got[i], want)
			}
		}
	})
}

// TestBatchErrorsJoinAndContinue verifies that a failing operation does
// not abort the batch: the other operations complete and the error
// reports the failure.
func TestBatchErrorsJoinAndContinue(t *testing.T) {
	c := NewCluster(16)
	defer c.Close()
	keys := distinctKeys(xrand.New(14), 64)
	w, err := NewBlocked(c, keys, Options{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	// Middle insert is a duplicate and must fail; the other two succeed.
	hops, err := w.InsertBatch([]uint64{1 << 59, keys[0], 2 << 59}, nil)
	if err == nil {
		t.Fatal("duplicate insert did not surface an error")
	}
	if hops[0] <= 0 || hops[2] <= 0 {
		t.Fatalf("surviving inserts got hops %v", hops)
	}
	if w.Len() != 66 {
		t.Fatalf("len = %d, want 66", w.Len())
	}

	if _, err := w.FloorBatch([]uint64{1}, []HostID{99}); err == nil {
		t.Fatal("out-of-range origin accepted")
	}
}

// TestBatchConcurrentReadersAndWriter hammers the single-writer/many-
// reader control from many goroutines; run with -race. Read batches and
// write batches interleave freely and every query must still return a
// correct floor for whatever key set is current.
func TestBatchConcurrentReadersAndWriter(t *testing.T) {
	const hosts = 64
	c := NewCluster(hosts)
	defer c.Close()
	keys := distinctKeys(xrand.New(15), 512)
	w, err := NewBlocked(c, keys, Options{Seed: 15})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(g)*7919 + 3)
			qs := make([]uint64, 64)
			for round := 0; round < 10; round++ {
				for i := range qs {
					qs[i] = rng.Uint64n(1 << 41)
				}
				res, err := w.FloorBatch(qs, nil)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				for i, r := range res {
					if r.Found && r.Key > qs[i] {
						t.Errorf("reader %d: floor(%d) = %d above query", g, qs[i], r.Key)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := xrand.New(1009)
		for round := 0; round < 10; round++ {
			fresh := make([]uint64, 8)
			for i := range fresh {
				fresh[i] = 1<<50 + rng.Uint64n(1<<40)
			}
			if _, err := w.InsertBatch(fresh, nil); err != nil {
				// Random collisions across rounds are possible but harmless.
				continue
			}
		}
	}()
	wg.Wait()
	if w.Len() < 512 {
		t.Fatalf("len %d shrank", w.Len())
	}
}

// TestBatchCongestionMatchesSyncAllStructures extends the parity check to
// the multi-dimensional structures: identical query workloads, identical
// total message and congestion counters.
func TestBatchCongestionMatchesSyncAllStructures(t *testing.T) {
	const hosts = 64
	rng := xrand.New(31)
	var pts []Point
	seen := map[uint64]bool{}
	for len(pts) < 256 {
		p := Point{uint32(rng.Uint64n(1 << 20)), uint32(rng.Uint64n(1 << 20))}
		k := uint64(p[0])<<32 | uint64(p[1])
		if !seen[k] {
			seen[k] = true
			pts = append(pts, p)
		}
	}
	build := func() (*Cluster, *Points) {
		c := NewCluster(hosts)
		w, err := NewPoints(c, 2, pts, Options{Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		return c, w
	}
	cSync, wSync := build()
	cBatch, wBatch := build()
	defer cBatch.Close()

	qs := pts[:128]
	origins := make([]HostID, len(qs))
	for i := range origins {
		origins[i] = HostID(rng.Intn(hosts))
	}
	cSync.ResetTraffic()
	for i := range qs {
		if _, err := wSync.Locate(qs[i], origins[i]); err != nil {
			t.Fatal(err)
		}
	}
	cBatch.ResetTraffic()
	if _, err := wBatch.LocateBatch(qs, origins); err != nil {
		t.Fatal(err)
	}
	if ss, bs := cSync.Stats(), cBatch.Stats(); ss != bs {
		t.Fatalf("points accounting diverged:\n sync  %+v\n batch %+v", ss, bs)
	}
}

// TestBatchThroughputScalesWithProcs proves write-stripe parallelism
// without a stopwatch, so it runs (and means the same thing) on any
// machine, any CPU count, any scheduler: it counts per-stripe
// writer-lock acquisitions through the stripe-lock hook to show the
// batch fanned out across all stripes, then uses a rendezvous gate in
// the same hook to show that writers of distinct stripes hold their
// writer locks at the same instant — which is impossible under a single
// structure-wide writer lock. Wall-clock scaling is the benchmark's
// batch.write_parallel_speedup.
func TestBatchThroughputScalesWithProcs(t *testing.T) {
	const hosts, n, stripes = 64, 4096, 4
	keys := distinctKeys(xrand.New(3), n)
	c := NewCluster(hosts)
	defer c.Close()
	w, err := NewBlocked(c, keys, Options{Seed: 3, WriteStripes: stripes})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.st.n(); got != stripes {
		t.Fatalf("realized %d stripes, want %d", got, stripes)
	}

	// Fan-out accounting: an insert batch spanning every stripe must
	// acquire each stripe's writer lock exactly as many times as the
	// ops routed there, and nothing else.
	rng := xrand.New(4)
	const ops = 256
	ins := make([]uint64, 0, ops)
	perStripe := make([]int64, stripes)
	for len(ins) < ops {
		k := rng.Uint64n(1 << 41)
		ins = append(ins, k)
		perStripe[w.st.of(k)]++
	}
	acquired := make([]atomic.Int64, stripes)
	w.st.onWrite = func(stripe int) { acquired[stripe].Add(1) }
	if _, err := w.InsertBatch(ins, nil); err != nil {
		t.Fatal(err)
	}
	for i := range perStripe {
		if got := acquired[i].Load(); got != perStripe[i] {
			t.Fatalf("stripe %d writer-lock acquisitions = %d, want %d", i, got, perStripe[i])
		}
		if perStripe[i] == 0 {
			t.Fatalf("workload left stripe %d idle; widen the key range", i)
		}
	}

	// Rendezvous gate: pick one fresh key per stripe and four distinct
	// origins, then make every stripe writer block inside its
	// writer-lock hook until all four have entered. Under per-stripe
	// locks all four arrive and the gate opens; under any serializing
	// writer lock at most one could ever enter, and the test fails by
	// timeout instead of deadlocking.
	gateKeys := make([]uint64, 0, stripes)
	seen := map[int]bool{}
	for len(gateKeys) < stripes {
		k := rng.Uint64n(1 << 41)
		if s := w.st.of(k); !seen[s] {
			seen[s] = true
			gateKeys = append(gateKeys, k)
		}
	}
	origins := make([]HostID, stripes)
	for i := range origins {
		origins[i] = HostID(i) // distinct hosts: distinct worker goroutines
	}
	entered := make(chan int, stripes)
	release := make(chan struct{})
	w.st.onWrite = func(stripe int) {
		entered <- stripe
		<-release
	}
	batchDone := make(chan error, 1)
	go func() {
		_, err := w.InsertBatch(gateKeys, origins)
		batchDone <- err
	}()
	got := map[int]bool{}
	timeout := time.After(30 * time.Second)
	for len(got) < stripes {
		select {
		case s := <-entered:
			if got[s] {
				t.Errorf("stripe %d entered the gate twice", s)
			}
			got[s] = true
		case <-timeout:
			close(release) // unblock whatever did arrive before failing
			<-batchDone
			t.Fatalf("only %d of %d stripe writers held their locks concurrently", len(got), stripes)
		}
	}
	close(release)
	if err := <-batchDone; err != nil {
		t.Fatal(err)
	}
	w.st.onWrite = nil
	if err := w.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterCloseIdempotent ensures Close works with and without prior
// batch use.
func TestClusterCloseIdempotent(t *testing.T) {
	c := NewCluster(4)
	c.Close()
	c.Close() // double close must be safe

	c2 := NewCluster(8)
	keys := distinctKeys(xrand.New(44), 64)
	w, err := NewBlocked(c2, keys, Options{Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.FloorBatch(keys[:8], nil); err != nil {
		t.Fatal(err)
	}
	c2.Close()

	defer func() {
		if recover() == nil {
			t.Fatal("batch after Close did not panic")
		}
	}()
	_, _ = w.FloorBatch(keys[:1], nil)
}
