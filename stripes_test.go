package skipwebs

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/skipwebs/skipwebs/internal/experiments"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// TestStripeSetRouting pins the routing contract: every build code
// routes to the stripe whose chunk held it, separators are exclusive
// upper bounds, ties never straddle a boundary, and degenerate inputs
// collapse to fewer stripes.
func TestStripeSetRouting(t *testing.T) {
	keys := experiments.Keys(xrand.New(7), 1000, 1<<40)
	st, parts := splitByStripe(keys, 4, false, keyCode, nil)
	if st.n() != 4 {
		t.Fatalf("want 4 stripes over 1000 distinct keys, got %d", st.n())
	}
	total := 0
	for i, part := range parts {
		if len(part) == 0 {
			t.Fatalf("stripe %d empty at build", i)
		}
		total += len(part)
		for _, k := range part {
			if got := st.of(k); got != i {
				t.Fatalf("key %d in chunk %d routes to %d", k, i, got)
			}
		}
		if !sort.SliceIsSorted(part, func(a, b int) bool { return part[a] < part[b] }) {
			t.Fatalf("stripe %d chunk not sorted", i)
		}
	}
	if total != len(keys) {
		t.Fatalf("chunks cover %d of %d keys", total, len(keys))
	}
	for i, sep := range st.seps {
		if got := st.of(sep); got != i+1 {
			t.Fatalf("separator %d routes to %d, want %d (inclusive lower bound)", sep, got, i+1)
		}
		if got := st.of(sep - 1); got != i {
			t.Fatalf("sep-1 routes to %d, want %d", got, i)
		}
	}

	// Ties: all-equal codes must collapse to one stripe.
	same := make([]uint64, 64)
	for i := range same {
		same[i] = 42
	}
	if st := newStripeSet(same, 4, false); st.n() != 1 {
		t.Fatalf("all-equal codes split into %d stripes", st.n())
	}

	// More stripes than keys clamps.
	st, parts = splitByStripe([]uint64{5, 9}, 8, false, keyCode, nil)
	if st.n() > 2 {
		t.Fatalf("2 keys split into %d stripes", st.n())
	}
	if n := len(parts[0]) + len(parts[len(parts)-1]); st.n() == 2 && n != 2 {
		t.Fatalf("clamped split lost keys: %v", parts)
	}

	// Unsharded requests build one stripe from the untouched input.
	st, parts = splitByStripe([]uint64{9, 5, 7}, 1, false, keyCode, nil)
	if st.n() != 1 || len(parts) != 1 || parts[0][0] != 9 {
		t.Fatalf("want <= 1 must pass the input through unmodified, got %v", parts)
	}
}

// TestStripeSeedDerivation pins the seed contract: unsharded structures
// use the cluster seed verbatim (bit-identical to pre-striping builds),
// sharded stripes draw distinct deterministic substreams.
func TestStripeSeedDerivation(t *testing.T) {
	if got := stripeSeed(12345, 0, 1); got != 12345 {
		t.Fatalf("single-stripe seed changed: %d", got)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		s := stripeSeed(12345, i, 16)
		if seen[s] {
			t.Fatalf("duplicate substream seed at stripe %d", i)
		}
		seen[s] = true
		if s != stripeSeed(12345, i, 16) {
			t.Fatal("substream seed not deterministic")
		}
	}
}

// TestStringCodeOrder pins the string-code coarsening: codes are
// monotone in string order, so stripe chunks respect lexicographic
// order and a strict code inequality implies the string inequality.
func TestStringCodeOrder(t *testing.T) {
	keys := experiments.UniformStrings(xrand.New(3), 400, "acgt", 1, 24)
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if stringCode(sorted[i-1]) > stringCode(sorted[i]) {
			t.Fatalf("code order violates string order at %q < %q", sorted[i-1], sorted[i])
		}
	}
	st, parts := splitByStripe(keys, 4, false, stringCode, strings.Compare)
	total := 0
	for i, part := range parts {
		total += len(part)
		if !sort.StringsAreSorted(part) {
			t.Fatalf("stripe %d chunk not in string order (code ties must break lexicographically)", i)
		}
		for _, s := range part {
			if got := st.of(stringCode(s)); got != i {
				t.Fatalf("string %q in chunk %d routes to %d", s, i, got)
			}
		}
	}
	if total != len(keys) {
		t.Fatalf("chunks cover %d of %d strings", total, len(keys))
	}
}

// stripedWorkload is the shared fixture of the concurrent-vs-serial
// parity tests: build keys, update keys, and per-op origins drawn from a
// fixed seed.
func stripedWorkload(seed uint64, hosts, build, updates int) (buildKeys, ins []uint64, origins []HostID) {
	keys := experiments.Keys(xrand.New(seed), build+updates, 1<<40)
	rng := xrand.New(seed + 1)
	origins = make([]HostID, updates)
	for i := range origins {
		origins[i] = HostID(rng.Intn(hosts))
	}
	return keys[:build], keys[build:], origins
}

// assertStripedParity applies the same update workload to two identical
// striped structures — concurrently batched on one, serially per-op on
// the other — and asserts bit-identical per-op hop counts and cluster
// counters. Stripe isolation makes the concurrent schedule equivalent to
// any serial interleaving that preserves per-stripe order; the serial
// control is one such interleaving.
func assertStripedParity(t *testing.T, name string, cBatch, cSerial *Cluster,
	batch func() ([]int, error), serial func(i int) (int, error), n int) {
	t.Helper()
	cBatch.ResetTraffic()
	cSerial.ResetTraffic()
	gotHops, err := batch()
	if err != nil {
		t.Fatalf("%s: batch: %v", name, err)
	}
	for i := 0; i < n; i++ {
		h, err := serial(i)
		if err != nil {
			t.Fatalf("%s: serial op %d: %v", name, i, err)
		}
		if h != gotHops[i] {
			t.Fatalf("%s: op %d hops: batch %d, serial %d", name, i, gotHops[i], h)
		}
	}
	sb, ss := cBatch.Stats(), cSerial.Stats()
	if sb.TotalMessages != ss.TotalMessages || sb.TotalOps != ss.TotalOps || sb.MaxCongestion != ss.MaxCongestion {
		t.Fatalf("%s: counters diverge: batch {msgs %d ops %d cong %d}, serial {msgs %d ops %d cong %d}",
			name, sb.TotalMessages, sb.TotalOps, sb.MaxCongestion, ss.TotalMessages, ss.TotalOps, ss.MaxCongestion)
	}
}

// TestStripedBatchMatchesSerialOneDim: concurrent striped InsertBatch +
// DeleteBatch charge exactly what per-op serial execution charges on an
// identically striped structure — per-op hops and every cluster counter.
func TestStripedBatchMatchesSerialOneDim(t *testing.T) {
	const hosts, build, updates, S = 32, 512, 256, 4
	buildKeys, ins, origins := stripedWorkload(21, hosts, build, updates)
	cb := NewCluster(hosts)
	defer cb.Close()
	wb, err := NewOneDim(cb, buildKeys, Options{Seed: 5, WriteStripes: S})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCluster(hosts)
	ws, err := NewOneDim(cs, buildKeys, Options{Seed: 5, WriteStripes: S})
	if err != nil {
		t.Fatal(err)
	}
	if wb.st.n() != S {
		t.Fatalf("realized %d stripes, want %d", wb.st.n(), S)
	}
	assertStripedParity(t, "onedim/insert", cb, cs,
		func() ([]int, error) { return wb.InsertBatch(ins, origins) },
		func(i int) (int, error) { return ws.Insert(ins[i], origins[i]) }, updates)
	del := ins[:updates/2]
	assertStripedParity(t, "onedim/delete", cb, cs,
		func() ([]int, error) { return wb.DeleteBatch(del, origins) },
		func(i int) (int, error) { return ws.Delete(del[i], origins[i]) }, updates/2)
	if err := wb.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	want := append([]uint64(nil), buildKeys...)
	want = append(want, ins[updates/2:]...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := wb.Keys()
	if len(got) != len(want) {
		t.Fatalf("key count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys()[%d] = %d, want %d (striped concatenation must be sorted)", i, got[i], want[i])
		}
	}
}

// TestStripedBatchMatchesSerialBlocked is the blocked-web variant.
func TestStripedBatchMatchesSerialBlocked(t *testing.T) {
	const hosts, build, updates, S = 32, 512, 256, 4
	buildKeys, ins, origins := stripedWorkload(22, hosts, build, updates)
	cb := NewCluster(hosts)
	defer cb.Close()
	wb, err := NewBlocked(cb, buildKeys, Options{Seed: 6, WriteStripes: S})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCluster(hosts)
	ws, err := NewBlocked(cs, buildKeys, Options{Seed: 6, WriteStripes: S})
	if err != nil {
		t.Fatal(err)
	}
	assertStripedParity(t, "blocked/insert", cb, cs,
		func() ([]int, error) { return wb.InsertBatch(ins, origins) },
		func(i int) (int, error) { return ws.Insert(ins[i], origins[i]) }, updates)
	del := ins[:updates/2]
	assertStripedParity(t, "blocked/delete", cb, cs,
		func() ([]int, error) { return wb.DeleteBatch(del, origins) },
		func(i int) (int, error) { return ws.Delete(del[i], origins[i]) }, updates/2)
	if err := wb.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

// TestStripedSortedRunAcrossBoundary is a parity case for a
// single-origin strictly ascending insert batch spanning every stripe:
// each stripe's dispatcher takes its contiguous slice of the ascending
// keys, all queued on one origin's worker, and the batch must still
// charge exactly the serial per-op messages.
func TestStripedSortedRunAcrossBoundary(t *testing.T) {
	const hosts, build, updates, S = 32, 512, 256, 4
	buildKeys, ins, _ := stripedWorkload(23, hosts, build, updates)
	sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
	origins := []HostID{3} // one origin for the whole ascending batch
	cb := NewCluster(hosts)
	defer cb.Close()
	wb, err := NewBlocked(cb, buildKeys, Options{Seed: 7, WriteStripes: S})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCluster(hosts)
	ws, err := NewBlocked(cs, buildKeys, Options{Seed: 7, WriteStripes: S})
	if err != nil {
		t.Fatal(err)
	}
	// The ascending batch must span all stripes, so it crosses every
	// separator.
	stripesHit := map[int]bool{}
	for _, k := range ins {
		stripesHit[wb.st.of(k)] = true
	}
	if len(stripesHit) != S {
		t.Fatalf("workload hits %d of %d stripes; widen the key range", len(stripesHit), S)
	}
	assertStripedParity(t, "blocked/run", cb, cs,
		func() ([]int, error) { return wb.InsertBatch(ins, origins) },
		func(i int) (int, error) { return ws.Insert(ins[i], HostID(3)) }, updates)
	// Every separator key must be present and routed correctly.
	if err := wb.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	for _, k := range ins {
		r, err := wb.Floor(k, 0)
		if err != nil || !r.Found || r.Key != k {
			t.Fatalf("batch-inserted key %d missing (res=%+v err=%v)", k, r, err)
		}
	}
}

// TestStripedBatchMatchesSerialBucketed is the bucket-web variant.
func TestStripedBatchMatchesSerialBucketed(t *testing.T) {
	const hosts, build, updates, S = 16, 512, 128, 4
	buildKeys, ins, origins := stripedWorkload(24, hosts, build, updates)
	cb := NewCluster(hosts)
	defer cb.Close()
	wb, err := NewBucketed(cb, buildKeys, Options{Seed: 8, WriteStripes: S})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCluster(hosts)
	ws, err := NewBucketed(cs, buildKeys, Options{Seed: 8, WriteStripes: S})
	if err != nil {
		t.Fatal(err)
	}
	assertStripedParity(t, "bucketed/insert", cb, cs,
		func() ([]int, error) { return wb.InsertBatch(ins, origins) },
		func(i int) (int, error) { return ws.Insert(ins[i], origins[i]) }, updates)
	if err := wb.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

// TestStripedBatchMatchesSerialPoints is the point-set variant: stripe
// routing on Morton codes.
func TestStripedBatchMatchesSerialPoints(t *testing.T) {
	const hosts, build, updates, S = 16, 512, 128, 4
	raw := experiments.UniformPoints(xrand.New(25), 2, build+updates, 1<<30)
	pts := make([]Point, len(raw))
	for i, p := range raw {
		pts[i] = Point(p)
	}
	rng := xrand.New(26)
	origins := make([]HostID, updates)
	for i := range origins {
		origins[i] = HostID(rng.Intn(hosts))
	}
	cb := NewCluster(hosts)
	defer cb.Close()
	wb, err := NewPoints(cb, 2, pts[:build], Options{Seed: 9, WriteStripes: S})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCluster(hosts)
	ws, err := NewPoints(cs, 2, pts[:build], Options{Seed: 9, WriteStripes: S})
	if err != nil {
		t.Fatal(err)
	}
	ins := pts[build:]
	assertStripedParity(t, "points/insert", cb, cs,
		func() ([]int, error) { return wb.InsertBatch(ins, origins) },
		func(i int) (int, error) { return ws.Insert(ins[i], origins[i]) }, updates)
	del := ins[:updates/2]
	assertStripedParity(t, "points/delete", cb, cs,
		func() ([]int, error) { return wb.DeleteBatch(del, origins) },
		func(i int) (int, error) { return ws.Delete(del[i], origins[i]) }, updates/2)
	if err := wb.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	// Cross-stripe reads stay exact: nearest of each remaining insert is
	// itself.
	for _, q := range ins[updates/2 : updates/2+16] {
		got, _, err := wb.Nearest(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != q[0] || got[1] != q[1] {
			t.Fatalf("nearest of stored point %v = %v", q, got)
		}
	}
}

// TestStripedBatchMatchesSerialStrings is the string-trie variant:
// stripe routing on first-eight-byte codes.
func TestStripedBatchMatchesSerialStrings(t *testing.T) {
	const hosts, build, updates, S = 16, 512, 128, 4
	keys := experiments.UniformStrings(xrand.New(27), build+updates, "acgt", 6, 24)
	rng := xrand.New(28)
	origins := make([]HostID, updates)
	for i := range origins {
		origins[i] = HostID(rng.Intn(hosts))
	}
	cb := NewCluster(hosts)
	defer cb.Close()
	wb, err := NewStrings(cb, keys[:build], Options{Seed: 10, WriteStripes: S})
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCluster(hosts)
	ws, err := NewStrings(cs, keys[:build], Options{Seed: 10, WriteStripes: S})
	if err != nil {
		t.Fatal(err)
	}
	ins := keys[build:]
	assertStripedParity(t, "strings/insert", cb, cs,
		func() ([]int, error) { return wb.InsertBatch(ins, origins) },
		func(i int) (int, error) { return ws.Insert(ins[i], origins[i]) }, updates)
	if err := wb.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	// Cross-stripe reads stay exact: membership and prefix enumeration.
	for _, k := range ins[:16] {
		ok, _, err := wb.Contains(k, 0)
		if err != nil || !ok {
			t.Fatalf("inserted key %q missing (ok=%v err=%v)", k, ok, err)
		}
	}
	all, _, err := wb.PrefixSearch("", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != build+updates {
		t.Fatalf("PrefixSearch(\"\") found %d of %d keys", len(all), build+updates)
	}
	if !sort.StringsAreSorted(all) {
		t.Fatal("striped prefix enumeration not sorted")
	}
}

// TestStripedQueriesCrossStripes pins cross-stripe read semantics on the
// one-dimensional webs: floor falls back across lower stripes, range
// unions every overlapping stripe, and a fully drained stripe degrades
// to its lower neighbor instead of failing.
func TestStripedQueriesCrossStripes(t *testing.T) {
	const hosts, n, S = 16, 400, 4
	keys := experiments.Keys(xrand.New(31), n, 1<<40)
	c := NewCluster(hosts)
	w, err := NewBlocked(c, keys, Options{Seed: 11, WriteStripes: S})
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Floor of each separator-1 must come from the stripe below.
	for _, sep := range w.st.seps {
		r, err := w.Floor(sep-1, 0)
		if err != nil {
			t.Fatal(err)
		}
		j := sort.Search(len(sorted), func(i int) bool { return sorted[i] > sep-1 })
		if j == 0 {
			continue
		}
		if !r.Found || r.Key != sorted[j-1] {
			t.Fatalf("floor(%d) = %+v, want %d", sep-1, r, sorted[j-1])
		}
	}
	// Range spanning all stripes returns the full sorted set.
	got, _, err := w.Range(0, ^uint64(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("full range returned %d of %d keys", len(got), n)
	}
	for i := range got {
		if got[i] != sorted[i] {
			t.Fatalf("range[%d] = %d, want %d", i, got[i], sorted[i])
		}
	}
	// Drain stripe 1 entirely; floor queries into its range must fall
	// back to stripe 0's maximum, and reinserting must work.
	var stripe1 []uint64
	for _, k := range keys {
		if w.st.of(k) == 1 {
			stripe1 = append(stripe1, k)
		}
	}
	for _, k := range stripe1 {
		if _, err := w.Delete(k, 0); err != nil {
			t.Fatalf("drain delete %d: %v", k, err)
		}
	}
	probe := w.st.seps[1] - 1 // top of stripe 1's range
	r, err := w.Floor(probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	j := sort.Search(len(sorted), func(i int) bool { return w.st.of(sorted[i]) >= 1 })
	if !r.Found || r.Key != sorted[j-1] {
		t.Fatalf("floor through drained stripe = %+v, want %d", r, sorted[j-1])
	}
	if _, err := w.Insert(stripe1[0], 0); err != nil {
		t.Fatalf("reinsert into drained stripe: %v", err)
	}
	r, err = w.Floor(stripe1[0], 0)
	if err != nil || !r.Found || r.Key != stripe1[0] {
		t.Fatalf("reinserted key missing (res=%+v err=%v)", r, err)
	}
	if err := w.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
}

// FuzzStripeCodes fuzzes the two code maps the epoch table of the finger
// cache leans on. For arbitrary strings: stringCode is monotone, and the
// codes of a prefix's extensions lie in [stringCode(p), prefixCodeHi(p)]
// — the interval Strings.Search and PrefixSearch hand the cache. For an
// arbitrary code multiset (one code per byte pair: the high byte spreads
// them over the space, the low byte packs them densely, repeats tie) and
// stripe count: stripe and bucket routing are monotone in the code, a
// bucket lies inside exactly one stripe, a code outside a stripe clips to
// the stripe's end buckets, every stripe has at least one bucket and at
// most epochBucketsPerStripe, every bucket holds a build code, and the
// epoch table leaves the stripe separators as they are without it.
func FuzzStripeCodes(f *testing.F) {
	f.Add("a", "ab", "a", []byte{}, uint8(4))                                            // empty build
	f.Add("abababab", "ababababb", "abababab", []byte{7, 7, 7, 7, 7, 7, 7, 7}, uint8(4)) // all-equal codes
	f.Add("", "\x00", "", []byte{0, 0, 255, 255, 0, 1, 255, 254}, uint8(8))              // fewer codes than buckets, the extremes
	f.Add("ab\xff", "ac", "ab", []byte{1, 2, 3}, uint8(0))                               // odd tail, want 0
	dense := make([]byte, 1024)
	for i := range dense {
		dense[i] = byte(i * 37 >> (i % 2 * 3))
	}
	f.Add("acgt", "acgtacgtacgt", "acgtacgt", dense, uint8(4))
	f.Fuzz(func(t *testing.T, a, b, p string, raw []byte, want uint8) {
		if a > b {
			a, b = b, a
		}
		if stringCode(a) > stringCode(b) {
			t.Fatalf("%q <= %q but stringCode %#x > %#x", a, b, stringCode(a), stringCode(b))
		}
		for _, s := range []string{a, b} {
			if c := stringCode(s); strings.HasPrefix(s, p) && (c < stringCode(p) || c > prefixCodeHi(p)) {
				t.Fatalf("%q has prefix %q but code %#x outside [%#x, %#x]", s, p, c, stringCode(p), prefixCodeHi(p))
			}
		}

		codes := make([]uint64, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			code := uint64(raw[i])<<56 | uint64(raw[i+1])
			if raw[i] == 255 && raw[i+1] == 255 {
				code = ^uint64(0)
			}
			codes = append(codes, code)
		}
		sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
		ss := newStripeSet(codes, int(want%9), true)
		if plain := newStripeSet(codes, int(want%9), false); plain.ep != nil || !slices.Equal(plain.seps, ss.seps) {
			t.Fatalf("epoch table moved the stripe separators: %v vs %v", ss.seps, plain.seps)
		}
		ep, n := ss.ep, ss.n()
		if len(ep.subs) != n || len(ep.first) != n+1 || ep.first[0] != 0 || len(ep.count) != ep.first[n] {
			t.Fatalf("epoch table shape: %d stripes, first %v, %d epochs", n, ep.first, len(ep.count))
		}
		for i := 0; i < n; i++ {
			if nb := ep.first[i+1] - ep.first[i]; nb < 1 || nb > epochBucketsPerStripe {
				t.Fatalf("stripe %d has %d buckets", i, nb)
			}
		}
		probes := []uint64{0, ^uint64(0)}
		for _, c := range codes {
			probes = append(probes, c-1, c, c+1)
		}
		sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
		hit := make([]bool, len(ep.count))
		lastStripe, lastBucket := 0, 0
		for _, c := range probes {
			i := ss.of(c)
			bk := ep.bucket(i, c)
			if i < lastStripe || bk < lastBucket {
				t.Fatalf("routing not monotone at code %#x: stripe %d after %d, bucket %d after %d", c, i, lastStripe, bk, lastBucket)
			}
			if bk < ep.first[i] || bk >= ep.first[i+1] {
				t.Fatalf("code %#x: bucket %d outside stripe %d's [%d, %d)", c, bk, i, ep.first[i], ep.first[i+1])
			}
			for j := 0; j < n; j++ { // clipped to every other stripe
				if got := ep.bucket(j, c); (j < i && got != ep.first[j+1]-1) || (j > i && got != ep.first[j]) {
					t.Fatalf("code %#x of stripe %d clips to bucket %d of stripe %d [%d, %d)", c, i, got, j, ep.first[j], ep.first[j+1])
				}
			}
			lastStripe, lastBucket = i, bk
		}
		for _, c := range codes {
			hit[ep.bucket(ss.of(c), c)] = true
		}
		for bk, ok := range hit {
			if !ok && len(codes) > 0 {
				t.Fatalf("bucket %d of %d holds no build code", bk, len(hit))
			}
		}
		ss.bump(ss.of(^uint64(0)), ^uint64(0))
		if got := ep.sum(0, len(ep.count)-1); got != 1 {
			t.Fatalf("one bump moved the epoch sum by %d", got)
		}
	})
}
