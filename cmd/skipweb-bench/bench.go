package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"testing"

	skipwebs "github.com/skipwebs/skipwebs"
	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/experiments"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// benchRecord is one micro-benchmark result in the JSON document.
type benchRecord struct {
	Name     string  `json:"name"`
	NsPerOp  float64 `json:"ns_per_op"`
	AllocsOp float64 `json:"allocs_per_op"`
	BytesOp  float64 `json:"bytes_per_op"`
	OpsSec   float64 `json:"ops_per_sec"`
	MsgsOp   float64 `json:"msgs_per_op,omitempty"`
	N        int     `json:"iterations"`
}

// benchDoc is the top-level JSON document written by -mode bench -json.
type benchDoc struct {
	Mode    string        `json:"mode"`
	Keys    int           `json:"keys"`
	Hosts   int           `json:"hosts"`
	Seed    uint64        `json:"seed"`
	Go      string        `json:"go"`
	CPUs    int           `json:"cpus"`
	Results []benchRecord `json:"results"`
}

// benchOp performs operation i of a row and returns the messages it
// charged (0 for rows that route nothing).
type benchOp func(i int) (msgs int, err error)

// benchRow is one row of the bench table: build constructs the structure
// and returns the operation to time. A query row builds once and sees the
// iteration index. A steady row measures updates at a fixed size: it
// rebuilds — outside the timer — at the start and after every cycle
// timed operations, and sees the index within the cycle, so the
// structure stays within [keys, 2 keys) whatever b.N is.
type benchRow struct {
	name   string
	steady bool
	build  func() (benchOp, error)
}

// measure runs the row under testing.Benchmark.
func (r benchRow) measure(cycle int) (benchRecord, error) {
	var (
		op   benchOp
		err  error
		msgs int64
	)
	if !r.steady {
		if op, err = r.build(); err != nil {
			return benchRecord{}, err
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		// testing.Benchmark re-invokes this with growing b.N; reset the
		// tally so the final run's count matches res.N.
		msgs = 0
		b.ReportAllocs()
		count := 0
		for i := 0; i < b.N; i++ {
			if r.steady && (i == 0 || count == cycle) {
				b.StopTimer()
				if op, err = r.build(); err != nil {
					b.Fatal(err)
				}
				count = 0
				b.StartTimer()
			}
			var h int
			if h, err = op(count); err != nil {
				b.Fatal(err)
			}
			msgs += int64(h)
			count++
		}
	})
	if err != nil {
		return benchRecord{}, err
	}
	rec := benchRecord{
		Name:     r.name,
		NsPerOp:  float64(res.NsPerOp()),
		AllocsOp: float64(res.AllocsPerOp()),
		BytesOp:  float64(res.AllocedBytesPerOp()),
		MsgsOp:   float64(msgs) / float64(res.N),
		N:        res.N,
	}
	if res.T > 0 {
		rec.OpsSec = float64(res.N) / res.T.Seconds()
	}
	return rec, nil
}

// listN is the level size of the local-search row.
const listN = 100_000

// benchRows is the bench table at (keyN, hosts, seed).
func benchRows(keyN, hosts int, seed uint64) []benchRow {
	keys := experiments.Keys(xrand.New(seed), 2*keyN, 1<<40)
	base := skipwebs.Options{Seed: seed}
	origin := func(i int) skipwebs.HostID { return skipwebs.HostID(i % hosts) }
	uniform := func(s uint64) func() uint64 {
		rng := xrand.New(s)
		return func() uint64 { return rng.Uint64n(1 << 40) }
	}

	// floor is a point-query row over the first keyN keys: next supplies
	// the query stream. A cluster built with options carries a cost model,
	// and then every charged message must also have been priced.
	floor := func(name string, s int, o skipwebs.Options, next func() uint64, copts ...skipwebs.ClusterOption) benchRow {
		return benchRow{name: name, build: func() (benchOp, error) {
			w, err := sortedSets[s].build(skipwebs.NewCluster(hosts, copts...), keys[:keyN], o)
			return func(i int) (int, error) {
				r, err := w.Floor(next(), origin(i))
				if err == nil && len(copts) > 0 && r.Hops > 0 && r.Latency == 0 {
					err = fmt.Errorf("%s: %d messages charged but zero modeled latency", name, r.Hops)
				}
				return r.Hops, err
			}, err
		}}
	}
	zipf := func() func() uint64 {
		z := xrand.NewZipf(xrand.New(seed+13), 1.2, keyN)
		return func() uint64 { return keys[z.Next()] }
	}
	r1 := skipwebs.Options{Seed: seed, Replicas: 1}
	s4 := skipwebs.Options{Seed: seed, WriteStripes: 4}
	model := skipwebs.TwoLevelLatency(64,
		skipwebs.UniformLatency(seed, 1, 5),
		skipwebs.LogNormalLatency(seed+1, math.Log(100), 0.25))
	rows := []benchRow{
		floor("query/blocked-floor", blocked, base, uniform(seed+1)),
		floor("query/onedim-floor", oneDim, base, uniform(seed+2)),
		floor("query/bucketed-floor", bucketed, base, uniform(seed+7)),
		// Twins of query/blocked-floor on the same query stream, carrying
		// its ceilings: explicit Replicas: 1 (replica-aware routing must
		// cost exactly what the pre-replication code did), WriteStripes: 4
		// (routed floors over four quarter-size sub-engines cost no more),
		// and the two-level rack/region cost model (latency accounting adds
		// no allocation and no message).
		floor("query/blocked-floor-r1", blocked, r1, uniform(seed+1)),
		floor("query/blocked-floor-s4", blocked, s4, uniform(seed+1)),
		// A Zipf(1.2) stream over the stored keys, without and with the
		// read-path caches: the first pins the skewed-control cost, the
		// second that finger hits keep paying off.
		floor("query/blocked-floor-zipf", blocked, base, zipf()),
		floor("query/blocked-floor-zipf-cached", blocked,
			skipwebs.Options{Seed: seed, CacheFingers: true, NegativeBloom: true}, zipf()),
		floor("query/blocked-floor-lat", blocked, base, uniform(seed+1), skipwebs.WithLatency(model)),
	}

	pointPool := func(prng *xrand.Rand, n int) []skipwebs.Point {
		seen := make(map[uint64]bool, n)
		pts := make([]skipwebs.Point, 0, n)
		for len(pts) < n {
			p := skipwebs.Point{uint32(prng.Uint64n(1 << 30)), uint32(prng.Uint64n(1 << 30))}
			code := uint64(p[0])<<31 | uint64(p[1])
			if !seen[code] {
				seen[code] = true
				pts = append(pts, p)
			}
		}
		return pts
	}
	const span = 60000
	segN := min(keyN/8, 512)
	rows = append(rows,
		benchRow{name: "query/points-locate", build: func() (benchOp, error) {
			prng := xrand.New(seed + 3)
			w, err := skipwebs.NewPoints(skipwebs.NewCluster(hosts), 2, pointPool(prng, keyN), base)
			// Pre-generate queries so the Point composite literal is not
			// charged to the descent's allocs/op.
			qs := pointPool(prng, 4096)
			return func(i int) (int, error) {
				loc, err := w.Locate(qs[i%len(qs)], origin(i))
				return loc.Hops, err
			}, err
		}},
		benchRow{name: "query/strings-search", build: func() (benchOp, error) {
			skeys := experiments.UniformStrings(xrand.New(seed+4), keyN, "acgt", 6, 24)
			w, err := skipwebs.NewStrings(skipwebs.NewCluster(hosts), skeys, base)
			return func(i int) (int, error) {
				loc, err := w.Search(skeys[i%len(skeys)], origin(i))
				return loc.Hops, err
			}, err
		}},
		benchRow{name: "query/planar-locate", build: func() (benchOp, error) {
			srng := xrand.New(seed + 5)
			w, err := skipwebs.NewPlanar(skipwebs.NewCluster(hosts), planarSegments(srng, segN, span), planarBounds(span), base)
			return func(i int) (int, error) {
				loc, err := w.Locate(planarPoint(srng, span), origin(i))
				return loc.Hops, err
			}, err
		}})

	// The key-addressed update rows share their schedules: inserts stream
	// fresh ascending keys above the stored range; deletes walk a fixed
	// shuffled permutation of 2 keyN stored keys. The -r1 and -s4 twins
	// pin zero k = 1 write-through overhead and the striped write path.
	delOrder := xrand.New(seed + 6).Perm(keyN)
	for _, v := range []struct {
		name string
		s    int
		o    skipwebs.Options
	}{{"onedim", oneDim, base}, {"blocked", blocked, base}, {"bucketed", bucketed, base},
		{"blocked-r1", blocked, r1}, {"blocked-s4", blocked, s4}} {
		v := v
		rows = append(rows,
			benchRow{name: "update/" + v.name + "-insert", steady: true, build: func() (benchOp, error) {
				w, err := sortedSets[v.s].build(skipwebs.NewCluster(hosts), keys[:keyN], v.o)
				next := uint64(1) << 41
				return func(i int) (int, error) {
					next++
					return w.Insert(next, origin(i))
				}, err
			}},
			benchRow{name: "update/" + v.name + "-delete", steady: true, build: func() (benchOp, error) {
				w, err := sortedSets[v.s].build(skipwebs.NewCluster(hosts), keys, v.o)
				return func(i int) (int, error) { return w.Delete(keys[delOrder[i]], origin(i)) }, err
			}})
	}

	prng := xrand.New(seed + 8)
	pts := pointPool(prng, 2*keyN)
	freshPts := pointPool(xrand.New(seed+9), keyN)
	strs := experiments.UniformStrings(xrand.New(seed+11), 2*keyN, "acgt", 10, 24)
	freshStrs := make([]string, keyN)
	for i := range freshStrs {
		freshStrs[i] = strs[keyN+i] + "x" // distinct from every stored string: the alphabet has no 'x'
	}
	rebuildSegs := planarSegments(xrand.New(seed+12), segN, span)
	rows = append(rows,
		benchRow{name: "update/points-insert", steady: true, build: func() (benchOp, error) {
			w, err := skipwebs.NewPoints(skipwebs.NewCluster(hosts), 2, pts[:keyN], base)
			return func(i int) (int, error) {
				h, err := w.Insert(freshPts[i], origin(i))
				if err != nil {
					// A fresh point may collide with a stored one; draw another.
					return w.Insert(skipwebs.Point{uint32(prng.Uint64n(1 << 30)), uint32(prng.Uint64n(1 << 30))}, origin(i))
				}
				return h, nil
			}, err
		}},
		benchRow{name: "update/points-delete", steady: true, build: func() (benchOp, error) {
			w, err := skipwebs.NewPoints(skipwebs.NewCluster(hosts), 2, pts, base)
			return func(i int) (int, error) { return w.Delete(pts[delOrder[i]], origin(i)) }, err
		}},
		benchRow{name: "update/strings-insert", steady: true, build: func() (benchOp, error) {
			w, err := skipwebs.NewStrings(skipwebs.NewCluster(hosts), strs[:keyN], base)
			return func(i int) (int, error) { return w.Insert(freshStrs[i], origin(i)) }, err
		}},
		benchRow{name: "update/strings-delete", steady: true, build: func() (benchOp, error) {
			w, err := skipwebs.NewStrings(skipwebs.NewCluster(hosts), strs, base)
			return func(i int) (int, error) { return w.Delete(strs[delOrder[i]], origin(i)) }, err
		}},
		// Planar is static (Section 4's amortization caveat): its only
		// "update" is a rebuild, measured per construction.
		benchRow{name: "build/planar-rebuild", build: func() (benchOp, error) {
			return func(int) (int, error) {
				_, err := skipwebs.NewPlanar(skipwebs.NewCluster(hosts), rebuildSegs, planarBounds(span), base)
				return 0, err
			}, nil
		}},
		// Local search: ListLevel's binary-search Locate.
		benchRow{name: "local/listlevel-locate-binary", build: func() (benchOp, error) {
			lvl, err := core.NewListLevel(experiments.Keys(xrand.New(seed+5), listN, 1<<40))
			next := uniform(seed + 6)
			return func(int) (int, error) {
				lvl.Locate(next())
				return 0, nil
			}, err
		}})
	return rows
}

// runBench measures the hot-path micro-benchmarks and reports ns/op,
// allocs/op, ops/sec and msgs/op; -baseline checks allocs/op and msgs/op
// against the committed ceilings.
func runBench(out io.Writer, cfg *config) error {
	doc := benchDoc{
		Mode: "bench", Keys: cfg.keys, Hosts: cfg.hosts, Seed: cfg.seed,
		Go: runtime.Version(), CPUs: runtime.NumCPU(),
	}
	for _, r := range benchRows(cfg.keys, cfg.hosts, cfg.seed) {
		rec, err := r.measure(cfg.keys)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		doc.Results = append(doc.Results, rec)
	}
	fmt.Fprintf(out, "=== B1: hot-path micro-benchmarks (keys=%d hosts=%d list=%d, steady-state updates) ===\n",
		cfg.keys, cfg.hosts, listN)
	for _, r := range doc.Results {
		fmt.Fprintf(out, "%-32s %12.1f ns/op %8.0f allocs/op %10.0f ops/sec", r.Name, r.NsPerOp, r.AllocsOp, r.OpsSec)
		if r.MsgsOp > 0 {
			fmt.Fprintf(out, " %8.2f msgs/op", r.MsgsOp)
		}
		fmt.Fprintln(out)
	}
	if err := writeJSON(out, cfg.json, doc); err != nil {
		return err
	}
	if cfg.baseline != "" {
		return checkBaseline(out, doc, cfg.baseline)
	}
	return nil
}

// baselineCeiling is one row of the checked-in perf baseline: ceilings
// on allocs/op and msgs/op for a named benchmark at the CI invocation's
// scale. A nil ceiling skips that metric.
type baselineCeiling struct {
	Name     string   `json:"name"`
	AllocsOp *float64 `json:"max_allocs_per_op,omitempty"`
	MsgsOp   *float64 `json:"max_msgs_per_op,omitempty"`
}

// recoveryCeiling is one committed ceiling on the merkle-vs-full ratio:
// the worst measured ratio for the named structure across the run's k
// values must stay under it.
type recoveryCeiling struct {
	Structure string  `json:"structure"`
	MaxRatio  float64 `json:"max_merkle_over_full"`
}

// baselineDoc is the sections of the checked-in perf-regression baseline
// (-baseline, bench_baseline.json) this tool enforces.
type baselineDoc struct {
	Ceilings []baselineCeiling `json:"ceilings"`
	Recovery []recoveryCeiling `json:"recovery_ceilings"`
}

func readBaseline(path string) (baselineDoc, error) {
	var base baselineDoc
	raw, err := os.ReadFile(path)
	if err != nil {
		return base, fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return base, fmt.Errorf("baseline %s: %w", path, err)
	}
	return base, nil
}

// baselineVerdict reports the outcome of checking the n ceilings of one
// kind ("perf", "recovery") against path.
func baselineVerdict(out io.Writer, path, kind string, n int, failures []string) error {
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(out, "PERF REGRESSION:", f)
		}
		return fmt.Errorf("%d %s regression(s) against %s", len(failures), kind, path)
	}
	fmt.Fprintf(out, "baseline %s: all %d %s ceilings hold\n", path, n, kind)
	return nil
}

// checkBaseline compares the measured results against the baseline
// ceilings: a missing benchmark row or an exceeded ceiling is a failure.
// allocs/op ceilings are exact integers in practice, so they compare
// directly; msgs/op ceilings carry the tolerance in the committed value.
func checkBaseline(out io.Writer, doc benchDoc, path string) error {
	base, err := readBaseline(path)
	if err != nil {
		return err
	}
	byName := make(map[string]benchRecord, len(doc.Results))
	for _, r := range doc.Results {
		byName[r.Name] = r
	}
	var failures []string
	for _, c := range base.Ceilings {
		r, ok := byName[c.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: benchmark missing from this run (guard erosion)", c.Name))
			continue
		}
		if c.AllocsOp != nil && r.AllocsOp > *c.AllocsOp {
			failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op exceeds ceiling %.0f", c.Name, r.AllocsOp, *c.AllocsOp))
		}
		if c.MsgsOp != nil && r.MsgsOp > *c.MsgsOp {
			failures = append(failures, fmt.Sprintf("%s: %.2f msgs/op exceeds ceiling %.2f", c.Name, r.MsgsOp, *c.MsgsOp))
		}
	}
	return baselineVerdict(out, path, "perf", len(base.Ceilings), failures)
}
