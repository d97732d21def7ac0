// Command skipweb-bench regenerates every table and figure of the
// skip-webs paper on the message-counting simulator, and measures the
// wall-clock throughput of the concurrent batch query engine.
//
// Usage:
//
//	skipweb-bench [-mode experiments|throughput|bench|churn|failover|wire]
//	              [-experiment all|table1|lemma1|lemma3|lemma4|lemma5|
//	               theorem2|blocking|updates|congestion|ablation|figures]
//	              [-quick] [-seed N]
//	              [-hosts H] [-keys N] [-queries Q] [-procs 1,2,4]
//	              [-stripes S]
//	              [-churn-rates 0,0.002,0.01,0.04]
//	              [-replicas 1,2,3] [-crashes N] [-restart]
//	              [-json FILE] [-baseline FILE]
//
// The default mode runs the paper experiments at the EXPERIMENTS.md
// scale; -quick runs a reduced sweep for smoke testing. Throughput mode
// runs batched floor queries over a Blocked skip-web, plus InsertBatch
// and DeleteBatch over the same web built with -stripes write stripes,
// at each GOMAXPROCS value in -procs; it reports ops/sec, verifies that
// batched execution charges exactly the same messages as the
// synchronous path for both reads and striped writes, writes the table
// as JSON with -json (BENCH_WRITERS_PR8.json), and on a >= 4-CPU
// machine fails unless striped inserts scale >= 2x from 1 to 4 procs.
//
// Bench mode measures wall-clock micro-benchmarks of the hot paths
// (ns/op, allocs/op, ops/sec — plus msgs/op, the paper's cost metric)
// and, with -json, writes them as a JSON document (e.g. BENCH_PR2.json)
// so perf trajectories can be compared run over run (`benchstat` works
// on the plain `go test -bench` output; the JSON is for dashboards and
// CI artifacts).
//
// Failover mode measures crash tolerance versus the replication factor
// -replicas: at each k, a mixed query workload over all six structures
// is interleaved with -crashes unclean host kills (Cluster.Crash: no
// migration, the host's data dies, Repair re-replicates from the
// surviving copies). It reports availability (fraction of queries
// answered rather than failing fast), whether every answered query
// matched a crash-free control build, lost units, repair msgs/event,
// and query/update msgs/op — the replication overhead; results are
// recorded as BENCH_FAILOVER_PR5.json. With -restart, failover mode
// instead measures durable recovery: for each structure and k it
// crashes one host of a durable cluster and a non-durable twin, churns
// ~1% of the keys while the host is down, then brings it back with
// Cluster.Restart (WAL replay + merkle-diff reconcile) and compares the
// reconcile traffic against the twin's full re-replication — the ratio
// must stay under 10%; results are recorded as BENCH_RECOVERY_PR7.json
// and -baseline enforces the committed recovery_ceilings.
//
// Wire mode replays a seeded workload against a cluster of skip-web
// daemons speaking the real TCP wire protocol (in-process listeners by
// default; real skipweb-serve processes with -serve-bin) and diffs the
// per-host message counters against a simulator run of the identical
// workload — they must be bit-identical, since the model's charges are
// transport-invariant. It also reports real-socket query latency
// (p50/p99); results are recorded as BENCH_WIRE_PR6.json. With
// -restart (requires -serve-bin), the daemons run with a WAL directory
// and one of them is SIGKILLed mid-workload and restarted; the replayed
// daemon must rejoin and the final answers, digests, and summed
// per-host counters must still match the crash-free simulator run.
//
// Churn mode runs a join/leave storm against every structure at once:
// at each rate in -churn-rates (churn events per operation), a mixed
// query workload of -queries operations is interleaved with alternating
// Cluster.Leave and Cluster.Join events. After every churn event the
// mode verifies Cluster.CheckConsistent and spot-checks stored keys; at
// the end it sweeps every key of every structure (zero lost keys) and
// reports ops/sec, query msgs/op, migration msgs/event, and the
// per-host storage quantiles — how load rebalances under churn.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	skipwebs "github.com/skipwebs/skipwebs"
	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/experiments"
	"github.com/skipwebs/skipwebs/internal/trapmap"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "skipweb-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("skipweb-bench", flag.ContinueOnError)
	mode := fs.String("mode", "experiments", "experiments, throughput, bench, churn, failover, wire, skew, scale, or campaign")
	experiment := fs.String("experiment", "all", "which experiment to run")
	quick := fs.Bool("quick", false, "reduced sweep for smoke testing")
	seed := fs.Uint64("seed", 1, "random seed")
	hosts := fs.Int("hosts", 256, "throughput: number of hosts")
	keyN := fs.Int("keys", 4096, "throughput: stored key count")
	queries := fs.Int("queries", 20000, "throughput: queries per batch")
	procs := fs.String("procs", "1,2,4", "throughput: comma-separated GOMAXPROCS values")
	stripes := fs.Int("stripes", 4, "throughput: write stripes for the insert/delete section")
	churnRates := fs.String("churn-rates", "0,0.002,0.01,0.04", "churn: comma-separated churn events per operation")
	replicas := fs.String("replicas", "1,2,3", "failover: comma-separated replication factors k")
	crashes := fs.Int("crashes", 4, "failover: host crashes per trial")
	jsonPath := fs.String("json", "", "bench/churn: also write results as JSON to this file")
	baseline := fs.String("baseline", "", "bench: compare allocs/op and msgs/op against the ceilings in this JSON file and fail on regression")
	serveBin := fs.String("serve-bin", "", "wire: path to a skipweb-serve binary; when set, daemons run as real processes")
	basePort := fs.Int("base-port", 7070, "wire: first loopback port for -serve-bin daemons")
	restart := fs.Bool("restart", false, "failover: measure durable crash->Restart (WAL replay + merkle diff) against full re-replication; wire: SIGKILL and restart a real daemon mid-workload")
	skewS := fs.String("skew-s", "0.8,1.0,1.2", "skew: comma-separated Zipf exponents (campaign uses the first)")
	skewAbsent := fs.Float64("skew-absent", 0.25, "skew/campaign: fraction of adversarial absent-key queries")
	scaleHosts := fs.String("scale-hosts", "256,1024,4096,10000", "scale: comma-separated host counts to sweep")
	scaleKeys := fs.String("scale-keys", "262144,1048576,10485760", "scale: comma-separated key counts to sweep")
	latSpec := fs.String("latency", "twolevel", "scale/campaign: per-link latency model (none, fixed:C, uniform:LO:HI, lognormal:MU:SIGMA, twolevel[:RACK])")
	maxWall := fs.Duration("max-wall", 0, "scale/campaign: stop starting new cells after this wall-clock budget (0 = unlimited)")
	crashFracs := fs.String("crash-fracs", "0.01,0.05,0.1,0.2", "campaign: comma-separated fractions of hosts crashed simultaneously")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help printed usage; not a failure
		}
		return err
	}
	if *mode == "skew" {
		// Skew mode replays every op against two full builds per cell;
		// scale the sim-sized defaults down unless set explicitly.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["hosts"] {
			*hosts = 64
		}
		if !set["queries"] {
			*queries = 8000
		}
	}
	if *mode == "scale" {
		// A scale cell drives one batch of -queries through each build;
		// the throughput-sized default (20000) multiplies across the whole
		// hosts x keys sweep, so scale it down unless set explicitly.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["queries"] {
			*queries = 2000
		}
	}
	if *mode == "campaign" {
		// Campaign builds all six structures per replication factor and a
		// fresh durable cluster per crash fraction; default to the scale
		// the breaking-point tables are reported at, replicated x3.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["hosts"] {
			*hosts = 1024
		}
		if !set["keys"] {
			*keyN = 262144
		}
		if !set["queries"] {
			*queries = 4000
		}
		if !set["replicas"] {
			*replicas = "3"
		}
	}
	if *mode == "wire" {
		// The sim-scale defaults (256 hosts, 20000 queries) are sized for
		// in-process message counting, not for a socket per hop; scale the
		// defaults down unless the flag was given explicitly.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["hosts"] {
			*hosts = 4
		}
		if !set["keys"] {
			*keyN = 512
		}
		if !set["queries"] {
			*queries = 500
		}
	}

	switch *mode {
	case "experiments":
		return runExperiments(out, *experiment, *quick, *seed)
	case "throughput":
		return runThroughput(out, *jsonPath, *hosts, *keyN, *queries, *procs, *stripes, *seed)
	case "bench":
		return runBench(out, *jsonPath, *baseline, *keyN, *hosts, *seed, *quick)
	case "churn":
		return runChurn(out, *jsonPath, *hosts, *keyN, *queries, *churnRates, *seed, *quick)
	case "failover":
		if *restart {
			return runRecovery(out, *jsonPath, *baseline, *hosts, *keyN, *replicas, *seed)
		}
		return runFailover(out, *jsonPath, *hosts, *keyN, *queries, *replicas, *crashes, *seed, *quick)
	case "wire":
		return runWire(out, *jsonPath, *serveBin, *basePort, *hosts, *keyN, *queries, *seed, *restart)
	case "skew":
		return runSkew(out, *jsonPath, *hosts, *keyN, *queries, *skewS, *skewAbsent, *seed, *quick)
	case "scale":
		return runScale(out, *jsonPath, *scaleHosts, *scaleKeys, *queries, *latSpec, *maxWall, *seed, *quick)
	case "campaign":
		s, err := firstSkewS(*skewS)
		if err != nil {
			return err
		}
		return runCampaign(out, *jsonPath, *hosts, *keyN, *queries, *replicas, *crashFracs, *latSpec, s, *skewAbsent, *maxWall, *seed, *quick)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

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

// benchDoc is the top-level JSON document written by -json.
type benchDoc struct {
	Mode    string        `json:"mode"`
	Keys    int           `json:"keys"`
	Hosts   int           `json:"hosts"`
	Seed    uint64        `json:"seed"`
	Go      string        `json:"go"`
	CPUs    int           `json:"cpus"`
	Results []benchRecord `json:"results"`
}

// measure runs fn under testing.Benchmark and converts the result; msgs
// is the total message count accumulated by fn across iterations (pass
// nil to omit the msgs/op metric).
func measure(name string, msgs *int64, fn func(b *testing.B)) benchRecord {
	// testing.Benchmark re-invokes fn with growing b.N; reset the message
	// tally on each invocation so the final run's count matches res.N.
	res := testing.Benchmark(func(b *testing.B) {
		if msgs != nil {
			*msgs = 0
		}
		b.ReportAllocs()
		fn(b)
	})
	rec := benchRecord{
		Name:     name,
		NsPerOp:  float64(res.NsPerOp()),
		AllocsOp: float64(res.AllocsPerOp()),
		BytesOp:  float64(res.AllocedBytesPerOp()),
		N:        res.N,
	}
	if res.T > 0 {
		rec.OpsSec = float64(res.N) / res.T.Seconds()
	}
	if msgs != nil {
		rec.MsgsOp = float64(*msgs) / float64(res.N)
	}
	return rec
}

// baselineCeiling is one row of the checked-in perf baseline: ceilings
// on allocs/op and msgs/op for a named benchmark at the CI invocation's
// scale. A nil ceiling skips that metric.
type baselineCeiling struct {
	Name     string   `json:"name"`
	AllocsOp *float64 `json:"max_allocs_per_op,omitempty"`
	MsgsOp   *float64 `json:"max_msgs_per_op,omitempty"`
}

// baselineDoc is the checked-in perf-regression baseline (-baseline).
type baselineDoc struct {
	Note     string            `json:"note"`
	Ceilings []baselineCeiling `json:"ceilings"`
}

// checkBaseline compares the measured results against the baseline
// ceilings: a missing benchmark row or an exceeded ceiling is a failure.
// allocs/op ceilings are exact integers in practice, so they compare
// directly; msgs/op ceilings carry the tolerance in the committed value.
func checkBaseline(out io.Writer, doc benchDoc, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base baselineDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
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
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(out, "PERF REGRESSION:", f)
		}
		return fmt.Errorf("%d perf regression(s) against %s", len(failures), path)
	}
	fmt.Fprintf(out, "baseline %s: all %d ceilings hold\n", path, len(base.Ceilings))
	return nil
}

// runBench measures the hot-path micro-benchmarks and reports ns/op,
// allocs/op, ops/sec, and msgs/op. With jsonPath, the results are also
// written as a JSON document (the repo records PR-over-PR trajectories
// in files like BENCH_PR4.json); with baselinePath, measured allocs/op
// and msgs/op are checked against the committed ceilings.
//
// Update rows measure the steady state at the configured size: inserts
// stream fresh ascending keys and the structure is rebuilt fresh —
// outside the timer — once keyN timed inserts have landed, so the
// structure size stays within [keyN, 2 keyN); delete rows build over
// 2 keyN keys and rebuild after keyN timed deletes. (The PR 2 harness
// let the insert benchmark grow the structure with the iteration count,
// so its ns/op conflated update cost with structure growth; EXPERIMENTS
// notes the change.) The -quick flag skips the large-n (262144-key,
// bulk-loaded) rows and the bulk-vs-sequential construction comparison.
func runBench(out io.Writer, jsonPath, baselinePath string, keyN, hosts int, seed uint64, quick bool) error {
	if keyN < 64 {
		return fmt.Errorf("-keys must be >= 64 for bench mode, got %d", keyN)
	}
	if hosts < 1 {
		return fmt.Errorf("-hosts must be positive, got %d", hosts)
	}
	listN := 100_000
	if quick {
		listN = 10_000
	}
	rng := xrand.New(seed)
	keys := experiments.Keys(rng, 2*keyN, 1<<40)
	doc := benchDoc{
		Mode:  "bench",
		Keys:  keyN,
		Hosts: hosts,
		Seed:  seed,
		Go:    runtime.Version(),
		CPUs:  runtime.NumCPU(),
	}
	var msgs int64

	// --- Point-query descent, per structure. ---
	{
		c := skipwebs.NewCluster(hosts)
		w, err := skipwebs.NewBlocked(c, keys[:keyN], skipwebs.Options{Seed: seed})
		if err != nil {
			return err
		}
		qrng := xrand.New(seed + 1)
		doc.Results = append(doc.Results, measure("query/blocked-floor", &msgs, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := w.Floor(qrng.Uint64n(1<<40), skipwebs.HostID(i%hosts))
				if err != nil {
					b.Fatal(err)
				}
				msgs += int64(r.Hops)
			}
		}))
	}
	{
		c := skipwebs.NewCluster(hosts)
		w, err := skipwebs.NewOneDim(c, keys[:keyN], skipwebs.Options{Seed: seed})
		if err != nil {
			return err
		}
		qrng := xrand.New(seed + 2)
		doc.Results = append(doc.Results, measure("query/onedim-floor", &msgs, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := w.Floor(qrng.Uint64n(1<<40), skipwebs.HostID(i%hosts))
				if err != nil {
					b.Fatal(err)
				}
				msgs += int64(r.Hops)
			}
		}))
	}
	{
		c := skipwebs.NewCluster(hosts)
		w, err := skipwebs.NewBucketed(c, keys[:keyN], skipwebs.Options{Seed: seed})
		if err != nil {
			return err
		}
		qrng := xrand.New(seed + 7)
		doc.Results = append(doc.Results, measure("query/bucketed-floor", &msgs, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := w.Floor(qrng.Uint64n(1<<40), skipwebs.HostID(i%hosts))
				if err != nil {
					b.Fatal(err)
				}
				msgs += int64(r.Hops)
			}
		}))
	}
	// Explicit Replicas: 1 twin of the blocked query row: the replica-
	// aware routing, storage, and write-through paths at k = 1 must cost
	// exactly what the pre-replication code did. Its baseline ceilings
	// equal query/blocked-floor's, so any k = 1 replication overhead —
	// messages or allocations — fails the perf guard.
	{
		c := skipwebs.NewCluster(hosts)
		w, err := skipwebs.NewBlocked(c, keys[:keyN], skipwebs.Options{Seed: seed, Replicas: 1})
		if err != nil {
			return err
		}
		qrng := xrand.New(seed + 1) // same query stream as query/blocked-floor
		doc.Results = append(doc.Results, measure("query/blocked-floor-r1", &msgs, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := w.Floor(qrng.Uint64n(1<<40), skipwebs.HostID(i%hosts))
				if err != nil {
					b.Fatal(err)
				}
				msgs += int64(r.Hops)
			}
		}))
	}
	// Striped twin of the blocked query row: WriteStripes: 4 splits the
	// structure into four quarter-size sub-engines, so routed floors must
	// stay allocation-free and cost no more messages than the unstriped
	// build (descents are shorter; cross-stripe floor fallback is rare).
	{
		c := skipwebs.NewCluster(hosts)
		w, err := skipwebs.NewBlocked(c, keys[:keyN], skipwebs.Options{Seed: seed, WriteStripes: 4})
		if err != nil {
			return err
		}
		qrng := xrand.New(seed + 1) // same query stream as query/blocked-floor
		doc.Results = append(doc.Results, measure("query/blocked-floor-s4", &msgs, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := w.Floor(qrng.Uint64n(1<<40), skipwebs.HostID(i%hosts))
				if err != nil {
					b.Fatal(err)
				}
				msgs += int64(r.Hops)
			}
		}))
	}
	// Cached twin rows: the same blocked build queried with a Zipf(1.2)
	// stream over the stored keys, with and without the read-path caches
	// (Options.CacheFingers + NegativeBloom). The cache-off row pins the
	// skewed-control cost; the cached row's ceiling enforces that finger
	// hits keep paying off and stay allocation-lean on the hit path.
	for _, cached := range []bool{false, true} {
		name := "query/blocked-floor-zipf"
		if cached {
			name += "-cached"
		}
		c := skipwebs.NewCluster(hosts)
		w, err := skipwebs.NewBlocked(c, keys[:keyN], skipwebs.Options{
			Seed: seed, CacheFingers: cached, NegativeBloom: cached,
		})
		if err != nil {
			return err
		}
		zipf := xrand.NewZipf(xrand.New(seed+13), 1.2, keyN)
		doc.Results = append(doc.Results, measure(name, &msgs, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := w.Floor(keys[zipf.Next()], skipwebs.HostID(i%hosts))
				if err != nil {
					b.Fatal(err)
				}
				msgs += int64(r.Hops)
			}
		}))
	}
	// Latency-model twin of the blocked query row: the same build and
	// query stream under the two-level rack/region cost model. Its
	// ceilings pin that latency accounting is free where it matters —
	// zero allocations on the descent (the model is a pure hash per
	// charge) and not one extra message versus the nil-model row.
	{
		model := skipwebs.TwoLevelLatency(64,
			skipwebs.UniformLatency(seed, 1, 5),
			skipwebs.LogNormalLatency(seed+1, math.Log(100), 0.25))
		c := skipwebs.NewCluster(hosts, skipwebs.WithLatency(model))
		w, err := skipwebs.NewBlocked(c, keys[:keyN], skipwebs.Options{Seed: seed})
		if err != nil {
			return err
		}
		qrng := xrand.New(seed + 1) // same query stream as query/blocked-floor
		var lat int64
		doc.Results = append(doc.Results, measure("query/blocked-floor-lat", &msgs, func(b *testing.B) {
			lat = 0
			for i := 0; i < b.N; i++ {
				r, err := w.Floor(qrng.Uint64n(1<<40), skipwebs.HostID(i%hosts))
				if err != nil {
					b.Fatal(err)
				}
				msgs += int64(r.Hops)
				lat += r.Latency
			}
		}))
		if lat == 0 {
			return fmt.Errorf("query/blocked-floor-lat accumulated zero modeled latency")
		}
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
	{
		c := skipwebs.NewCluster(hosts)
		prng := xrand.New(seed + 3)
		pts := pointPool(prng, keyN)
		w, err := skipwebs.NewPoints(c, 2, pts, skipwebs.Options{Seed: seed})
		if err != nil {
			return err
		}
		// Pre-generate queries so the Point composite literal is not
		// charged to the descent's allocs/op.
		qs := make([]skipwebs.Point, 4096)
		for i := range qs {
			qs[i] = skipwebs.Point{uint32(prng.Uint64n(1 << 30)), uint32(prng.Uint64n(1 << 30))}
		}
		doc.Results = append(doc.Results, measure("query/points-locate", &msgs, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				loc, err := w.Locate(qs[i%len(qs)], skipwebs.HostID(i%hosts))
				if err != nil {
					b.Fatal(err)
				}
				msgs += int64(loc.Hops)
			}
		}))
	}
	{
		c := skipwebs.NewCluster(hosts)
		srng := xrand.New(seed + 4)
		skeys := experiments.UniformStrings(srng, keyN, "acgt", 6, 24)
		w, err := skipwebs.NewStrings(c, skeys, skipwebs.Options{Seed: seed})
		if err != nil {
			return err
		}
		doc.Results = append(doc.Results, measure("query/strings-search", &msgs, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				loc, err := w.Search(skeys[i%len(skeys)], skipwebs.HostID(i%hosts))
				if err != nil {
					b.Fatal(err)
				}
				msgs += int64(loc.Hops)
			}
		}))
	}
	segBounds := skipwebs.PlanarBounds{MinX: -60000, MinY: -60000, MaxX: 60000, MaxY: 60000}
	segRect := trapmap.Rect{MinX: -60000, MinY: -60000, MaxX: 60000, MaxY: 60000}
	segN := keyN / 8
	if segN > 512 {
		segN = 512
	}
	mkSegs := func(srng *xrand.Rand) []skipwebs.PlanarSegment {
		raw := experiments.DisjointSegments(srng, segN, segRect)
		segs := make([]skipwebs.PlanarSegment, len(raw))
		for i, s := range raw {
			segs[i] = skipwebs.PlanarSegment{
				A: skipwebs.PlanarPoint{X: s.A.X, Y: s.A.Y},
				B: skipwebs.PlanarPoint{X: s.B.X, Y: s.B.Y},
			}
		}
		return segs
	}
	{
		srng := xrand.New(seed + 5)
		segs := mkSegs(srng)
		c := skipwebs.NewCluster(hosts)
		w, err := skipwebs.NewPlanar(c, segs, segBounds, skipwebs.Options{Seed: seed})
		if err != nil {
			return err
		}
		doc.Results = append(doc.Results, measure("query/planar-locate", &msgs, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := skipwebs.PlanarPoint{
					X: int64(srng.Uint64n(119998)) - 59999,
					Y: int64(srng.Uint64n(119998)) - 59999,
				}
				loc, err := w.Locate(q, skipwebs.HostID(i%hosts))
				if err != nil {
					b.Fatal(err)
				}
				msgs += int64(loc.Hops)
			}
		}))
	}

	// --- Steady-state update rows. ---
	// steadyUpdate drives one op per iteration from a cyclic schedule of
	// length keyN; after each full cycle the structure is rebuilt fresh
	// outside the timer, so the size band never drifts with b.N.
	steadyUpdate := func(name string, reset func() error, op func(i int) (int, error)) error {
		var outerErr error
		doc.Results = append(doc.Results, measure(name, &msgs, func(b *testing.B) {
			b.StopTimer()
			if outerErr = reset(); outerErr != nil {
				b.Fatal(outerErr)
			}
			count := 0
			b.StartTimer()
			for i := 0; i < b.N; i++ {
				if count == keyN {
					b.StopTimer()
					if outerErr = reset(); outerErr != nil {
						b.Fatal(outerErr)
					}
					count = 0
					b.StartTimer()
				}
				h, err := op(count)
				if err != nil {
					outerErr = err
					b.Fatal(err)
				}
				msgs += int64(h)
				count++
			}
		}))
		return outerErr
	}

	// The three key-addressed structures share insert/delete schedules:
	// inserts stream fresh ascending keys above the stored range; deletes
	// walk a fixed shuffled permutation of the 2 keyN stored keys.
	delOrder := xrand.New(seed + 6).Perm(keyN)
	type u64Struct struct {
		name  string
		build func(ks []uint64) (ins, del func(uint64, skipwebs.HostID) (int, error), err error)
	}
	u64Structs := []u64Struct{
		{"onedim", func(ks []uint64) (func(uint64, skipwebs.HostID) (int, error), func(uint64, skipwebs.HostID) (int, error), error) {
			w, err := skipwebs.NewOneDim(skipwebs.NewCluster(hosts), ks, skipwebs.Options{Seed: seed})
			if err != nil {
				return nil, nil, err
			}
			return w.Insert, w.Delete, nil
		}},
		{"blocked", func(ks []uint64) (func(uint64, skipwebs.HostID) (int, error), func(uint64, skipwebs.HostID) (int, error), error) {
			w, err := skipwebs.NewBlocked(skipwebs.NewCluster(hosts), ks, skipwebs.Options{Seed: seed})
			if err != nil {
				return nil, nil, err
			}
			return w.Insert, w.Delete, nil
		}},
		{"bucketed", func(ks []uint64) (func(uint64, skipwebs.HostID) (int, error), func(uint64, skipwebs.HostID) (int, error), error) {
			w, err := skipwebs.NewBucketed(skipwebs.NewCluster(hosts), ks, skipwebs.Options{Seed: seed})
			if err != nil {
				return nil, nil, err
			}
			return w.Insert, w.Delete, nil
		}},
	}
	// Explicit Replicas: 1 twin of the blocked insert row (see
	// query/blocked-floor-r1): pins zero k = 1 write-through overhead.
	u64Structs = append(u64Structs, u64Struct{"blocked-r1", func(ks []uint64) (func(uint64, skipwebs.HostID) (int, error), func(uint64, skipwebs.HostID) (int, error), error) {
		w, err := skipwebs.NewBlocked(skipwebs.NewCluster(hosts), ks, skipwebs.Options{Seed: seed, Replicas: 1})
		if err != nil {
			return nil, nil, err
		}
		return w.Insert, w.Delete, nil
	}})
	// WriteStripes: 4 twin (see query/blocked-floor-s4): routed writes
	// through the striped path must cost no more than the unstriped rows.
	u64Structs = append(u64Structs, u64Struct{"blocked-s4", func(ks []uint64) (func(uint64, skipwebs.HostID) (int, error), func(uint64, skipwebs.HostID) (int, error), error) {
		w, err := skipwebs.NewBlocked(skipwebs.NewCluster(hosts), ks, skipwebs.Options{Seed: seed, WriteStripes: 4})
		if err != nil {
			return nil, nil, err
		}
		return w.Insert, w.Delete, nil
	}})
	for _, st := range u64Structs {
		st := st
		var ins func(uint64, skipwebs.HostID) (int, error)
		var next uint64
		if err := steadyUpdate("update/"+st.name+"-insert", func() error {
			var err error
			ins, _, err = st.build(keys[:keyN])
			next = uint64(1) << 41
			return err
		}, func(i int) (int, error) {
			next++
			return ins(next, skipwebs.HostID(i%hosts))
		}); err != nil {
			return err
		}
		var del func(uint64, skipwebs.HostID) (int, error)
		if err := steadyUpdate("update/"+st.name+"-delete", func() error {
			var err error
			_, del, err = st.build(keys)
			return err
		}, func(i int) (int, error) {
			return del(keys[delOrder[i]], skipwebs.HostID(i%hosts))
		}); err != nil {
			return err
		}
	}
	{
		prng := xrand.New(seed + 8)
		base := pointPool(prng, 2*keyN)
		fresh := pointPool(xrand.New(seed+9), keyN) // disjoint seed-space is checked at insert time
		var w *skipwebs.Points
		if err := steadyUpdate("update/points-insert", func() error {
			var err error
			w, err = skipwebs.NewPoints(skipwebs.NewCluster(hosts), 2, base[:keyN], skipwebs.Options{Seed: seed})
			return err
		}, func(i int) (int, error) {
			h, err := w.Insert(fresh[i], skipwebs.HostID(i%hosts))
			if err != nil {
				// A fresh point may collide with a base point; skip it.
				return w.Insert(skipwebs.Point{uint32(prng.Uint64n(1 << 30)), uint32(prng.Uint64n(1 << 30))}, skipwebs.HostID(i%hosts))
			}
			return h, nil
		}); err != nil {
			return err
		}
		if err := steadyUpdate("update/points-delete", func() error {
			var err error
			w, err = skipwebs.NewPoints(skipwebs.NewCluster(hosts), 2, base, skipwebs.Options{Seed: seed})
			return err
		}, func(i int) (int, error) {
			return w.Delete(base[delOrder[i]], skipwebs.HostID(i%hosts))
		}); err != nil {
			return err
		}
	}
	{
		srng := xrand.New(seed + 11)
		base := experiments.UniformStrings(srng, 2*keyN, "acgt", 10, 24)
		fresh := make([]string, keyN)
		for i := range fresh {
			fresh[i] = base[keyN+i] + "x" // distinct: base alphabet has no 'x'
		}
		var w *skipwebs.Strings
		if err := steadyUpdate("update/strings-insert", func() error {
			var err error
			w, err = skipwebs.NewStrings(skipwebs.NewCluster(hosts), base[:keyN], skipwebs.Options{Seed: seed})
			return err
		}, func(i int) (int, error) {
			return w.Insert(fresh[i], skipwebs.HostID(i%hosts))
		}); err != nil {
			return err
		}
		if err := steadyUpdate("update/strings-delete", func() error {
			var err error
			w, err = skipwebs.NewStrings(skipwebs.NewCluster(hosts), base, skipwebs.Options{Seed: seed})
			return err
		}, func(i int) (int, error) {
			return w.Delete(base[delOrder[i]], skipwebs.HostID(i%hosts))
		}); err != nil {
			return err
		}
	}
	{
		// Planar is static (Section 4's amortization caveat): its only
		// "update" is a rebuild, measured per construction.
		srng := xrand.New(seed + 12)
		segs := mkSegs(srng)
		doc.Results = append(doc.Results, measure("build/planar-rebuild", nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := skipwebs.NewPlanar(skipwebs.NewCluster(hosts), segs, segBounds, skipwebs.Options{Seed: seed}); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// --- Local search: ListLevel's binary-search Locate. ---
	{
		lrng := xrand.New(seed + 5)
		lkeys := experiments.Keys(lrng, listN, 1<<40)
		lvl, err := core.NewListLevel(lkeys)
		if err != nil {
			return err
		}
		qrng := xrand.New(seed + 6)
		doc.Results = append(doc.Results, measure("local/listlevel-locate-binary", nil, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lvl.Locate(qrng.Uint64n(1 << 40))
			}
		}))
	}

	// --- Large-n rows: 262144 keys, bulk-loaded (full mode only). ---
	var bulkBuild, seqBuild time.Duration
	if !quick {
		const bigN = 262144
		bigKeys := experiments.Keys(xrand.New(seed+20), bigN, 1<<40)
		t0 := time.Now()
		cBig := skipwebs.NewCluster(hosts)
		wBig, err := skipwebs.NewBlocked(cBig, bigKeys, skipwebs.Options{Seed: seed})
		if err != nil {
			return err
		}
		bulkBuild = time.Since(t0)
		doc.Results = append(doc.Results, benchRecord{
			Name: "build/blocked-bulk-262144", NsPerOp: float64(bulkBuild.Nanoseconds()),
			OpsSec: 1 / bulkBuild.Seconds(), N: 1,
		})
		qrng := xrand.New(seed + 21)
		doc.Results = append(doc.Results, measure("query/blocked-floor-262144", &msgs, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := wBig.Floor(qrng.Uint64n(1<<40), skipwebs.HostID(i%hosts))
				if err != nil {
					b.Fatal(err)
				}
				msgs += int64(r.Hops)
			}
		}))
		next := uint64(1) << 41
		doc.Results = append(doc.Results, measure("update/blocked-insert-262144", &msgs, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				next++
				h, err := wBig.Insert(next, skipwebs.HostID(i%hosts))
				if err != nil {
					b.Fatal(err)
				}
				msgs += int64(h)
			}
		}))
		// Sequential-insertion construction, the pre-bulk-load baseline:
		// build over one key, insert the rest one at a time.
		t1 := time.Now()
		cSeq := skipwebs.NewCluster(hosts)
		m := wBig.M()
		wSeq, err := skipwebs.NewBlocked(cSeq, bigKeys[:1], skipwebs.Options{Seed: seed, M: m})
		if err != nil {
			return err
		}
		for i := 1; i < bigN; i++ {
			if _, err := wSeq.Insert(bigKeys[i], skipwebs.HostID(i%hosts)); err != nil {
				return err
			}
		}
		seqBuild = time.Since(t1)
		doc.Results = append(doc.Results, benchRecord{
			Name: "build/blocked-seqinsert-262144", NsPerOp: float64(seqBuild.Nanoseconds()),
			OpsSec: 1 / seqBuild.Seconds(), N: 1,
		})
	}

	fmt.Fprintf(out, "=== B1: hot-path micro-benchmarks (keys=%d hosts=%d list=%d, steady-state updates) ===\n", keyN, hosts, listN)
	for _, r := range doc.Results {
		fmt.Fprintf(out, "%-32s %12.1f ns/op %8.0f allocs/op %10.0f ops/sec", r.Name, r.NsPerOp, r.AllocsOp, r.OpsSec)
		if r.MsgsOp > 0 {
			fmt.Fprintf(out, " %8.2f msgs/op", r.MsgsOp)
		}
		fmt.Fprintln(out)
	}
	if seqBuild > 0 {
		fmt.Fprintf(out, "bulk construction speedup at n=262144 (seq-insert/bulk): %.1fx (%v vs %v)\n",
			float64(seqBuild)/float64(bulkBuild), seqBuild, bulkBuild)
	}

	if jsonPath != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", jsonPath)
	}
	if baselinePath != "" {
		return checkBaseline(out, doc, baselinePath)
	}
	return nil
}

// churnRow is one churn-rate measurement in the JSON document.
type churnRow struct {
	Rate           float64 `json:"rate"`
	Events         int     `json:"events"`
	Joins          int     `json:"joins"`
	Leaves         int     `json:"leaves"`
	FinalHosts     int     `json:"final_hosts"`
	QueryMsgsOp    float64 `json:"query_msgs_per_op"`
	ChurnMsgs      int64   `json:"churn_msgs_total"`
	ChurnMsgsEvent float64 `json:"churn_msgs_per_event"`
	OpsSec         float64 `json:"ops_per_sec"`
	StorageP50     int64   `json:"storage_p50"`
	StorageP99     int64   `json:"storage_p99"`
	StorageMax     int64   `json:"storage_max"`
}

// churnDoc is the top-level JSON document written by -mode churn -json.
type churnDoc struct {
	Mode  string     `json:"mode"`
	Hosts int        `json:"hosts"`
	Keys  int        `json:"keys"`
	Ops   int        `json:"ops"`
	Seed  uint64     `json:"seed"`
	Rows  []churnRow `json:"rows"`
}

// runChurn measures the cost and safety of host churn: for each rate, a
// mixed query workload over all six structures is interleaved with
// join/leave events, with full consistency checks after every event and
// a zero-lost-keys sweep at the end.
func runChurn(out io.Writer, jsonPath string, hosts, keyN, ops int, ratesStr string, seed uint64, quick bool) error {
	if hosts < 4 {
		return fmt.Errorf("-hosts must be >= 4 for churn mode, got %d", hosts)
	}
	if keyN < 64 {
		return fmt.Errorf("-keys must be >= 64 for churn mode, got %d", keyN)
	}
	if quick {
		if ops > 2000 {
			ops = 2000
		}
		if keyN > 1024 {
			keyN = 1024
		}
	}
	var rates []float64
	for _, f := range strings.Split(ratesStr, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || r < 0 || r > 0.5 {
			return fmt.Errorf("bad -churn-rates entry %q (want 0 <= rate <= 0.5)", f)
		}
		rates = append(rates, r)
	}
	doc := churnDoc{Mode: "churn", Hosts: hosts, Keys: keyN, Ops: ops, Seed: seed}
	fmt.Fprintf(out, "=== C1: host churn (hosts=%d keys=%d ops=%d, 6 structures, consistency-checked) ===\n", hosts, keyN, ops)
	fmt.Fprintf(out, "%8s %7s %6s %6s %6s %14s %16s %12s %8s %8s %8s\n",
		"rate", "events", "joins", "leaves", "hosts", "query msgs/op", "churn msgs/evt", "ops/sec", "st p50", "st p99", "st max")
	for _, rate := range rates {
		row, err := churnTrial(hosts, keyN, ops, rate, seed)
		if err != nil {
			return fmt.Errorf("churn rate %g: %w", rate, err)
		}
		doc.Rows = append(doc.Rows, row)
		fmt.Fprintf(out, "%8.4f %7d %6d %6d %6d %14.2f %16.1f %12.0f %8d %8d %8d\n",
			row.Rate, row.Events, row.Joins, row.Leaves, row.FinalHosts,
			row.QueryMsgsOp, row.ChurnMsgsEvent, row.OpsSec,
			row.StorageP50, row.StorageP99, row.StorageMax)
	}
	fmt.Fprintln(out, "zero lost keys: every key of every structure answered correctly after the storm")
	if jsonPath != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", jsonPath)
	}
	return nil
}

// churnTrial runs one churn-rate cell: build all six structures on a
// fresh cluster, interleave queries with alternating leave/join events,
// check consistency after every event, and sweep for lost keys at the
// end.
func churnTrial(hosts, keyN, ops int, rate float64, seed uint64) (churnRow, error) {
	row := churnRow{Rate: rate}
	rng := xrand.New(seed)
	keys := experiments.Keys(rng, keyN, 1<<40)
	segN := keyN / 8
	if segN > 256 {
		segN = 256
	}

	c := skipwebs.NewCluster(hosts)
	oned, err := skipwebs.NewOneDim(c, keys, skipwebs.Options{Seed: seed})
	if err != nil {
		return row, err
	}
	blocked, err := skipwebs.NewBlocked(c, keys, skipwebs.Options{Seed: seed + 1})
	if err != nil {
		return row, err
	}
	bucketed, err := skipwebs.NewBucketed(c, keys, skipwebs.Options{Seed: seed + 2})
	if err != nil {
		return row, err
	}
	raw := experiments.UniformPoints(rng, 2, keyN, 1<<30)
	pts := make([]skipwebs.Point, len(raw))
	for i, p := range raw {
		pts[i] = skipwebs.Point(p)
	}
	points, err := skipwebs.NewPoints(c, 2, pts, skipwebs.Options{Seed: seed + 3})
	if err != nil {
		return row, err
	}
	strKeys := experiments.UniformStrings(rng, keyN, "acgt", 8, 24)
	strs, err := skipwebs.NewStrings(c, strKeys, skipwebs.Options{Seed: seed + 4})
	if err != nil {
		return row, err
	}
	rawSegs := experiments.DisjointSegments(rng, segN, trapmap.Rect{MinX: -1000, MinY: -1000, MaxX: 1000, MaxY: 1000})
	segs := make([]skipwebs.PlanarSegment, len(rawSegs))
	for i, s := range rawSegs {
		segs[i] = skipwebs.PlanarSegment{
			A: skipwebs.PlanarPoint{X: s.A.X, Y: s.A.Y},
			B: skipwebs.PlanarPoint{X: s.B.X, Y: s.B.Y},
		}
	}
	planar, err := skipwebs.NewPlanar(c, segs,
		skipwebs.PlanarBounds{MinX: -1000, MinY: -1000, MaxX: 1000, MaxY: 1000},
		skipwebs.Options{Seed: seed + 5})
	if err != nil {
		return row, err
	}
	c.ResetTraffic()

	step := 0
	if rate > 0 {
		step = int(math.Round(1 / rate))
	}
	qrng := xrand.New(seed + 99)
	var queryTime time.Duration
	var verifyMsgs int64
	for i := 0; i < ops; i++ {
		if step > 0 && i > 0 && i%step == 0 {
			before := c.Stats().TotalMessages
			if row.Events%2 == 0 && c.Hosts() > 2 {
				h := c.HostAt(qrng.Intn(c.Hosts()))
				if err := c.Leave(h); err != nil {
					return row, err
				}
				row.Leaves++
			} else {
				c.Join()
				row.Joins++
			}
			row.Events++
			row.ChurnMsgs += c.Stats().TotalMessages - before
			if err := c.CheckConsistent(); err != nil {
				return row, fmt.Errorf("consistency after event %d: %w", row.Events, err)
			}
			// Spot-check traffic is verification overhead, not workload:
			// track it separately so QueryMsgsOp stays a pure per-query
			// measure at every churn rate.
			beforeVerify := c.Stats().TotalMessages
			for s := 0; s < 8; s++ {
				k := keys[qrng.Intn(len(keys))]
				found, _, err := oned.Contains(k, c.HostAt(qrng.Intn(c.Hosts())))
				if err != nil {
					return row, err
				}
				if !found {
					return row, fmt.Errorf("key %d lost after event %d", k, row.Events)
				}
			}
			verifyMsgs += c.Stats().TotalMessages - beforeVerify
		}
		origin := c.HostAt(qrng.Intn(c.Hosts()))
		start := time.Now()
		switch i % 6 {
		case 0:
			_, err = oned.Floor(qrng.Uint64n(1<<40), origin)
		case 1:
			_, err = blocked.Floor(qrng.Uint64n(1<<40), origin)
		case 2:
			_, err = bucketed.Floor(qrng.Uint64n(1<<40), origin)
		case 3:
			q := skipwebs.Point{uint32(qrng.Uint64n(1 << 30)), uint32(qrng.Uint64n(1 << 30))}
			_, err = points.Locate(q, origin)
		case 4:
			_, err = strs.Search(strKeys[qrng.Intn(len(strKeys))], origin)
		case 5:
			q := skipwebs.PlanarPoint{
				X: int64(qrng.Uint64n(1998)) - 999,
				Y: int64(qrng.Uint64n(1998)) - 999,
			}
			_, err = planar.Locate(q, origin)
		}
		queryTime += time.Since(start)
		if err != nil {
			return row, err
		}
	}

	// Capture accounting before the verification sweep so msgs/op covers
	// exactly the measured workload.
	stats := c.Stats()
	qs := c.StorageQuantiles(0.5, 0.99, 1.0)
	row.FinalHosts = c.Hosts()
	row.QueryMsgsOp = float64(stats.TotalMessages-row.ChurnMsgs-verifyMsgs) / float64(ops)
	if row.Events > 0 {
		row.ChurnMsgsEvent = float64(row.ChurnMsgs) / float64(row.Events)
	}
	if queryTime > 0 {
		row.OpsSec = float64(ops) / queryTime.Seconds()
	}
	row.StorageP50, row.StorageP99, row.StorageMax = qs[0], qs[1], qs[2]

	// Zero lost keys: every item of every structure must still be
	// reachable by a routed query, and every structure must be consistent.
	if err := c.CheckConsistent(); err != nil {
		return row, fmt.Errorf("final consistency: %w", err)
	}
	for i, k := range keys {
		if found, _, err := oned.Contains(k, c.HostAt(i)); err != nil || !found {
			return row, fmt.Errorf("onedim lost key %d: %v", k, err)
		}
		if r, err := blocked.Floor(k, c.HostAt(i)); err != nil || !r.Found || r.Key != k {
			return row, fmt.Errorf("blocked lost key %d: %v", k, err)
		}
		if r, err := bucketed.Floor(k, c.HostAt(i)); err != nil || !r.Found || r.Key != k {
			return row, fmt.Errorf("bucketed lost key %d: %v", k, err)
		}
	}
	for i, p := range pts {
		if found, _, err := points.Contains(p, c.HostAt(i)); err != nil || !found {
			return row, fmt.Errorf("points lost %v: %v", p, err)
		}
	}
	for i, s := range strKeys {
		if found, _, err := strs.Contains(s, c.HostAt(i)); err != nil || !found {
			return row, fmt.Errorf("strings lost %q: %v", s, err)
		}
	}
	return row, nil
}

// failoverRow is one replication-factor cell of the failover table.
type failoverRow struct {
	Replicas        int     `json:"replicas"`
	Crashes         int     `json:"crashes"`
	Availability    float64 `json:"availability"`
	Matched         bool    `json:"answers_match_control"`
	LostUnits       int     `json:"lost_units"`
	RepairMsgsEvent float64 `json:"repair_msgs_per_event"`
	QueryMsgsOp     float64 `json:"query_msgs_per_op"`
	UpdateMsgsOp    float64 `json:"update_msgs_per_op"`
	FinalHosts      int     `json:"final_hosts"`
}

// failoverDoc is the JSON document written by -mode=failover -json.
type failoverDoc struct {
	Mode    string        `json:"mode"`
	Hosts   int           `json:"hosts"`
	Keys    int           `json:"keys"`
	Ops     int           `json:"ops"`
	Crashes int           `json:"crashes"`
	Seed    uint64        `json:"seed"`
	Rows    []failoverRow `json:"rows"`
}

// runFailover measures crash tolerance versus the replication factor:
// for each k, a mixed query workload over all six structures is
// interleaved with unclean host crashes (Cluster.Crash: no migration,
// mailbox dropped, Repair re-replicates from survivors). It records
// availability (the fraction of queries answered rather than failing
// fast with ErrHostDown), whether every answered query matched a
// crash-free control build, repair traffic per crash, and the query and
// update msgs/op — the replication overhead. At k = 1 crashes lose
// data, so availability drops below 1; at k >= 2 with one crash at a
// time, availability stays 1.0 and answers match the control exactly.
func runFailover(out io.Writer, jsonPath string, hosts, keyN, ops int, replicasStr string, crashes int, seed uint64, quick bool) error {
	if hosts < 8 {
		return fmt.Errorf("-hosts must be >= 8 for failover mode, got %d", hosts)
	}
	if keyN < 64 {
		return fmt.Errorf("-keys must be >= 64 for failover mode, got %d", keyN)
	}
	if crashes < 1 {
		return fmt.Errorf("-crashes must be >= 1, got %d", crashes)
	}
	if quick {
		if ops > 1800 {
			ops = 1800
		}
		if keyN > 768 {
			keyN = 768
		}
	}
	if crashes > hosts/2 {
		crashes = hosts / 2
	}
	var ks []int
	for _, f := range strings.Split(replicasStr, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || k < 1 || k > hosts {
			return fmt.Errorf("bad -replicas entry %q (want 1 <= k <= hosts)", f)
		}
		ks = append(ks, k)
	}
	doc := failoverDoc{Mode: "failover", Hosts: hosts, Keys: keyN, Ops: ops, Crashes: crashes, Seed: seed}
	fmt.Fprintf(out, "=== F1: crash failover (hosts=%d keys=%d ops=%d crashes=%d, 6 structures vs crash-free control) ===\n",
		hosts, keyN, ops, crashes)
	fmt.Fprintf(out, "%4s %8s %12s %8s %10s %16s %14s %14s %7s\n",
		"k", "crashes", "availability", "matched", "lost", "repair msgs/evt", "query msgs/op", "update msgs/op", "hosts")
	for _, k := range ks {
		row, err := failoverTrial(hosts, keyN, ops, k, crashes, seed)
		if err != nil {
			return fmt.Errorf("failover k=%d: %w", k, err)
		}
		doc.Rows = append(doc.Rows, row)
		fmt.Fprintf(out, "%4d %8d %12.4f %8v %10d %16.1f %14.2f %14.2f %7d\n",
			row.Replicas, row.Crashes, row.Availability, row.Matched, row.LostUnits,
			row.RepairMsgsEvent, row.QueryMsgsOp, row.UpdateMsgsOp, row.FinalHosts)
	}
	fmt.Fprintln(out, "k>=2 rows: zero lost keys, every query answered identically to the control build")
	if jsonPath != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", jsonPath)
	}
	return nil
}

// failoverFixture is one cluster with all six structures, built
// deterministically from (hosts, keyN, k, seed) so a stormed instance
// and its crash-free control answer identically while both are intact.
type failoverFixture struct {
	c        *skipwebs.Cluster
	oned     *skipwebs.OneDim
	blocked  *skipwebs.Blocked
	bucketed *skipwebs.Bucketed
	points   *skipwebs.Points
	strs     *skipwebs.Strings
	planar   *skipwebs.Planar
	keys     []uint64
	extra    []uint64
	pts      []skipwebs.Point
	strKeys  []string
}

func buildFailoverFixture(hosts, keyN, k int, seed uint64) (*failoverFixture, error) {
	f := &failoverFixture{c: skipwebs.NewCluster(hosts)}
	rng := xrand.New(seed)
	all := experiments.Keys(rng, keyN+keyN/2, 1<<40)
	f.keys, f.extra = all[:keyN], all[keyN:]
	opts := func(d uint64) skipwebs.Options {
		return skipwebs.Options{Seed: seed + d, Replicas: k}
	}
	var err error
	if f.oned, err = skipwebs.NewOneDim(f.c, f.keys, opts(0)); err != nil {
		return nil, err
	}
	if f.blocked, err = skipwebs.NewBlocked(f.c, f.keys, opts(1)); err != nil {
		return nil, err
	}
	if f.bucketed, err = skipwebs.NewBucketed(f.c, f.keys, opts(2)); err != nil {
		return nil, err
	}
	raw := experiments.UniformPoints(rng, 2, keyN/2, 1<<30)
	f.pts = make([]skipwebs.Point, len(raw))
	for i, p := range raw {
		f.pts[i] = skipwebs.Point(p)
	}
	if f.points, err = skipwebs.NewPoints(f.c, 2, f.pts, opts(3)); err != nil {
		return nil, err
	}
	f.strKeys = experiments.UniformStrings(rng, keyN/2, "acgt", 8, 24)
	if f.strs, err = skipwebs.NewStrings(f.c, f.strKeys, opts(4)); err != nil {
		return nil, err
	}
	segN := keyN / 8
	if segN > 192 {
		segN = 192
	}
	rawSegs := experiments.DisjointSegments(rng, segN, trapmap.Rect{MinX: -1000, MinY: -1000, MaxX: 1000, MaxY: 1000})
	segs := make([]skipwebs.PlanarSegment, len(rawSegs))
	for i, s := range rawSegs {
		segs[i] = skipwebs.PlanarSegment{
			A: skipwebs.PlanarPoint{X: s.A.X, Y: s.A.Y},
			B: skipwebs.PlanarPoint{X: s.B.X, Y: s.B.Y},
		}
	}
	if f.planar, err = skipwebs.NewPlanar(f.c, segs,
		skipwebs.PlanarBounds{MinX: -1000, MinY: -1000, MaxX: 1000, MaxY: 1000}, opts(5)); err != nil {
		return nil, err
	}
	return f, nil
}

// failoverAnswer is one query's comparable outcome.
type failoverAnswer struct {
	a, b  uint64
	ok    bool
	s     string
	found bool
}

// queryOne runs the i-th workload query and returns (answer, answered,
// error): answered=false with a nil error means the query failed fast
// with the typed host-down error — the availability measure.
func (f *failoverFixture) queryOne(i int, qrng *xrand.Rand) (failoverAnswer, bool, error) {
	origin := f.c.HostAt(int(qrng.Uint64n(1 << 20)))
	var ans failoverAnswer
	var err error
	switch i % 6 {
	case 0:
		var r skipwebs.FloorResult
		r, err = f.oned.Floor(qrng.Uint64n(1<<40), origin)
		ans = failoverAnswer{a: r.Key, found: r.Found}
	case 1:
		var r skipwebs.FloorResult
		r, err = f.blocked.Floor(qrng.Uint64n(1<<40), origin)
		ans = failoverAnswer{a: r.Key, found: r.Found}
	case 2:
		var r skipwebs.FloorResult
		r, err = f.bucketed.Floor(qrng.Uint64n(1<<40), origin)
		ans = failoverAnswer{a: r.Key, found: r.Found}
	case 3:
		q := skipwebs.Point{uint32(qrng.Uint64n(1 << 30)), uint32(qrng.Uint64n(1 << 30))}
		var r skipwebs.PointLocation
		r, err = f.points.Locate(q, origin)
		ans = failoverAnswer{a: r.CellPrefix, b: uint64(r.CellBits), ok: r.Leaf}
	case 4:
		var r skipwebs.StringLocation
		r, err = f.strs.Search(f.strKeys[int(qrng.Uint64n(uint64(len(f.strKeys))))], origin)
		ans = failoverAnswer{s: r.Locus, ok: r.IsKey, found: r.Exact}
	case 5:
		q := skipwebs.PlanarPoint{
			X: int64(qrng.Uint64n(1998)) - 999,
			Y: int64(qrng.Uint64n(1998)) - 999,
		}
		var r skipwebs.Trapezoid
		r, err = f.planar.Locate(q, origin)
		ans = failoverAnswer{a: uint64(r.LeftX), b: uint64(r.RightX), ok: r.HasTop, found: r.HasBottom}
	}
	if err != nil {
		if errors.Is(err, skipwebs.ErrHostDown) {
			return ans, false, nil
		}
		return ans, false, err
	}
	return ans, true, nil
}

// failoverTrial runs one replication-factor cell: stormed and control
// fixtures answer the same workload while the stormed cluster crashes
// hosts at regular intervals.
func failoverTrial(hosts, keyN, ops, k, crashes int, seed uint64) (failoverRow, error) {
	row := failoverRow{Replicas: k}
	stormed, err := buildFailoverFixture(hosts, keyN, k, seed)
	if err != nil {
		return row, err
	}
	control, err := buildFailoverFixture(hosts, keyN, k, seed)
	if err != nil {
		return row, err
	}

	// Update overhead: write-through costs k-1 extra messages per
	// written unit. Mirror the inserts into the control so both key
	// sets stay identical for the answer comparison.
	stormed.c.ResetTraffic()
	updates := 0
	for _, key := range stormed.extra {
		if _, err := stormed.oned.Insert(key, stormed.c.HostAt(updates)); err != nil {
			return row, err
		}
		if _, err := stormed.blocked.Insert(key, stormed.c.HostAt(updates)); err != nil {
			return row, err
		}
		updates += 2
	}
	row.UpdateMsgsOp = float64(stormed.c.Stats().TotalMessages) / float64(updates)
	for _, key := range control.extra {
		if _, err := control.oned.Insert(key, control.c.HostAt(0)); err != nil {
			return row, err
		}
		if _, err := control.blocked.Insert(key, control.c.HostAt(0)); err != nil {
			return row, err
		}
	}

	stormed.c.ResetTraffic()
	step := ops / (crashes + 1)
	if step < 1 {
		step = 1
	}
	qrngS := xrand.New(seed + 99)
	qrngC := xrand.New(seed + 99)
	crng := xrand.New(seed + 7)
	var repairMsgs int64
	answered, matched := 0, true
	for i := 0; i < ops; i++ {
		if i > 0 && i%step == 0 && row.Crashes < crashes && stormed.c.Hosts() > 2 {
			victim := stormed.c.HostAt(crng.Intn(stormed.c.Hosts()))
			before := stormed.c.Stats().TotalMessages
			err := stormed.c.Crash(victim)
			var dl *skipwebs.DataLossError
			switch {
			case err == nil:
			case errors.As(err, &dl):
				// Units is a cumulative snapshot (previously lost units
				// are still lost and re-reported), so assign, not add.
				row.LostUnits = dl.Units
			default:
				return row, fmt.Errorf("crash %d: %w", victim, err)
			}
			repairMsgs += stormed.c.Stats().TotalMessages - before
			row.Crashes++
			if k > 1 && row.LostUnits == 0 {
				if err := stormed.c.CheckConsistent(); err != nil {
					return row, fmt.Errorf("consistency after crash %d: %w", row.Crashes, err)
				}
			}
		}
		got, ok, err := stormed.queryOne(i, qrngS)
		if err != nil {
			return row, err
		}
		want, wok, err := control.queryOne(i, qrngC)
		if err != nil || !wok {
			return row, fmt.Errorf("control query failed: %w", err)
		}
		if ok {
			answered++
			if got != want {
				matched = false
			}
		}
	}
	row.Availability = float64(answered) / float64(ops)
	row.Matched = matched
	if row.Crashes > 0 {
		row.RepairMsgsEvent = float64(repairMsgs) / float64(row.Crashes)
	}
	row.QueryMsgsOp = float64(stormed.c.Stats().TotalMessages-repairMsgs) / float64(ops)
	row.FinalHosts = stormed.c.Hosts()

	// Tolerance contract: with k >= 2 and one crash at a time, nothing
	// is lost, availability is total, and the answers match the control.
	if k > 1 {
		if row.LostUnits != 0 || row.Availability != 1.0 || !matched {
			return row, fmt.Errorf("k=%d trial violated the tolerance contract: lost=%d availability=%g matched=%v",
				k, row.LostUnits, row.Availability, matched)
		}
		if err := stormed.c.CheckConsistent(); err != nil {
			return row, fmt.Errorf("final consistency: %w", err)
		}
		for i, key := range stormed.keys {
			if found, _, err := stormed.oned.Contains(key, stormed.c.HostAt(i)); err != nil || !found {
				return row, fmt.Errorf("onedim lost key %d: %v", key, err)
			}
			if r, err := stormed.blocked.Floor(key, stormed.c.HostAt(i)); err != nil || !r.Found || r.Key != key {
				return row, fmt.Errorf("blocked lost key %d: %v", key, err)
			}
			if r, err := stormed.bucketed.Floor(key, stormed.c.HostAt(i)); err != nil || !r.Found || r.Key != key {
				return row, fmt.Errorf("bucketed lost key %d: %v", key, err)
			}
		}
	}
	return row, nil
}

// throughputRow is one GOMAXPROCS cell of the throughput table.
type throughputRow struct {
	Procs         int     `json:"procs"`
	ReadOpsSec    float64 `json:"read_ops_per_sec"`
	ReadSpeedup   float64 `json:"read_speedup"`
	InsertOpsSec  float64 `json:"insert_ops_per_sec"`
	InsertSpeedup float64 `json:"insert_speedup"`
	DeleteOpsSec  float64 `json:"delete_ops_per_sec"`
	DeleteSpeedup float64 `json:"delete_speedup"`
}

// throughputDoc is the JSON document written by -mode=throughput -json.
type throughputDoc struct {
	Mode     string          `json:"mode"`
	Hosts    int             `json:"hosts"`
	Keys     int             `json:"keys"`
	Queries  int             `json:"queries"`
	Stripes  int             `json:"stripes"`
	Seed     uint64          `json:"seed"`
	Go       string          `json:"go"`
	CPUs     int             `json:"cpus"`
	ParityOK bool            `json:"accounting_parity"`
	Rows     []throughputRow `json:"rows"`
}

// runThroughput measures batched throughput at each GOMAXPROCS setting
// — floor queries over an unstriped Blocked web, and InsertBatch /
// DeleteBatch over the same web built with -stripes write stripes — and
// checks message-accounting parity with the synchronous path on the
// identical workloads first. On a machine with >= 4 CPUs measuring both
// GOMAXPROCS 1 and 4, the insert path must scale >= 2x or the run
// fails; -json records the table (e.g. BENCH_WRITERS_PR8.json).
func runThroughput(out io.Writer, jsonPath string, hosts, keyN, queries int, procList string, stripes int, seed uint64) error {
	if stripes < 1 {
		return fmt.Errorf("-stripes must be positive, got %d", stripes)
	}
	if hosts < 1 {
		return fmt.Errorf("-hosts must be positive, got %d", hosts)
	}
	if keyN < 1 {
		return fmt.Errorf("-keys must be positive, got %d", keyN)
	}
	if queries < 1 {
		return fmt.Errorf("-queries must be positive, got %d", queries)
	}
	var procVals []int
	for _, f := range strings.Split(procList, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p < 1 {
			return fmt.Errorf("bad -procs entry %q", f)
		}
		procVals = append(procVals, p)
	}

	rng := xrand.New(seed)
	keys := experiments.Keys(rng, keyN, 1<<40)
	qs := make([]uint64, queries)
	origins := make([]skipwebs.HostID, queries)
	for i := range qs {
		qs[i] = rng.Uint64n(1 << 40)
		origins[i] = skipwebs.HostID(rng.Intn(hosts))
	}
	// Fresh insert keys inside the stored key range, so they spread over
	// every write stripe rather than all routing to the top one.
	seen := make(map[uint64]bool, keyN+queries)
	for _, k := range keys {
		seen[k] = true
	}
	insKeys := make([]uint64, 0, queries)
	for len(insKeys) < queries {
		k := rng.Uint64n(1 << 40)
		if !seen[k] {
			seen[k] = true
			insKeys = append(insKeys, k)
		}
	}

	build := func(writeStripes int) (*skipwebs.Cluster, *skipwebs.Blocked, error) {
		c := skipwebs.NewCluster(hosts)
		w, err := skipwebs.NewBlocked(c, keys, skipwebs.Options{Seed: seed, WriteStripes: writeStripes})
		if err != nil {
			return nil, nil, err
		}
		c.ResetTraffic()
		return c, w, nil
	}

	doc := throughputDoc{
		Mode: "throughput", Hosts: hosts, Keys: keyN, Queries: queries,
		Stripes: stripes, Seed: seed, Go: runtime.Version(), CPUs: runtime.NumCPU(),
	}

	// Parity: the same workloads, synchronous vs batched, must charge the
	// same total messages and operations. Reads run unstriped; writes run
	// with -stripes stripes, where the synchronous replay in input order
	// is the serialization the concurrent dispatch must match exactly
	// (stripe routing is a pure function of the key, and per-op hops
	// depend only on earlier ops in the same stripe).
	cSync, wSync, err := build(1)
	if err != nil {
		return err
	}
	for i := range qs {
		if _, err := wSync.Floor(qs[i], origins[i]); err != nil {
			return err
		}
	}
	cBatch, wBatch, err := build(1)
	if err != nil {
		return err
	}
	defer cBatch.Close()
	if _, err := wBatch.FloorBatch(qs, origins); err != nil {
		return err
	}
	fmt.Fprintf(out, "=== T1: batch throughput (hosts=%d keys=%d queries=%d stripes=%d, machine has %d CPUs) ===\n",
		hosts, keyN, queries, stripes, runtime.NumCPU())
	parity := func(name string, ss, bs skipwebs.Stats) error {
		ok := "OK"
		if ss.TotalMessages != bs.TotalMessages || ss.TotalOps != bs.TotalOps ||
			ss.MaxCongestion != bs.MaxCongestion {
			ok = "MISMATCH"
		}
		fmt.Fprintf(out, "%s parity: sync msgs=%d ops=%d maxC=%d | batch msgs=%d ops=%d maxC=%d  %s\n",
			name, ss.TotalMessages, ss.TotalOps, ss.MaxCongestion,
			bs.TotalMessages, bs.TotalOps, bs.MaxCongestion, ok)
		if ok != "OK" {
			return fmt.Errorf("%s batch accounting diverged from synchronous path", name)
		}
		return nil
	}
	if err := parity("read", cSync.Stats(), cBatch.Stats()); err != nil {
		return err
	}
	cSync.Close()

	cWS, wWS, err := build(stripes)
	if err != nil {
		return err
	}
	for i, k := range insKeys {
		if _, err := wWS.Insert(k, origins[i]); err != nil {
			return err
		}
	}
	for i, k := range insKeys {
		if _, err := wWS.Delete(k, origins[i]); err != nil {
			return err
		}
	}
	cWB, wWB, err := build(stripes)
	if err != nil {
		return err
	}
	if _, err := wWB.InsertBatch(insKeys, origins); err != nil {
		return err
	}
	if _, err := wWB.DeleteBatch(insKeys, origins); err != nil {
		return err
	}
	err = parity("write", cWS.Stats(), cWB.Stats())
	cWS.Close()
	cWB.Close()
	if err != nil {
		return err
	}
	doc.ParityOK = true

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	const rounds = 3
	for _, p := range procVals {
		runtime.GOMAXPROCS(p)
		row := throughputRow{Procs: p}

		c, w, err := build(1)
		if err != nil {
			return err
		}
		// Warm up the worker pool, then time enough rounds to smooth noise.
		if _, err := w.FloorBatch(qs[:min(queries, 512)], origins); err != nil {
			c.Close()
			return err
		}
		start := time.Now()
		for r := 0; r < rounds; r++ {
			if _, err := w.FloorBatch(qs, origins); err != nil {
				c.Close()
				return err
			}
		}
		c.Close()
		row.ReadOpsSec = float64(rounds*queries) / time.Since(start).Seconds()

		// Writes: insert the fresh keys, then delete them so every round
		// (and every GOMAXPROCS value) starts from the identical state.
		c, w, err = build(stripes)
		if err != nil {
			return err
		}
		if _, err := w.InsertBatch(insKeys[:min(queries, 512)], origins); err != nil {
			c.Close()
			return err
		}
		if _, err := w.DeleteBatch(insKeys[:min(queries, 512)], origins); err != nil {
			c.Close()
			return err
		}
		var insTime, delTime time.Duration
		for r := 0; r < rounds; r++ {
			start = time.Now()
			if _, err := w.InsertBatch(insKeys, origins); err != nil {
				c.Close()
				return err
			}
			insTime += time.Since(start)
			start = time.Now()
			if _, err := w.DeleteBatch(insKeys, origins); err != nil {
				c.Close()
				return err
			}
			delTime += time.Since(start)
		}
		c.Close()
		row.InsertOpsSec = float64(rounds*queries) / insTime.Seconds()
		row.DeleteOpsSec = float64(rounds*queries) / delTime.Seconds()

		if len(doc.Rows) == 0 {
			row.ReadSpeedup, row.InsertSpeedup, row.DeleteSpeedup = 1, 1, 1
		} else {
			base := doc.Rows[0]
			row.ReadSpeedup = row.ReadOpsSec / base.ReadOpsSec
			row.InsertSpeedup = row.InsertOpsSec / base.InsertOpsSec
			row.DeleteSpeedup = row.DeleteOpsSec / base.DeleteOpsSec
		}
		doc.Rows = append(doc.Rows, row)
		note := ""
		if p > runtime.NumCPU() {
			note = "  (exceeds physical CPUs; no further speedup possible)"
		}
		fmt.Fprintf(out, "GOMAXPROCS=%-3d  read %10.0f ops/sec (%.2fx)  insert %10.0f ops/sec (%.2fx)  delete %10.0f ops/sec (%.2fx)%s\n",
			p, row.ReadOpsSec, row.ReadSpeedup, row.InsertOpsSec, row.InsertSpeedup,
			row.DeleteOpsSec, row.DeleteSpeedup, note)
	}

	if jsonPath != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", jsonPath)
	}

	// Acceptance gate: on a machine that can physically show it, striped
	// inserts must gain >= 2x from 1 to 4 procs.
	if runtime.NumCPU() >= 4 {
		var at1, at4 float64
		for _, r := range doc.Rows {
			switch r.Procs {
			case 1:
				at1 = r.InsertOpsSec
			case 4:
				at4 = r.InsertOpsSec
			}
		}
		if at1 > 0 && at4 > 0 {
			if at4 < 2*at1 {
				return fmt.Errorf("striped InsertBatch at 4 procs = %.0f ops/sec, want >= 2x the %.0f at 1 proc", at4, at1)
			}
			fmt.Fprintf(out, "striped InsertBatch scaling 1->4 procs: %.2fx (>= 2x required)\n", at4/at1)
		}
	} else {
		fmt.Fprintf(out, "striped-insert scaling gate skipped: machine has %d CPUs (< 4)\n", runtime.NumCPU())
	}
	return nil
}

func runExperiments(out io.Writer, experiment string, quick bool, seed uint64) error {
	t1 := experiments.DefaultTable1Config()
	lm := experiments.DefaultLemmaConfig()
	th := experiments.DefaultTheoremConfig()
	if quick {
		t1 = experiments.QuickTable1Config()
		lm = experiments.QuickLemmaConfig()
		th = experiments.QuickTheoremConfig()
	}
	t1.Seed, lm.Seed, th.Seed = seed, seed+1, seed+2

	want := func(name string) bool { return experiment == "all" || experiment == name }
	ran := false

	if want("table1") {
		ran = true
		rep, err := experiments.Table1(t1)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== E1: Table 1 ===")
		fmt.Fprintln(out, rep)
	}
	if want("lemma1") {
		ran = true
		rep, err := experiments.Lemma1(lm)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== E2: Lemma 1 ===")
		fmt.Fprintln(out, rep)
	}
	if want("lemma3") {
		ran = true
		rep, err := experiments.Lemma3(lm)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== E3: Lemma 3 / Figure 3 ===")
		fmt.Fprintln(out, rep)
	}
	if want("lemma4") {
		ran = true
		rep, err := experiments.Lemma4(lm)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== E4: Lemma 4 ===")
		fmt.Fprintln(out, rep)
	}
	if want("lemma5") {
		ran = true
		rep, err := experiments.Lemma5(lm)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== E5: Lemma 5 / Figure 4 ===")
		fmt.Fprintln(out, rep)
	}
	if want("theorem2") {
		ran = true
		rep, err := experiments.Theorem2MultiDim(th)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== E6: Theorem 2, multi-dimensional ===")
		fmt.Fprintln(out, rep)
	}
	if want("blocking") {
		ran = true
		rep, err := experiments.Theorem2Blocking(th)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== E7: Theorem 2, 1-d blocking ===")
		fmt.Fprintln(out, rep)
		fmt.Fprintf(out, "sub-log trend (Q/log2n last/first, <1 is sub-logarithmic): %.3f\n\n",
			experiments.SubLogCheck(rep.Rows))
	}
	if want("updates") {
		ran = true
		rep, err := experiments.Updates(th)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== E8: Section 4 updates ===")
		fmt.Fprintln(out, rep)
	}
	if want("congestion") {
		ran = true
		rep, err := experiments.Congestion(th)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== E9: congestion / load balance ===")
		fmt.Fprintln(out, rep)
	}
	if want("ablation") {
		ran = true
		rep, err := experiments.AblationBlocking(th)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== A1: blocking ablation ===")
		fmt.Fprintln(out, rep)
	}
	if want("figures") {
		ran = true
		fmt.Fprintln(out, "=== F1: Figure 1 ===")
		fmt.Fprintln(out, experiments.Figure1(seed))
		f2, err := experiments.Figure2(seed, 1024)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== F2: Figure 2 ===")
		fmt.Fprintln(out, f2)
		f4, err := experiments.Figure4(seed, 14)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "=== F4: Figure 4 ===")
		fmt.Fprintln(out, f4)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}
