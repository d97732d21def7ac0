package main

// Scale and campaign modes: the latency-realistic large-cluster sweeps.
//
// Scale mode (-mode=scale) sweeps the cross product of -scale-hosts and
// -scale-keys over the key-addressed structures, building each cell on
// its own cluster under the -latency cost model and driving -queries
// routed floor queries through the batch engine. Per cell it reports
// build time, query msgs/op (which must stay logarithmic in n and flat
// in H), exact per-query modeled-latency quantiles (p50/p99/max, sorted
// from the per-result Latency values, not the log-bucketed histogram),
// wall-clock ops/sec, and how many worker goroutines actually started —
// the lazy-spawn observability counter that keeps a 10k-host cluster
// from running 10k idle goroutines. Cells whose key count exceeds a
// structure's feasibility cap are skipped and logged, never silently
// dropped.
//
// Campaign mode (-mode=campaign) stress-tests durability at scale: for
// each replication factor in -replicas it builds all six structures on
// one durable cluster under the latency model and runs three phases —
// a Zipf-skewed query storm (with adversarial absent keys), a join/
// leave churn storm with a full consistency check, and a crash
// escalation that kills ceil(frac*hosts) hosts simultaneously at each
// fraction in -crash-fracs and then calls Repair, recording the
// per-structure lost units from the DataLossError. The breaking point
// of a structure at replication k is the first fraction that loses any
// of its units. Each crash fraction runs against a fresh build so the
// escalation measures intact structures, not previously damaged ones.
//
// Both modes honor -max-wall: once the budget is spent, no new cell
// starts (cells in flight finish), and the truncation is reported.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	skipwebs "github.com/skipwebs/skipwebs"
	"github.com/skipwebs/skipwebs/internal/experiments"
	"github.com/skipwebs/skipwebs/internal/trapmap"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// Feasibility caps: the largest key count each structure builds at in a
// scale sweep. OneDim stores every key at O(log n) levels, so its
// memory is n log n units; Blocked divides the node count by the block
// size M but keeps every key resident; Bucketed keeps one routing entry
// per bucket (~per host) and packs keys into sorted arrays, so it is
// the structure that reaches 10M keys.
const (
	scaleCapOneDim   = 1 << 20
	scaleCapBlocked  = 1 << 21
	scaleCapBucketed = 1 << 24
)

// parseLatencyModel parses a -latency spec into a cluster cost model.
// Specs: none, fixed:C, uniform:LO:HI, lognormal:MU:SIGMA,
// twolevel[:RACK]. The twolevel default is racks of 64 hosts with a
// uniform 1..5 intra-rack link and a log-normal (median 100, sigma
// 0.25) cross-rack link — a two-order-of-magnitude rack/region split.
// All stochastic models derive their per-link draws from seed, so a
// spec plus a seed names one reproducible topology.
func parseLatencyModel(spec string, seed uint64) (skipwebs.CostModel, error) {
	parts := strings.Split(spec, ":")
	bad := func(why string) error {
		return fmt.Errorf("bad -latency spec %q: %s (want none, fixed:C, uniform:LO:HI, lognormal:MU:SIGMA, or twolevel[:RACK])", spec, why)
	}
	switch parts[0] {
	case "none":
		if len(parts) != 1 {
			return nil, bad("none takes no arguments")
		}
		return nil, nil
	case "fixed":
		if len(parts) != 2 {
			return nil, bad("fixed takes one argument")
		}
		c, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil || c < 0 {
			return nil, bad("C must be a non-negative integer")
		}
		return skipwebs.FixedLatency(c), nil
	case "uniform":
		if len(parts) != 3 {
			return nil, bad("uniform takes two arguments")
		}
		lo, err1 := strconv.ParseInt(parts[1], 10, 64)
		hi, err2 := strconv.ParseInt(parts[2], 10, 64)
		if err1 != nil || err2 != nil || lo < 0 || hi < lo {
			return nil, bad("want integers 0 <= LO <= HI")
		}
		return skipwebs.UniformLatency(seed, lo, hi), nil
	case "lognormal":
		if len(parts) != 3 {
			return nil, bad("lognormal takes two arguments")
		}
		mu, err1 := strconv.ParseFloat(parts[1], 64)
		sigma, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil || sigma < 0 {
			return nil, bad("want floats MU and SIGMA >= 0")
		}
		return skipwebs.LogNormalLatency(seed, mu, sigma), nil
	case "twolevel":
		rack := 64
		if len(parts) == 2 {
			r, err := strconv.Atoi(parts[1])
			if err != nil || r < 1 {
				return nil, bad("RACK must be a positive integer")
			}
			rack = r
		} else if len(parts) > 2 {
			return nil, bad("twolevel takes at most one argument")
		}
		return skipwebs.TwoLevelLatency(rack,
			skipwebs.UniformLatency(seed, 1, 5),
			skipwebs.LogNormalLatency(seed+1, math.Log(100), 0.25)), nil
	default:
		return nil, bad("unknown model")
	}
}

// firstSkewS parses the campaign Zipf exponent from the -skew-s list:
// campaign runs one exponent where the skew mode sweeps them all.
func firstSkewS(s string) (float64, error) {
	first := strings.TrimSpace(strings.Split(s, ",")[0])
	v, err := strconv.ParseFloat(first, 64)
	if err != nil {
		return 0, fmt.Errorf("bad -skew-s entry %q (want a float)", first)
	}
	return v, nil
}

// modelName names a parsed model for reports; nil models are "none".
func modelName(m skipwebs.CostModel) string {
	if m == nil {
		return "none"
	}
	return m.Name()
}

// scaleKeys generates n distinct keys in [0, 1<<40) in O(1) extra
// memory: key i is a uniform draw from its own bucket of a partition of
// the key space into n equal strides, so keys are distinct by
// construction (no dedup map — at 10M keys the map the sim-scale
// generator uses costs more memory than the keys). The output is
// ascending, which matches the sorted bulk-construction path.
func scaleKeys(rng *xrand.Rand, n int) []uint64 {
	stride := (uint64(1) << 40) / uint64(n)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)*stride + rng.Uint64n(stride)
	}
	return keys
}

// parseIntList parses a comma-separated integer flag with a minimum.
func parseIntList(flagName, s string, min int) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < min {
			return nil, fmt.Errorf("bad %s entry %q (want an integer >= %d)", flagName, f, min)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s must name at least one value", flagName)
	}
	return out, nil
}

// scaleRow is one (structure, hosts, keys) cell of the scale sweep.
type scaleRow struct {
	Structure   string  `json:"structure"`
	Hosts       int     `json:"hosts"`
	Keys        int     `json:"keys"`
	BuildSec    float64 `json:"build_seconds"`
	QueryMsgsOp float64 `json:"query_msgs_per_op"`
	LatencyP50  int64   `json:"latency_p50"`
	LatencyP99  int64   `json:"latency_p99"`
	LatencyMax  int64   `json:"latency_max"`
	LatencyMean float64 `json:"latency_mean"`
	OpsSec      float64 `json:"ops_per_sec"`
	Workers     int     `json:"workers_started"`
}

// scaleDoc is the JSON document written by -mode=scale -json.
type scaleDoc struct {
	Mode    string     `json:"mode"`
	Model   string     `json:"latency_model"`
	Queries int        `json:"queries"`
	Seed    uint64     `json:"seed"`
	Rows    []scaleRow `json:"rows"`
	Skipped []string   `json:"skipped,omitempty"`
}

// latSummary computes exact latency quantiles from per-query results.
func latSummary(lats []int64) (p50, p99, max int64, mean float64) {
	if len(lats) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum int64
	for _, v := range lats {
		sum += v
	}
	at := func(q float64) int64 {
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	return at(0.50), at(0.99), lats[len(lats)-1], float64(sum) / float64(len(lats))
}

// runScale sweeps hosts x keys x structure cells under the latency
// model and reports the scaling curves (see the package comment).
func runScale(out io.Writer, jsonPath, hostsStr, keysStr string, queries int, latSpec string, maxWall time.Duration, seed uint64, quick bool) error {
	if queries < 1 {
		return fmt.Errorf("-queries must be at least 1, got %d", queries)
	}
	if maxWall < 0 {
		return fmt.Errorf("-max-wall must be non-negative, got %v", maxWall)
	}
	hostsList, err := parseIntList("-scale-hosts", hostsStr, 2)
	if err != nil {
		return err
	}
	keysList, err := parseIntList("-scale-keys", keysStr, 64)
	if err != nil {
		return err
	}
	model, err := parseLatencyModel(latSpec, seed)
	if err != nil {
		return err
	}
	doc := scaleDoc{Mode: "scale", Model: modelName(model), Queries: queries, Seed: seed}
	skip := func(format string, a ...any) {
		msg := fmt.Sprintf(format, a...)
		doc.Skipped = append(doc.Skipped, msg)
		fmt.Fprintln(out, "skip:", msg)
	}
	if quick {
		var hs, ks []int
		for _, h := range hostsList {
			if h <= 1024 {
				hs = append(hs, h)
			} else {
				skip("hosts=%d: over the -quick host cap (1024)", h)
			}
		}
		for _, k := range keysList {
			if k <= 262144 {
				ks = append(ks, k)
			} else {
				skip("keys=%d: over the -quick key cap (262144)", k)
			}
		}
		hostsList, keysList = hs, ks
	}

	type structSpec struct {
		name  string
		cap   int
		build func(c *skipwebs.Cluster, keys []uint64) (func([]uint64, []skipwebs.HostID) ([]skipwebs.FloorResult, error), error)
	}
	structSpecs := []structSpec{
		{"onedim", scaleCapOneDim, func(c *skipwebs.Cluster, keys []uint64) (func([]uint64, []skipwebs.HostID) ([]skipwebs.FloorResult, error), error) {
			w, err := skipwebs.NewOneDim(c, keys, skipwebs.Options{Seed: seed})
			if err != nil {
				return nil, err
			}
			return w.FloorBatch, nil
		}},
		{"blocked", scaleCapBlocked, func(c *skipwebs.Cluster, keys []uint64) (func([]uint64, []skipwebs.HostID) ([]skipwebs.FloorResult, error), error) {
			w, err := skipwebs.NewBlocked(c, keys, skipwebs.Options{Seed: seed})
			if err != nil {
				return nil, err
			}
			return w.FloorBatch, nil
		}},
		{"bucketed", scaleCapBucketed, func(c *skipwebs.Cluster, keys []uint64) (func([]uint64, []skipwebs.HostID) ([]skipwebs.FloorResult, error), error) {
			w, err := skipwebs.NewBucketed(c, keys, skipwebs.Options{Seed: seed})
			if err != nil {
				return nil, err
			}
			return w.FloorBatch, nil
		}},
	}

	fmt.Fprintf(out, "=== S1: scale sweep (model=%s queries=%d per cell) ===\n", doc.Model, queries)
	fmt.Fprintf(out, "%-9s %7s %9s %9s %9s %8s %8s %8s %10s %8s\n",
		"struct", "hosts", "keys", "build s", "msgs/op", "lat p50", "lat p99", "lat max", "ops/sec", "workers")
	start := time.Now()
	truncated := false
	for _, h := range hostsList {
		for _, n := range keysList {
			if n < h {
				skip("hosts=%d keys=%d: fewer keys than hosts", h, n)
				continue
			}
			keys := scaleKeys(xrand.New(seed), n)
			qrng := xrand.New(seed + 1)
			qs := make([]uint64, queries)
			for i := range qs {
				qs[i] = qrng.Uint64n(1 << 40)
			}
			for _, st := range structSpecs {
				if n > st.cap {
					skip("%s hosts=%d keys=%d: over the structure's feasibility cap (%d)", st.name, h, n, st.cap)
					continue
				}
				if maxWall > 0 && time.Since(start) > maxWall {
					skip("%s hosts=%d keys=%d: -max-wall %v exhausted", st.name, h, n, maxWall)
					truncated = true
					continue
				}
				row, err := scaleCell(st.name, h, n, keys, qs, model, st.build)
				if err != nil {
					return fmt.Errorf("scale %s hosts=%d keys=%d: %w", st.name, h, n, err)
				}
				doc.Rows = append(doc.Rows, row)
				fmt.Fprintf(out, "%-9s %7d %9d %9.2f %9.2f %8d %8d %8d %10.0f %8d\n",
					row.Structure, row.Hosts, row.Keys, row.BuildSec, row.QueryMsgsOp,
					row.LatencyP50, row.LatencyP99, row.LatencyMax, row.OpsSec, row.Workers)
			}
		}
	}
	if truncated {
		fmt.Fprintf(out, "sweep truncated by -max-wall after %v\n", time.Since(start).Round(time.Second))
	}
	if len(doc.Rows) == 0 {
		return fmt.Errorf("no scale cells ran (all %d skipped)", len(doc.Skipped))
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
	return nil
}

// scaleCell builds one structure on a fresh cluster under the model and
// measures the batched query phase.
func scaleCell(name string, hosts, n int, keys, qs []uint64, model skipwebs.CostModel,
	build func(*skipwebs.Cluster, []uint64) (func([]uint64, []skipwebs.HostID) ([]skipwebs.FloorResult, error), error)) (scaleRow, error) {
	row := scaleRow{Structure: name, Hosts: hosts, Keys: n}
	var copts []skipwebs.ClusterOption
	if model != nil {
		copts = append(copts, skipwebs.WithLatency(model))
	}
	c := skipwebs.NewCluster(hosts, copts...)
	defer c.Close()
	t0 := time.Now()
	floorBatch, err := build(c, keys)
	if err != nil {
		return row, err
	}
	row.BuildSec = time.Since(t0).Seconds()
	c.ResetTraffic()

	t1 := time.Now()
	res, err := floorBatch(qs, nil)
	if err != nil {
		return row, err
	}
	wall := time.Since(t1)
	lats := make([]int64, len(res))
	for i, r := range res {
		lats[i] = r.Latency
	}
	row.LatencyP50, row.LatencyP99, row.LatencyMax, row.LatencyMean = latSummary(lats)
	row.QueryMsgsOp = float64(c.Stats().TotalMessages) / float64(len(qs))
	if wall > 0 {
		row.OpsSec = float64(len(qs)) / wall.Seconds()
	}
	row.Workers = c.WorkersStarted()
	return row, nil
}

// crashCell is one crash-escalation step of a campaign row: frac of the
// hosts killed simultaneously on a fresh build, then Repair.
type crashCell struct {
	Frac       float64        `json:"frac"`
	Crashed    int            `json:"crashed"`
	LostUnits  int            `json:"lost_units"`
	LostBy     map[string]int `json:"lost_by,omitempty"`
	RepairMsgs int64          `json:"repair_msgs"`
}

// campaignRow is one replication-factor cell of the campaign table.
type campaignRow struct {
	Replicas       int                `json:"replicas"`
	SkewMsgsOp     float64            `json:"skew_query_msgs_per_op"`
	SkewLatencyP50 int64              `json:"skew_latency_p50"`
	SkewLatencyP99 int64              `json:"skew_latency_p99"`
	ChurnEvents    int                `json:"churn_events"`
	ChurnMsgsEvent float64            `json:"churn_msgs_per_event"`
	Crashes        []crashCell        `json:"crashes"`
	BreakFrac      map[string]float64 `json:"break_frac,omitempty"`
}

// campaignDoc is the JSON document written by -mode=campaign -json.
type campaignDoc struct {
	Mode       string        `json:"mode"`
	Model      string        `json:"latency_model"`
	Hosts      int           `json:"hosts"`
	Keys       int           `json:"keys"`
	Ops        int           `json:"ops"`
	SkewS      float64       `json:"skew_s"`
	SkewAbsent float64       `json:"skew_absent"`
	Seed       uint64        `json:"seed"`
	Rows       []campaignRow `json:"rows"`
	Truncated  bool          `json:"truncated,omitempty"`
}

// campaignFixture is one durable cluster carrying all six structures,
// the same shape the failover fixture uses but built with Durable and
// the latency model so crash escalation exercises the WAL'd hosts.
type campaignFixture struct {
	c        *skipwebs.Cluster
	oned     *skipwebs.OneDim
	blocked  *skipwebs.Blocked
	bucketed *skipwebs.Bucketed
	points   *skipwebs.Points
	strs     *skipwebs.Strings
	planar   *skipwebs.Planar
	keys     []uint64
	pts      []skipwebs.Point
	strKeys  []string
}

func buildCampaignFixture(hosts, keyN, k int, model skipwebs.CostModel, seed uint64) (*campaignFixture, error) {
	f := &campaignFixture{c: skipwebs.NewCluster(hosts, skipwebs.WithLatency(model))}
	rng := xrand.New(seed)
	f.keys = scaleKeys(rng, keyN)
	opts := func(d uint64) skipwebs.Options {
		return skipwebs.Options{Seed: seed + d, Replicas: k, Durable: true}
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
	raw := experiments.UniformPoints(rng, 2, keyN/4, 1<<30)
	f.pts = make([]skipwebs.Point, len(raw))
	for i, p := range raw {
		f.pts[i] = skipwebs.Point(p)
	}
	if f.points, err = skipwebs.NewPoints(f.c, 2, f.pts, opts(3)); err != nil {
		return nil, err
	}
	f.strKeys = experiments.UniformStrings(rng, keyN/4, "acgt", 8, 24)
	if f.strs, err = skipwebs.NewStrings(f.c, f.strKeys, opts(4)); err != nil {
		return nil, err
	}
	segN := keyN / 8
	if segN > 256 {
		segN = 256
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
	f.c.ResetTraffic()
	return f, nil
}

// skewQuery runs the i-th skewed workload query: Zipf-weighted present
// keys, a skewAbsent fraction of adversarial absent probes, spread over
// all six structures. It returns the query's modeled latency.
func (f *campaignFixture) skewQuery(i int, zipf *xrand.Zipf, qrng *xrand.Rand, absent float64) (int64, error) {
	origin := f.c.HostAt(int(qrng.Uint64n(1 << 20)))
	key := func() uint64 {
		if qrng.Float64() < absent {
			return qrng.Uint64n(1 << 40)
		}
		return f.keys[zipf.Next()]
	}
	switch i % 6 {
	case 0:
		r, err := f.oned.Floor(key(), origin)
		return r.Latency, err
	case 1:
		r, err := f.blocked.Floor(key(), origin)
		return r.Latency, err
	case 2:
		r, err := f.bucketed.Floor(key(), origin)
		return r.Latency, err
	case 3:
		p := f.pts[zipf.Next()%len(f.pts)]
		loc, err := f.points.Locate(p, origin)
		return loc.Latency, err
	case 4:
		s := f.strKeys[zipf.Next()%len(f.strKeys)]
		loc, err := f.strs.Search(s, origin)
		return loc.Latency, err
	default:
		q := skipwebs.PlanarPoint{
			X: int64(qrng.Uint64n(1998)) - 999,
			Y: int64(qrng.Uint64n(1998)) - 999,
		}
		t, err := f.planar.Locate(q, origin)
		return t.Latency, err
	}
}

// runCampaign runs the durability campaign (see the package comment):
// per replication factor, a skewed query storm, a churn storm, and a
// crash escalation with per-structure breaking points.
func runCampaign(out io.Writer, jsonPath string, hosts, keyN, ops int, replicasStr, crashFracsStr, latSpec string, skewS float64, skewAbsent float64, maxWall time.Duration, seed uint64, quick bool) error {
	if hosts < 8 {
		return fmt.Errorf("-hosts must be >= 8 for campaign mode, got %d", hosts)
	}
	if keyN < 512 {
		return fmt.Errorf("-keys must be >= 512 for campaign mode, got %d", keyN)
	}
	if ops < 6 {
		return fmt.Errorf("-queries must be >= 6 for campaign mode, got %d", ops)
	}
	if maxWall < 0 {
		return fmt.Errorf("-max-wall must be non-negative, got %v", maxWall)
	}
	if skewS < 0 {
		return fmt.Errorf("campaign uses the first -skew-s entry as the Zipf exponent; want s >= 0, got %g", skewS)
	}
	if skewAbsent < 0 || skewAbsent > 1 {
		return fmt.Errorf("-skew-absent must be in [0, 1], got %g", skewAbsent)
	}
	var ks []int
	for _, f := range strings.Split(replicasStr, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || k < 1 || k > hosts {
			return fmt.Errorf("bad -replicas entry %q (want 1 <= k <= hosts)", f)
		}
		ks = append(ks, k)
	}
	var fracs []float64
	for _, f := range strings.Split(crashFracsStr, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 || v > 0.9 {
			return fmt.Errorf("bad -crash-fracs entry %q (want 0 < frac <= 0.9)", f)
		}
		fracs = append(fracs, v)
	}
	sort.Float64s(fracs)
	model, err := parseLatencyModel(latSpec, seed)
	if err != nil {
		return err
	}
	if quick {
		if ops > 2000 {
			ops = 2000
		}
		if keyN > 65536 {
			keyN = 65536
		}
		if len(fracs) > 2 {
			fracs = fracs[:2]
		}
	}

	doc := campaignDoc{
		Mode: "campaign", Model: modelName(model), Hosts: hosts, Keys: keyN,
		Ops: ops, SkewS: skewS, SkewAbsent: skewAbsent, Seed: seed,
	}
	fmt.Fprintf(out, "=== K1: durability campaign (hosts=%d keys=%d ops=%d model=%s zipf s=%g absent=%g) ===\n",
		hosts, keyN, ops, doc.Model, skewS, skewAbsent)
	start := time.Now()
	overBudget := func() bool { return maxWall > 0 && time.Since(start) > maxWall }
	for _, k := range ks {
		if overBudget() {
			fmt.Fprintf(out, "k=%d: skipped, -max-wall %v exhausted\n", k, maxWall)
			doc.Truncated = true
			continue
		}
		row := campaignRow{Replicas: k, BreakFrac: map[string]float64{}}

		// Phase 1+2: skewed queries then churn, on one durable fixture.
		f, err := buildCampaignFixture(hosts, keyN, k, model, seed)
		if err != nil {
			return fmt.Errorf("campaign k=%d build: %w", k, err)
		}
		zipf := xrand.NewZipf(xrand.New(seed+13), skewS, keyN)
		qrng := xrand.New(seed + 99)
		lats := make([]int64, 0, ops)
		for i := 0; i < ops; i++ {
			lat, err := f.skewQuery(i, zipf, qrng, skewAbsent)
			if err != nil {
				return fmt.Errorf("campaign k=%d skew query %d: %w", k, i, err)
			}
			lats = append(lats, lat)
		}
		skewMsgs := f.c.Stats().TotalMessages
		row.SkewMsgsOp = float64(skewMsgs) / float64(ops)
		row.SkewLatencyP50, row.SkewLatencyP99, _, _ = latSummary(lats)

		churnEvents := 8
		if quick {
			churnEvents = 4
		}
		for e := 0; e < churnEvents; e++ {
			if e%2 == 0 && f.c.Hosts() > 2 {
				h := f.c.HostAt(int(qrng.Uint64n(1 << 20)))
				if err := f.c.Leave(h); err != nil {
					return fmt.Errorf("campaign k=%d leave: %w", k, err)
				}
			} else {
				f.c.Join()
			}
			row.ChurnEvents++
		}
		row.ChurnMsgsEvent = float64(f.c.Stats().TotalMessages-skewMsgs) / float64(row.ChurnEvents)
		if err := f.c.CheckConsistent(); err != nil {
			return fmt.Errorf("campaign k=%d consistency after churn: %w", k, err)
		}
		f.c.Close()

		// Phase 3: crash escalation, each fraction on a fresh build so
		// loss is measured against intact structures.
		for _, frac := range fracs {
			if overBudget() {
				fmt.Fprintf(out, "k=%d frac=%g: skipped, -max-wall %v exhausted\n", k, frac, maxWall)
				doc.Truncated = true
				continue
			}
			cell, err := campaignCrashCell(hosts, keyN, k, frac, model, seed)
			if err != nil {
				return fmt.Errorf("campaign k=%d frac=%g: %w", k, frac, err)
			}
			row.Crashes = append(row.Crashes, cell)
			for s := range cell.LostBy {
				if _, seen := row.BreakFrac[s]; !seen {
					row.BreakFrac[s] = frac
				}
			}
		}

		doc.Rows = append(doc.Rows, row)
		fmt.Fprintf(out, "k=%d: skew %.2f msgs/op lat p50/p99 %d/%d; churn %d events %.1f msgs/evt\n",
			k, row.SkewMsgsOp, row.SkewLatencyP50, row.SkewLatencyP99, row.ChurnEvents, row.ChurnMsgsEvent)
		for _, cell := range row.Crashes {
			fmt.Fprintf(out, "  crash frac=%.3f (%d hosts): lost %d units", cell.Frac, cell.Crashed, cell.LostUnits)
			if len(cell.LostBy) > 0 {
				names := make([]string, 0, len(cell.LostBy))
				for s := range cell.LostBy {
					names = append(names, s)
				}
				sort.Strings(names)
				for _, s := range names {
					fmt.Fprintf(out, " %s=%d", s, cell.LostBy[s])
				}
			}
			fmt.Fprintf(out, "; repair %d msgs\n", cell.RepairMsgs)
		}
		if len(row.BreakFrac) == 0 {
			fmt.Fprintf(out, "  no structure lost data at k=%d up to frac=%g\n", k, fracs[len(fracs)-1])
		} else {
			names := make([]string, 0, len(row.BreakFrac))
			for s := range row.BreakFrac {
				names = append(names, s)
			}
			sort.Strings(names)
			for _, s := range names {
				fmt.Fprintf(out, "  breaking point %s: frac=%g\n", s, row.BreakFrac[s])
			}
		}
	}
	if len(doc.Rows) == 0 {
		return fmt.Errorf("no campaign cells ran within -max-wall %v", maxWall)
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
	return nil
}

// campaignCrashCell builds a fresh durable fixture, crashes
// ceil(frac*hosts) distinct hosts simultaneously (the durable cluster
// holds repair, expecting them back), then gives up on all of them at
// once via Repair and records the per-structure data loss.
func campaignCrashCell(hosts, keyN, k int, frac float64, model skipwebs.CostModel, seed uint64) (crashCell, error) {
	cell := crashCell{Frac: frac}
	f, err := buildCampaignFixture(hosts, keyN, k, model, seed)
	if err != nil {
		return cell, err
	}
	defer f.c.Close()
	m := int(math.Ceil(frac * float64(hosts)))
	if m < 1 {
		m = 1
	}
	if m > f.c.Hosts()-2 {
		m = f.c.Hosts() - 2
	}
	crng := xrand.New(seed + 7 + uint64(math.Round(frac*1000)))
	picked := make(map[skipwebs.HostID]bool, m)
	for len(picked) < m {
		h := f.c.HostAt(int(crng.Uint64n(1 << 20)))
		if picked[h] {
			continue
		}
		picked[h] = true
		if err := f.c.Crash(h); err != nil {
			return cell, fmt.Errorf("crash host %d: %w", h, err)
		}
	}
	cell.Crashed = m
	before := f.c.Stats().TotalMessages
	repairErr := f.c.Repair()
	cell.RepairMsgs = f.c.Stats().TotalMessages - before
	if repairErr != nil {
		var dl *skipwebs.DataLossError
		if !errors.As(repairErr, &dl) {
			return cell, repairErr
		}
		cell.LostUnits = dl.Units
		if len(dl.Structures) > 0 {
			cell.LostBy = make(map[string]int, len(dl.Structures))
			for s, u := range dl.Structures {
				cell.LostBy[s] = u
			}
		}
	}
	return cell, nil
}
