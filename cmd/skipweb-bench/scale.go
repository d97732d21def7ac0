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
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	skipwebs "github.com/skipwebs/skipwebs"
	"github.com/skipwebs/skipwebs/internal/xrand"
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

// modelName names a parsed model for reports; nil models are "none".
func modelName(m skipwebs.CostModel) string {
	if m == nil {
		return "none"
	}
	return m.Name()
}

// latencyCluster parses the -latency and -max-wall flags the two modes
// share and returns the model and a constructor of clusters under it.
func latencyCluster(cfg *config) (skipwebs.CostModel, func(hosts int) *skipwebs.Cluster, error) {
	if cfg.maxWall < 0 {
		return nil, nil, fmt.Errorf("-max-wall must be non-negative, got %v", cfg.maxWall)
	}
	model, err := parseLatencyModel(cfg.latency, cfg.seed)
	return model, func(hosts int) *skipwebs.Cluster {
		return skipwebs.NewCluster(hosts, skipwebs.WithLatency(model))
	}, err
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

// scaleDoc is the JSON document written by -mode scale -json
// (BENCH_SCALE_PR10.json).
type scaleDoc struct {
	Mode    string     `json:"mode"`
	Model   string     `json:"latency_model"`
	Queries int        `json:"queries"`
	Seed    uint64     `json:"seed"`
	Rows    []scaleRow `json:"rows"`
	Skipped []string   `json:"skipped,omitempty"`
}

// quantile returns the q-quantile of a non-empty ascending slice.
func quantile[T any](sorted []T, q float64) T {
	return sorted[int(q*float64(len(sorted)-1))]
}

// latSummary computes exact latency quantiles from per-query results,
// sorting them in place.
func latSummary(lats []int64) (p50, p99, max int64, mean float64) {
	if len(lats) == 0 {
		return 0, 0, 0, 0
	}
	slices.Sort(lats)
	var sum int64
	for _, v := range lats {
		sum += v
	}
	return quantile(lats, 0.50), quantile(lats, 0.99), lats[len(lats)-1], float64(sum) / float64(len(lats))
}

// runScale sweeps hosts x keys x structure cells under the latency
// model and reports the scaling curves (see the comment above).
func runScale(out io.Writer, cfg *config) error {
	atLeast := func(min int) func(int) bool { return func(v int) bool { return v >= min } }
	hostsList, err := parseList("-scale-hosts", cfg.scaleHosts, "an integer >= 2", strconv.Atoi, atLeast(2))
	if err != nil {
		return err
	}
	keysList, err := parseList("-scale-keys", cfg.scaleKeys, "an integer >= 64", strconv.Atoi, atLeast(64))
	if err != nil {
		return err
	}
	model, newCluster, err := latencyCluster(cfg)
	if err != nil {
		return err
	}
	doc := scaleDoc{Mode: "scale", Model: modelName(model), Queries: cfg.queries, Seed: cfg.seed}
	skip := func(format string, a ...any) {
		msg := fmt.Sprintf(format, a...)
		doc.Skipped = append(doc.Skipped, msg)
		fmt.Fprintln(out, "skip:", msg)
	}
	if cfg.quick {
		// under keeps the entries of list no larger than limit.
		under := func(list []int, what string, limit int) (kept []int) {
			for _, v := range list {
				if v <= limit {
					kept = append(kept, v)
				} else {
					skip("%s=%d: over the -quick %s cap (%d)", what, v, strings.TrimSuffix(what, "s"), limit)
				}
			}
			return kept
		}
		hostsList, keysList = under(hostsList, "hosts", 1024), under(keysList, "keys", 262144)
	}

	fmt.Fprintf(out, "=== S1: scale sweep (model=%s queries=%d per cell) ===\n", doc.Model, cfg.queries)
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
			keys := scaleKeys(xrand.New(cfg.seed), n)
			qrng := xrand.New(cfg.seed + 1)
			qs := make([]uint64, cfg.queries)
			for i := range qs {
				qs[i] = qrng.Uint64n(1 << 40)
			}
			for s, st := range sortedSets {
				if n > st.cap {
					skip("%s hosts=%d keys=%d: over the structure's feasibility cap (%d)", st.name, h, n, st.cap)
					continue
				}
				if cfg.maxWall > 0 && time.Since(start) > cfg.maxWall {
					skip("%s hosts=%d keys=%d: -max-wall %v exhausted", st.name, h, n, cfg.maxWall)
					truncated = true
					continue
				}
				row, err := scaleCell(s, newCluster(h), keys, qs, cfg.seed)
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
	return writeJSON(out, cfg.json, doc)
}

// scaleCell builds sorted set s on the fresh cluster c and measures the
// batched query phase.
func scaleCell(s int, c *skipwebs.Cluster, keys, qs []uint64, seed uint64) (scaleRow, error) {
	row := scaleRow{Structure: sortedSets[s].name, Hosts: c.Hosts(), Keys: len(keys)}
	defer c.Close()
	t0 := time.Now()
	w, err := sortedSets[s].build(c, keys, skipwebs.Options{Seed: seed})
	if err != nil {
		return row, err
	}
	row.BuildSec = time.Since(t0).Seconds()
	c.ResetTraffic()

	t1 := time.Now()
	res, err := w.FloorBatch(qs, nil)
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

// campaignSix builds all six structures, durable and k-replicated, on a
// fresh cluster under the latency model, so crash escalation exercises
// the WAL'd hosts.
func campaignSix(c *skipwebs.Cluster, ds *dataset, k int, seed uint64) (*six, error) {
	f, err := buildSix(c, ds, seeded(skipwebs.Options{Seed: seed, Replicas: k, Durable: true}))
	if err == nil {
		c.ResetTraffic()
	}
	return f, err
}

// sortedNames returns m's keys in order, for stable reports.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for s := range m {
		names = append(names, s)
	}
	sort.Strings(names)
	return names
}

// runCampaign runs the durability campaign (see the comment above):
// per replication factor, a skewed query storm, a churn storm, and a
// crash escalation with per-structure breaking points.
func runCampaign(out io.Writer, cfg *config) error {
	hosts, keyN, ops, seed := cfg.hosts, cfg.keys, cfg.queries, cfg.seed
	// Campaign runs one Zipf exponent — the first — where skew mode sweeps.
	svals, err := parseList("-skew-s", cfg.skewS, "s >= 0", parseFloat, func(s float64) bool { return s >= 0 })
	if err != nil {
		return err
	}
	skewS := svals[0]
	if cfg.skewAbsent < 0 || cfg.skewAbsent > 1 {
		return fmt.Errorf("-skew-absent must be in [0, 1], got %g", cfg.skewAbsent)
	}
	ks, err := parseReplicas(cfg, 1)
	if err != nil {
		return err
	}
	fracs, err := parseList("-crash-fracs", cfg.crashFracs, "0 < frac <= 0.9", parseFloat,
		func(v float64) bool { return v > 0 && v <= 0.9 })
	if err != nil {
		return err
	}
	sort.Float64s(fracs)
	model, newCluster, err := latencyCluster(cfg)
	if err != nil {
		return err
	}
	churnEvents := 8
	if cfg.quick {
		ops, keyN, churnEvents = min(ops, 2000), min(keyN, 65536), 4
		fracs = fracs[:min(len(fracs), 2)]
	}

	ds := newDataset(seed, sizes{keys: keyN, strided: true, items: keyN / 4, strMin: 8, segCap: 256, span: stormSpan})
	doc := campaignDoc{
		Mode: "campaign", Model: modelName(model), Hosts: hosts, Keys: keyN,
		Ops: ops, SkewS: skewS, SkewAbsent: cfg.skewAbsent, Seed: seed,
	}
	fmt.Fprintf(out, "=== K1: durability campaign (hosts=%d keys=%d ops=%d model=%s zipf s=%g absent=%g) ===\n",
		hosts, keyN, ops, doc.Model, skewS, cfg.skewAbsent)
	start := time.Now()
	overBudget := func() bool { return cfg.maxWall > 0 && time.Since(start) > cfg.maxWall }
	for _, k := range ks {
		if overBudget() {
			fmt.Fprintf(out, "k=%d: skipped, -max-wall %v exhausted\n", k, cfg.maxWall)
			doc.Truncated = true
			continue
		}
		row := campaignRow{Replicas: k, BreakFrac: map[string]float64{}}

		// Phase 1+2: skewed queries then churn, on one durable fixture.
		f, err := campaignSix(newCluster(hosts), ds, k, seed)
		if err != nil {
			return fmt.Errorf("campaign k=%d build: %w", k, err)
		}
		qrng := xrand.New(seed + 99)
		queries := f.skewed(qrng, xrand.NewZipf(xrand.New(seed+13), skewS, keyN), cfg.skewAbsent)
		lats := make([]int64, ops)
		for i := range lats {
			_, _, lat, err := f.query(i, f.c.HostAt(int(qrng.Uint64n(1<<20))), queries)
			if err != nil {
				return fmt.Errorf("campaign k=%d skew query %d: %w", k, i, err)
			}
			lats[i] = lat
		}
		skewMsgs := f.c.Stats().TotalMessages
		row.SkewMsgsOp = float64(skewMsgs) / float64(ops)
		row.SkewLatencyP50, row.SkewLatencyP99, _, _ = latSummary(lats)

		for ; row.ChurnEvents < churnEvents; row.ChurnEvents++ {
			if row.ChurnEvents%2 == 0 && f.c.Hosts() > 2 {
				if err := f.c.Leave(f.c.HostAt(int(qrng.Uint64n(1 << 20)))); err != nil {
					return fmt.Errorf("campaign k=%d leave: %w", k, err)
				}
			} else {
				f.c.Join()
			}
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
				fmt.Fprintf(out, "k=%d frac=%g: skipped, -max-wall %v exhausted\n", k, frac, cfg.maxWall)
				doc.Truncated = true
				continue
			}
			cell, err := campaignCrashCell(newCluster(hosts), ds, k, frac, seed)
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
			for _, s := range sortedNames(cell.LostBy) {
				fmt.Fprintf(out, " %s=%d", s, cell.LostBy[s])
			}
			fmt.Fprintf(out, "; repair %d msgs\n", cell.RepairMsgs)
		}
		if len(row.BreakFrac) == 0 {
			fmt.Fprintf(out, "  no structure lost data at k=%d up to frac=%g\n", k, fracs[len(fracs)-1])
		}
		for _, s := range sortedNames(row.BreakFrac) {
			fmt.Fprintf(out, "  breaking point %s: frac=%g\n", s, row.BreakFrac[s])
		}
	}
	if len(doc.Rows) == 0 {
		return fmt.Errorf("no campaign cells ran within -max-wall %v", cfg.maxWall)
	}
	return writeJSON(out, cfg.json, doc)
}

// campaignCrashCell builds a fresh durable fixture on c, crashes
// ceil(frac*hosts) distinct hosts simultaneously (the durable cluster
// holds repair, expecting them back), then gives up on all of them at
// once via Repair and records the per-structure data loss.
func campaignCrashCell(c *skipwebs.Cluster, ds *dataset, k int, frac float64, seed uint64) (crashCell, error) {
	cell := crashCell{Frac: frac}
	hosts := c.Hosts()
	defer c.Close()
	if _, err := campaignSix(c, ds, k, seed); err != nil {
		return cell, err
	}
	m := min(max(int(math.Ceil(frac*float64(hosts))), 1), hosts-2)
	crng := xrand.New(seed + 7 + uint64(math.Round(frac*1000)))
	picked := make(map[skipwebs.HostID]bool, m)
	for len(picked) < m {
		h := c.HostAt(int(crng.Uint64n(1 << 20)))
		if picked[h] {
			continue
		}
		picked[h] = true
		if err := c.Crash(h); err != nil {
			return cell, fmt.Errorf("crash host %d: %w", h, err)
		}
	}
	cell.Crashed = m
	before := c.Stats().TotalMessages
	repairErr := c.Repair()
	cell.RepairMsgs = c.Stats().TotalMessages - before
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
