package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	skipwebs "github.com/skipwebs/skipwebs"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// Skew mode measures the read-path cache layer (Options.CacheFingers +
// Options.NegativeBloom) under skewed traffic: for every structure and
// every Zipf exponent s in -skew-s, a deterministic stream of Zipf-
// distributed present-key queries mixed with an adversarial absent-key
// flood (-skew-absent fraction) is replayed in lockstep against a
// cached build and a cache-free control twin. Every answer must match
// the control bit for bit and every op must charge at most the
// control's messages; the mode reports msgs/op and latency-in-hops
// p50/p99 for both twins plus the cache counters, and fails unless the
// aggregate query msgs/op drops >= 25% at the highest s >= 1.2 on at
// least three structures.

// skewRow is one (structure, s, variant) cell of the skew table.
type skewRow struct {
	Structure     string  `json:"structure"`
	S             float64 `json:"s"`
	Cached        bool    `json:"cached"`
	Msgs          int64   `json:"msgs_total"`
	MsgsOp        float64 `json:"msgs_per_op"`
	HopsP50       int     `json:"hops_p50"`
	HopsP99       int     `json:"hops_p99"`
	ReductionPct  float64 `json:"reduction_pct,omitempty"`
	CacheHits     int64   `json:"cache_hits,omitempty"`
	CacheMisses   int64   `json:"cache_misses,omitempty"`
	CacheInval    int64   `json:"cache_invalidations,omitempty"`
	BloomTrueNeg  int64   `json:"bloom_true_negatives,omitempty"`
	BloomFalsePos int64   `json:"bloom_false_positives,omitempty"`
}

// skewDoc is the JSON document written by -mode skew -json
// (BENCH_SKEW_PR9.json).
type skewDoc struct {
	Mode       string    `json:"mode"`
	Hosts      int       `json:"hosts"`
	Keys       int       `json:"keys"`
	Queries    int       `json:"queries"`
	AbsentFrac float64   `json:"absent_frac"`
	SValues    []float64 `json:"s_values"`
	Seed       uint64    `json:"seed"`
	Rows       []skewRow `json:"rows"`
	// GatePassed lists the structures whose aggregate msgs/op dropped
	// >= 25% at the highest s (the acceptance gate needs >= 3).
	GatePassed []string `json:"gate_passed_structures"`
}

// runSkew runs the skewed-traffic cache benchmark (see the comment
// above for the contract).
func runSkew(out io.Writer, cfg *config) error {
	hosts, keyN, queries, seed := cfg.hosts, cfg.keys, cfg.queries, cfg.seed
	if cfg.skewAbsent < 0 || cfg.skewAbsent > 0.9 {
		return fmt.Errorf("-skew-absent must be in [0, 0.9], got %g", cfg.skewAbsent)
	}
	if cfg.quick {
		keyN, queries = min(keyN, 512), min(queries, 2000)
	}
	svals, err := parseList("-skew-s", cfg.skewS, "s > 0", parseFloat, func(s float64) bool { return s > 0 })
	if err != nil {
		return err
	}
	sort.Float64s(svals)
	maxS := svals[len(svals)-1]

	// One shared dataset; each (structure, s) cell builds that structure
	// alone, twice, each twin on its own cluster.
	ds := newDataset(seed, sizes{keys: keyN, items: keyN, strMin: 6, segCap: 512, span: 60000})
	absentKeys := xrand.AbsentKeys(seed, ds.keys, 512, 1<<40)
	absentStrs := xrand.AbsentStrings(seed, ds.strKeys, 512)
	// Planar has no membership query; it revisits a Zipf-weighted pool
	// of query points instead of an absent flood.
	planarPool := make([]skipwebs.PlanarPoint, 512)
	prng := xrand.New(xrand.Substream(seed, 0x91a7))
	for i := range planarPool {
		planarPool[i] = planarPoint(prng, ds.span)
	}
	twin := func(s int, cached bool) (*six, error) {
		f := &six{c: skipwebs.NewCluster(hosts), dataset: ds}
		return f, f.add(s, seeded(skipwebs.Options{
			Seed: seed, WriteStripes: 4, CacheFingers: cached, NegativeBloom: cached,
		})(s))
	}

	doc := skewDoc{
		Mode: "skew", Hosts: hosts, Keys: keyN, Queries: queries,
		AbsentFrac: cfg.skewAbsent, SValues: svals, Seed: seed,
	}
	fmt.Fprintf(out, "=== S1: skewed traffic, cached vs control (hosts=%d keys=%d queries=%d absent=%.0f%%) ===\n",
		hosts, keyN, queries, cfg.skewAbsent*100)
	fmt.Fprintf(out, "%-10s %5s %7s %14s %8s %8s %10s %10s %10s %10s\n",
		"structure", "s", "cached", "msgs/op", "p50", "p99", "hits", "misses", "bloom-tn", "reduction")

	for st, name := range sixNames {
		for _, s := range svals {
			ctl, err := twin(st, false)
			if err != nil {
				return fmt.Errorf("%s control: %w", name, err)
			}
			cache, err := twin(st, true)
			if err != nil {
				return fmt.Errorf("%s cached: %w", name, err)
			}
			// The cell's op stream, replayed by both twins: op's Zipf rank
			// and whether it belongs to the absent flood.
			domain := keyN
			if st == 5 {
				domain = len(planarPool)
			}
			zr := xrand.NewZipf(xrand.New(xrand.Substream(seed, st*16+1)), s, domain)
			ar := xrand.New(xrand.Substream(seed, st*16+2))
			var rank int
			var absent bool
			replay := &draw{
				key: func() (uint64, bool) {
					if absent {
						return absentKeys[rank%len(absentKeys)], true
					}
					return ds.keys[rank], false
				},
				point: func() (skipwebs.Point, bool) {
					p := ds.pts[rank]
					if absent {
						return skipwebs.Point{p[0] ^ 1, p[1] ^ 3}, true
					}
					return p, false
				},
				str: func() (string, bool) {
					if absent {
						return absentStrs[rank%len(absentStrs)], true
					}
					return ds.strKeys[rank], false
				},
				planar: func() skipwebs.PlanarPoint { return planarPool[rank] },
			}
			var ctlMsgs, cacheMsgs int64
			ctlHops := make([]int, queries)
			cacheHops := make([]int, queries)
			for op := 0; op < queries; op++ {
				rank, absent = zr.Next(), ar.Float64() < cfg.skewAbsent
				origin := skipwebs.HostID(op % hosts)
				want, hc, _, err := ctl.query(st, origin, replay)
				if err != nil {
					return fmt.Errorf("%s s=%g control op %d: %w", name, s, op, err)
				}
				got, ha, _, err := cache.query(st, origin, replay)
				if err != nil {
					return fmt.Errorf("%s s=%g cached op %d: %w", name, s, op, err)
				}
				if got != want {
					return fmt.Errorf("%s s=%g op %d: cached answer diverged from control", name, s, op)
				}
				if ha > hc {
					return fmt.Errorf("%s s=%g op %d: cached %d hops > control %d", name, s, op, ha, hc)
				}
				ctlMsgs += int64(hc)
				cacheMsgs += int64(ha)
				ctlHops[op], cacheHops[op] = hc, ha
			}
			mk := func(cached bool, msgs int64, hops []int, cl *skipwebs.Cluster) skewRow {
				sort.Ints(hops)
				r := skewRow{
					Structure: name, S: s, Cached: cached,
					Msgs: msgs, MsgsOp: float64(msgs) / float64(queries),
					HopsP50: quantile(hops, 0.50), HopsP99: quantile(hops, 0.99),
				}
				if cached {
					cs := cl.Stats()
					r.CacheHits, r.CacheMisses, r.CacheInval = cs.CacheHits, cs.CacheMisses, cs.CacheInvalidations
					r.BloomTrueNeg, r.BloomFalsePos = cs.BloomTrueNegatives, cs.BloomFalsePositives
					if ctlMsgs > 0 {
						r.ReductionPct = 100 * (1 - float64(msgs)/float64(ctlMsgs))
					}
				}
				return r
			}
			rows := []skewRow{mk(false, ctlMsgs, ctlHops, ctl.c), mk(true, cacheMsgs, cacheHops, cache.c)}
			doc.Rows = append(doc.Rows, rows...)
			for _, r := range rows {
				red := ""
				if r.Cached {
					red = fmt.Sprintf("%.1f%%", r.ReductionPct)
				}
				fmt.Fprintf(out, "%-10s %5.2f %7v %14.2f %8d %8d %10d %10d %10d %10s\n",
					r.Structure, r.S, r.Cached, r.MsgsOp, r.HopsP50, r.HopsP99,
					r.CacheHits, r.CacheMisses, r.BloomTrueNeg, red)
			}
		}
	}

	// Acceptance gate: >= 25% aggregate reduction at the highest s on
	// at least three structures (only enforced when that s >= 1.2).
	for _, r := range doc.Rows {
		if r.Cached && r.S == maxS && r.ReductionPct >= 25 {
			doc.GatePassed = append(doc.GatePassed, r.Structure)
		}
	}
	fmt.Fprintf(out, "gate: %d structure(s) with >= 25%% msgs/op reduction at s=%g: %s\n",
		len(doc.GatePassed), maxS, strings.Join(doc.GatePassed, ", "))
	if err := writeJSON(out, cfg.json, doc); err != nil {
		return err
	}
	if maxS >= 1.2 && len(doc.GatePassed) < 3 {
		return fmt.Errorf("skew gate: only %d structure(s) reached a 25%% msgs/op reduction at s=%g (need >= 3)",
			len(doc.GatePassed), maxS)
	}
	return nil
}
