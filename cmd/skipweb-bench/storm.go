package main

import (
	"errors"
	"fmt"
	"io"
	"math"

	skipwebs "github.com/skipwebs/skipwebs"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// Churn and failover modes: a mixed query workload over all six
// structures, interleaved with membership events on the one cluster that
// carries them.

// stormSpan is the planar map's half-width in the six-structure storms.
const stormSpan = 1000

// seeded returns the per-structure options every six-structure fixture
// builds with: o, with structure s seeded o.Seed + s.
func seeded(o skipwebs.Options) func(s int) skipwebs.Options {
	return func(s int) skipwebs.Options {
		seeded := o
		seeded.Seed += uint64(s)
		return seeded
	}
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
	StorageP50     int64   `json:"storage_p50"`
	StorageP99     int64   `json:"storage_p99"`
	StorageMax     int64   `json:"storage_max"`
}

// churnDoc is the JSON document written by -mode churn -json
// (BENCH_CHURN_PR3.json).
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
func runChurn(out io.Writer, cfg *config) error {
	keyN, ops := cfg.keys, cfg.queries
	if cfg.quick {
		ops, keyN = min(ops, 2000), min(keyN, 1024)
	}
	rates, err := parseList("-churn-rates", cfg.churnRates, "0 <= rate <= 0.5", parseFloat,
		func(r float64) bool { return r >= 0 && r <= 0.5 })
	if err != nil {
		return err
	}
	doc := churnDoc{Mode: "churn", Hosts: cfg.hosts, Keys: keyN, Ops: ops, Seed: cfg.seed}
	fmt.Fprintf(out, "=== C1: host churn (hosts=%d keys=%d ops=%d, 6 structures, consistency-checked) ===\n", cfg.hosts, keyN, ops)
	fmt.Fprintf(out, "%8s %7s %6s %6s %6s %14s %16s %8s %8s %8s\n",
		"rate", "events", "joins", "leaves", "hosts", "query msgs/op", "churn msgs/evt", "st p50", "st p99", "st max")
	for _, rate := range rates {
		row, err := churnTrial(cfg.hosts, keyN, ops, rate, cfg.seed)
		if err != nil {
			return fmt.Errorf("churn rate %g: %w", rate, err)
		}
		doc.Rows = append(doc.Rows, row)
		fmt.Fprintf(out, "%8.4f %7d %6d %6d %6d %14.2f %16.1f %8d %8d %8d\n",
			row.Rate, row.Events, row.Joins, row.Leaves, row.FinalHosts,
			row.QueryMsgsOp, row.ChurnMsgsEvent, row.StorageP50, row.StorageP99, row.StorageMax)
	}
	fmt.Fprintln(out, "zero lost keys: every key of every structure answered correctly after the storm")
	return writeJSON(out, cfg.json, doc)
}

// churnTrial runs one churn-rate cell: build all six structures on a
// fresh cluster, interleave queries with alternating leave/join events,
// check consistency after every event, and sweep for lost keys at the
// end.
func churnTrial(hosts, keyN, ops int, rate float64, seed uint64) (churnRow, error) {
	row := churnRow{Rate: rate}
	ds := newDataset(seed, sizes{keys: keyN, items: keyN, strMin: 8, segCap: 256, span: stormSpan})
	f, err := buildSix(skipwebs.NewCluster(hosts), ds, seeded(skipwebs.Options{Seed: seed}))
	if err != nil {
		return row, err
	}
	c := f.c
	c.ResetTraffic()

	step := 0
	if rate > 0 {
		step = int(math.Round(1 / rate))
	}
	qrng := xrand.New(seed + 99)
	queries := ds.uniform(qrng)
	var verifyMsgs int64
	for i := 0; i < ops; i++ {
		if step > 0 && i > 0 && i%step == 0 {
			before := c.Stats().TotalMessages
			if row.Events%2 == 0 && c.Hosts() > 2 {
				if err := c.Leave(c.HostAt(qrng.Intn(c.Hosts()))); err != nil {
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
				k := ds.keys[qrng.Intn(len(ds.keys))]
				found, _, err := f.sorted[oneDim].Contains(k, c.HostAt(qrng.Intn(c.Hosts())))
				if err != nil {
					return row, err
				}
				if !found {
					return row, fmt.Errorf("key %d lost after event %d", k, row.Events)
				}
			}
			verifyMsgs += c.Stats().TotalMessages - beforeVerify
		}
		if _, _, _, err := f.query(i, c.HostAt(qrng.Intn(c.Hosts())), queries); err != nil {
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
	row.StorageP50, row.StorageP99, row.StorageMax = qs[0], qs[1], qs[2]

	if err := c.CheckConsistent(); err != nil {
		return row, fmt.Errorf("final consistency: %w", err)
	}
	return row, f.sweep()
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

// failoverDoc is the JSON document written by -mode failover -json
// (BENCH_FAILOVER_PR5.json).
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
func runFailover(out io.Writer, cfg *config) error {
	if cfg.crashes < 1 {
		return fmt.Errorf("-crashes must be >= 1, got %d", cfg.crashes)
	}
	keyN, ops := cfg.keys, cfg.queries
	if cfg.quick {
		ops, keyN = min(ops, 1800), min(keyN, 768)
	}
	crashes := min(cfg.crashes, cfg.hosts/2)
	ks, err := parseReplicas(cfg, 1)
	if err != nil {
		return err
	}
	doc := failoverDoc{Mode: "failover", Hosts: cfg.hosts, Keys: keyN, Ops: ops, Crashes: crashes, Seed: cfg.seed}
	fmt.Fprintf(out, "=== F1: crash failover (hosts=%d keys=%d ops=%d crashes=%d, 6 structures vs crash-free control) ===\n",
		cfg.hosts, keyN, ops, crashes)
	fmt.Fprintf(out, "%4s %8s %12s %8s %10s %16s %14s %14s %7s\n",
		"k", "crashes", "availability", "matched", "lost", "repair msgs/evt", "query msgs/op", "update msgs/op", "hosts")
	for _, k := range ks {
		row, err := failoverTrial(cfg.hosts, keyN, ops, k, crashes, cfg.seed)
		if err != nil {
			return fmt.Errorf("failover k=%d: %w", k, err)
		}
		doc.Rows = append(doc.Rows, row)
		fmt.Fprintf(out, "%4d %8d %12.4f %8v %10d %16.1f %14.2f %14.2f %7d\n",
			row.Replicas, row.Crashes, row.Availability, row.Matched, row.LostUnits,
			row.RepairMsgsEvent, row.QueryMsgsOp, row.UpdateMsgsOp, row.FinalHosts)
	}
	fmt.Fprintln(out, "k>=2 rows: zero lost keys, every query answered identically to the control build")
	return writeJSON(out, cfg.json, doc)
}

// failoverTrial runs one replication-factor cell: stormed and control
// fixtures answer the same workload while the stormed cluster crashes
// hosts at regular intervals.
func failoverTrial(hosts, keyN, ops, k, crashes int, seed uint64) (failoverRow, error) {
	row := failoverRow{Replicas: k}
	ds := newDataset(seed, sizes{keys: keyN, extra: keyN / 2, items: keyN / 2, strMin: 8, segCap: 192, span: stormSpan})
	opts := seeded(skipwebs.Options{Seed: seed, Replicas: k})
	stormed, err := buildSix(skipwebs.NewCluster(hosts), ds, opts)
	if err != nil {
		return row, err
	}
	control, err := buildSix(skipwebs.NewCluster(hosts), ds, opts)
	if err != nil {
		return row, err
	}

	// Update overhead: write-through costs k-1 extra messages per
	// written unit. Mirror the inserts into the control so both key
	// sets stay identical for the answer comparison.
	stormed.c.ResetTraffic()
	for n, key := range ds.extra {
		for _, s := range []int{oneDim, blocked} {
			if _, err := stormed.sorted[s].Insert(key, stormed.c.HostAt(2*n)); err != nil {
				return row, err
			}
			if _, err := control.sorted[s].Insert(key, control.c.HostAt(0)); err != nil {
				return row, err
			}
		}
	}
	row.UpdateMsgsOp = float64(stormed.c.Stats().TotalMessages) / float64(2*len(ds.extra))

	stormed.c.ResetTraffic()
	step := max(ops/(crashes+1), 1)
	qrngS, qrngC := xrand.New(seed+99), xrand.New(seed+99)
	drawS, drawC := ds.uniform(qrngS), ds.uniform(qrngC)
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
		// A query that fails fast with the typed host-down error is
		// unanswered — the availability measure — not a failed run.
		got, _, _, err := stormed.query(i, stormed.c.HostAt(int(qrngS.Uint64n(1<<20))), drawS)
		down := errors.Is(err, skipwebs.ErrHostDown)
		if err != nil && !down {
			return row, err
		}
		want, _, _, err := control.query(i, control.c.HostAt(int(qrngC.Uint64n(1<<20))), drawC)
		if err != nil {
			return row, fmt.Errorf("control query failed: %w", err)
		}
		if !down {
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
		return row, stormed.sweep()
	}
	return row, nil
}
