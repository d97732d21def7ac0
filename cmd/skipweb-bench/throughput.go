package main

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	skipwebs "github.com/skipwebs/skipwebs"
	"github.com/skipwebs/skipwebs/internal/experiments"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

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

// throughputDoc is the JSON document written by -mode throughput -json
// (BENCH_WRITERS_PR8.json).
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
// GOMAXPROCS 1 and 4, the insert path must scale >= 2x or the run fails.
func runThroughput(out io.Writer, cfg *config) error {
	hosts, keyN, queries, stripes, seed := cfg.hosts, cfg.keys, cfg.queries, cfg.stripes, cfg.seed
	if stripes < 1 {
		return fmt.Errorf("-stripes must be positive, got %d", stripes)
	}
	procVals, err := parseList("-procs", cfg.procs, "an integer >= 1", strconv.Atoi, func(p int) bool { return p >= 1 })
	if err != nil {
		return err
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
	if err := writeJSON(out, cfg.json, doc); err != nil {
		return err
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
