package main

import (
	"fmt"
	"io"

	skipwebs "github.com/skipwebs/skipwebs"
	"github.com/skipwebs/skipwebs/internal/experiments"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// recoveryRow is one (structure, k) cell of the R1 recovery table: the
// cost of bringing a crashed host back by full re-replication (PR 5's
// Repair path, measured on a non-durable twin) versus by durable
// Restart — WAL replay plus a merkle-diff reconcile that re-ships only
// the subtrees that diverged while the host was down.
type recoveryRow struct {
	Structure     string  `json:"structure"`
	Replicas      int     `json:"replicas"`
	Keys          int     `json:"keys"`
	DivergentKeys int     `json:"divergent_keys"`
	Divergence    float64 `json:"divergence_fraction"`
	FullMsgs      int64   `json:"full_repair_msgs_per_event"`
	ReplayMsgs    int     `json:"restart_replay_msgs"`
	MerkleMsgs    int     `json:"restart_merkle_msgs"`
	CopiedUnits   int     `json:"restart_copied_units"`
	Ratio         float64 `json:"merkle_over_full"`
}

// recoveryDoc is the JSON document written by -mode failover -restart
// -json (BENCH_RECOVERY_PR7.json).
type recoveryDoc struct {
	Mode  string        `json:"mode"`
	Hosts int           `json:"hosts"`
	Keys  int           `json:"keys"`
	Seed  uint64        `json:"seed"`
	Rows  []recoveryRow `json:"rows"`
}

// recoveryContractRatio is the hard acceptance bar independent of any
// baseline file: at ~1% key divergence, merkle reconcile traffic must be
// at most 10% of full re-replication.
const recoveryContractRatio = 0.10

// runRecovery (failover -restart) measures durable crash recovery
// against the PR 5 alternative it replaces. For each k and each
// key-bearing structure, a durable cluster and a non-durable twin are
// built identically; one host crashes in both. The twin pays full
// re-replication immediately (Crash triggers Repair). The durable
// cluster absorbs ~1% key divergence while the host is down, then
// Restart replays the host's WAL and merkle-reconciles its shard,
// re-copying only the diverged subtrees. The ratio of merkle traffic to
// full re-replication must stay under 10%; -baseline additionally
// enforces the committed per-structure ceilings.
// Unlike the other modes, -quick changes nothing here: a trial is one
// build plus one crash per cluster, already smoke-test cheap, and
// shrinking -keys (the mode needs >= 256 for 1% divergence to be keys
// at all) would shrink the victim's shard until the walk's log-overhead
// dominates the ratio being certified.
func runRecovery(out io.Writer, cfg *config) error {
	// A surviving replica to reconcile against needs k >= 2.
	ks, err := parseReplicas(cfg, 2)
	if err != nil {
		return err
	}
	doc := recoveryDoc{Mode: "recovery", Hosts: cfg.hosts, Keys: cfg.keys, Seed: cfg.seed}
	fmt.Fprintf(out, "=== R1: merkle restart vs full re-replication (hosts=%d keys=%d, ~1%% divergence while down) ===\n",
		cfg.hosts, cfg.keys)
	fmt.Fprintf(out, "%-10s %4s %10s %12s %12s %12s %8s %12s\n",
		"structure", "k", "divergent", "full msgs", "merkle msgs", "replay msgs", "copied", "merkle/full")
	copied := 0
	for _, k := range ks {
		for s := range sortedSets {
			row, err := recoveryTrial(s, cfg.hosts, cfg.keys, k, cfg.seed)
			if err != nil {
				return fmt.Errorf("recovery %s k=%d: %w", row.Structure, k, err)
			}
			doc.Rows = append(doc.Rows, row)
			copied += row.CopiedUnits
			fmt.Fprintf(out, "%-10s %4d %10d %12d %12d %12d %8d %12.4f\n",
				row.Structure, row.Replicas, row.DivergentKeys, row.FullMsgs,
				row.MerkleMsgs, row.ReplayMsgs, row.CopiedUnits, row.Ratio)
			if row.Ratio > recoveryContractRatio {
				return fmt.Errorf("%s k=%d: merkle reconcile cost %.4f of full re-replication exceeds the %.2f contract",
					row.Structure, k, row.Ratio, recoveryContractRatio)
			}
		}
	}
	// Per row, churn may legitimately miss the victim's shard (copied 0);
	// across the whole sweep it must hit at least once or the reconcile
	// never exercised its copy path.
	if copied == 0 {
		return fmt.Errorf("no trial re-copied any unit — divergence never reached a victim shard; raise -keys")
	}
	fmt.Fprintf(out, "every row: merkle restart <= %.0f%% of full re-replication traffic\n", recoveryContractRatio*100)
	if err := writeJSON(out, cfg.json, doc); err != nil {
		return err
	}
	if cfg.baseline != "" {
		return checkRecoveryBaseline(out, doc, cfg.baseline)
	}
	return nil
}

// recoveryTrial measures one (structure, k) cell. Both clusters see the
// same pre-crash updates (so the victim's WAL has real records to
// replay) and lose the same host; only the durable one gets it back.
func recoveryTrial(s, hosts, keyN, k int, seed uint64) (recoveryRow, error) {
	div := max(keyN/200, 1) // 0.5% inserts + 0.5% deletes ≈ 1% divergence
	pre := keyN / 10
	row := recoveryRow{Structure: sortedSets[s].name, Replicas: k, Keys: keyN, DivergentKeys: 2 * div}
	row.Divergence = float64(row.DivergentKeys) / float64(keyN)

	all := experiments.Keys(xrand.New(seed), keyN+pre+div, 1<<40)
	base, extra := all[:keyN], all[keyN:]
	preKeys, freshKeys := extra[:pre], extra[pre:]

	cD, cF := skipwebs.NewCluster(hosts), skipwebs.NewCluster(hosts)
	stD, err := sortedSets[s].build(cD, base, skipwebs.Options{Seed: seed + 1, Replicas: k, Durable: true})
	if err != nil {
		return row, err
	}
	stF, err := sortedSets[s].build(cF, base, skipwebs.Options{Seed: seed + 1, Replicas: k})
	if err != nil {
		return row, err
	}

	// Identical pre-crash update history on both clusters: these are the
	// WAL records the durable victim will replay at Restart.
	for i, key := range preKeys {
		if _, err := stD.Insert(key, cD.HostAt(i)); err != nil {
			return row, err
		}
		if _, err := stF.Insert(key, cF.HostAt(i)); err != nil {
			return row, err
		}
	}
	victim := cD.HostAt(3)

	// The PR 5 path: on a non-durable cluster, Crash gives the host up
	// for dead and re-replicates its whole shard from the survivors.
	before := cF.Stats().TotalMessages
	if err := cF.Crash(victim); err != nil {
		return row, fmt.Errorf("non-durable crash: %w", err)
	}
	row.FullMsgs = cF.Stats().TotalMessages - before
	if row.FullMsgs <= 0 {
		return row, fmt.Errorf("full re-replication charged no messages — baseline is meaningless")
	}

	// The durable path: the host is expected back, so Crash repairs
	// nothing. ~1% of the key set churns while it is down.
	if err := cD.Crash(victim); err != nil {
		return row, fmt.Errorf("durable crash: %w", err)
	}
	for i, key := range freshKeys {
		if _, err := stD.Insert(key, cD.HostAt(i)); err != nil {
			return row, err
		}
	}
	for i := 0; i < div; i++ {
		if _, err := stD.Delete(base[i], cD.HostAt(i)); err != nil {
			return row, err
		}
	}

	st, err := cD.Restart(victim)
	if err != nil {
		return row, err
	}
	row.ReplayMsgs = st.ReplayMsgs
	row.MerkleMsgs = st.MerkleMsgs
	row.CopiedUnits = st.CopiedUnits
	row.Ratio = float64(st.MerkleMsgs) / float64(row.FullMsgs)
	// CopiedUnits can be zero: at 1% divergence the churn may miss the
	// victim's shard entirely, in which case the merkle walk proves it
	// and nothing ships — the cheapest possible recovery, not a bug.
	// onedim in particular lands here systematically: its update path
	// rebuilds touched ranges on live hosts (the down host's stale image
	// erodes away, see Web.RestartHost), so only untouched — hence clean —
	// units remain to reconcile. The run-wide copied>0 guard relies on
	// blocked/bucketed, which mutate units in place.

	// Integrity: the restarted cluster holds exactly the churned key set.
	if err := cD.CheckConsistent(); err != nil {
		return row, fmt.Errorf("post-restart consistency: %w", err)
	}
	for _, keys := range [][]uint64{base[div:], preKeys, freshKeys} {
		for i, key := range keys {
			r, err := stD.Floor(key, cD.HostAt(i))
			if err != nil || !r.Found || r.Key != key {
				return row, fmt.Errorf("key %d lost after restart: %+v %v", key, r, err)
			}
		}
	}
	return row, nil
}

// checkRecoveryBaseline enforces the committed recovery_ceilings in the
// baseline file: the worst measured merkle/full ratio per structure must
// stay under its ceiling, and a ceiling whose structure is missing from
// the run is a failure (guard erosion).
func checkRecoveryBaseline(out io.Writer, doc recoveryDoc, path string) error {
	base, err := readBaseline(path)
	if err != nil {
		return err
	}
	if len(base.Recovery) == 0 {
		return fmt.Errorf("baseline %s has no recovery_ceilings section", path)
	}
	worst := map[string]float64{}
	for _, r := range doc.Rows {
		worst[r.Structure] = max(worst[r.Structure], r.Ratio)
	}
	var failures []string
	for _, c := range base.Recovery {
		w, ok := worst[c.Structure]
		if !ok {
			failures = append(failures, fmt.Sprintf("recovery/%s: structure missing from this run (guard erosion)", c.Structure))
		} else if w > c.MaxRatio {
			failures = append(failures, fmt.Sprintf("recovery/%s: merkle/full %.4f exceeds ceiling %.4f", c.Structure, w, c.MaxRatio))
		}
	}
	return baselineVerdict(out, path, "recovery", len(base.Recovery), failures)
}
