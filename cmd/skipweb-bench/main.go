// Command skipweb-bench regenerates every table and figure of the
// skip-webs paper on the message-counting simulator and records the
// repo's accounting experiments: what an operation costs in messages
// under churn, crashes, restarts, skew, scale and a real TCP transport.
// Message counts repeat exactly per seed, so the records it writes with
// -json (BENCH_*.json at the repo root) are regenerated and byte-compared
// in CI. Wall-clock timing is `bash benchmark/run.sh`'s job, not this
// tool's; the timing columns that remain (-mode bench ns/op, -mode scale
// ops/sec, -mode wire latency) are context for the counts beside them.
//
// Usage:
//
//	skipweb-bench [-mode M] [-seed N] [flags the mode reads]
//
// One -mode runs per invocation; `skipweb-bench -h` prints, from the same
// table the dispatcher uses, every mode with the flags it reads, its
// defaults and its minimum sizes. A flag set explicitly that the selected
// mode does not read is an error, not a silent no-op.
//
//   - experiments (default): the paper's tables, lemmas, theorems and
//     figures (-experiment picks one) at the EXPERIMENTS.md scale; -quick
//     runs a reduced sweep.
//   - bench: hot-path micro-benchmarks — ns/op, allocs/op and msgs/op per
//     row; -baseline enforces the allocs/op and msgs/op ceilings of
//     bench_baseline.json. Update rows hold the structure in [keys, 2 keys)
//     by rebuilding outside the timer.
//   - churn: a mixed query workload over all six structures interleaved
//     with alternating Leave/Join events at each rate in -churn-rates;
//     Cluster.CheckConsistent after every event, a zero-lost-keys sweep at
//     the end; query msgs/op, migration msgs/event and per-host storage
//     quantiles (BENCH_CHURN_PR3.json).
//   - failover: the same workload against unclean host kills at each
//     replication factor in -replicas, compared answer by answer with a
//     crash-free control build: availability, lost units, repair
//     msgs/event, query and update msgs/op (BENCH_FAILOVER_PR5.json).
//   - failover -restart: durable recovery. One host of a durable cluster
//     and of a non-durable twin crashes, ~1% of the keys churn while it is
//     down, Cluster.Restart replays its WAL and merkle-reconciles; the
//     reconcile traffic must stay under 10% of the twin's full
//     re-replication, and -baseline enforces the committed
//     recovery_ceilings (BENCH_RECOVERY_PR7.json).
//   - wire: a seeded workload replayed against daemons speaking the TCP
//     wire protocol (in-process listeners, or real skipweb-serve processes
//     with -serve-bin) must leave per-host message counters bit-identical
//     to a simulator run (BENCH_WIRE_PR6.json). With -restart one daemon is
//     SIGKILLed mid-workload and restarted from its WAL; answers, digests
//     and summed counters must still match.
//   - skew: Zipf(-skew-s) queries plus a -skew-absent flood of absent keys
//     replayed in lockstep against a cached build (finger cache + negative
//     bloom) and a cache-free twin of each structure; answers must match
//     and the cached twin may never charge more; >= 25% fewer msgs/op at
//     the highest s >= 1.2 on three structures or the run fails
//     (BENCH_SKEW_PR9.json).
//   - scale: -scale-hosts x -scale-keys x the three sorted sets under the
//     -latency cost model: query msgs/op and exact modeled-latency
//     quantiles per cell; infeasible cells are skipped and logged
//     (BENCH_SCALE_PR10.json).
//   - campaign: per replication factor, all six structures on one durable
//     cluster under the latency model: a skewed query storm, a churn storm,
//     then ceil(frac x hosts) simultaneous crashes per -crash-fracs entry
//     on a fresh build, recording each structure's breaking point
//     (BENCH_CAMPAIGN_PR10.json).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/skipwebs/skipwebs/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "skipweb-bench:", err)
		os.Exit(1)
	}
}

// config is the parsed command line; a mode reads only the fields its
// entry in modes lists.
type config struct {
	mode, experiment      string
	quick, restart        bool
	seed                  uint64
	hosts, keys, queries  int
	crashes               int
	churnRates, replicas  string
	json, baseline        string
	serveBin              string
	basePort              int
	skewS                 string
	skewAbsent            float64
	scaleHosts, scaleKeys string
	latency, crashFracs   string
	maxWall               time.Duration
}

// modeSpec is one row of the mode table: what the mode is, which flags
// it reads (beyond -mode and -seed, which every mode reads), the flag
// defaults it overrides, its minimum sizes (0 = none),
// and the function that runs it.
type modeSpec struct {
	name    string
	restart bool // the entry for this mode under -restart
	doc     string
	flags   string
	def     map[string]string
	hosts   int
	keys    int
	queries int
	run     func(out io.Writer, cfg *config) error
}

// modes is the mode table. -hosts, -keys and -queries default to the
// simulator scale (256 / 4096 / 20000); a mode that replays every op
// against several builds, or pays a socket per hop, scales them down
// unless the flag was set explicitly.
var modes = []modeSpec{
	{name: "experiments", doc: "the paper's tables, lemmas, theorems and figures",
		flags: "experiment quick", run: runExperiments},
	{name: "bench", doc: "hot-path micro-benchmarks; -baseline enforces the allocs/op and msgs/op ceilings",
		flags: "hosts keys quick json baseline", hosts: 1, keys: 64, run: runBench},
	{name: "churn", doc: "join/leave storm over all six structures, consistency-checked",
		flags: "hosts keys queries churn-rates quick json", hosts: 4, keys: 64, queries: 1, run: runChurn},
	{name: "failover", restart: true, doc: "durable crash -> Restart (WAL replay + merkle diff) vs full re-replication",
		flags: "restart hosts keys replicas quick json baseline", hosts: 8, keys: 256, run: runRecovery},
	{name: "failover", doc: "host crashes vs replication factor, against a crash-free control",
		flags: "hosts keys queries replicas crashes quick json", hosts: 8, keys: 64, queries: 1, run: runFailover},
	{name: "wire", doc: "sim-vs-TCP per-host counter parity; -restart SIGKILLs and restarts a -serve-bin daemon",
		flags: "hosts keys queries serve-bin base-port restart json",
		def:   map[string]string{"hosts": "4", "keys": "512", "queries": "500"},
		hosts: 2, keys: 16, queries: 1, run: runWire},
	{name: "skew", doc: "Zipf + absent-key traffic, cached builds vs cache-free twins",
		flags: "hosts keys queries skew-s skew-absent quick json",
		def:   map[string]string{"hosts": "64", "queries": "8000"},
		hosts: 4, keys: 64, queries: 1, run: runSkew},
	{name: "scale", doc: "hosts x keys sweep of the sorted sets under the latency model",
		flags: "scale-hosts scale-keys queries latency max-wall quick json",
		def:   map[string]string{"queries": "2000"}, queries: 1, run: runScale},
	{name: "campaign", doc: "skew storm, churn storm and crash escalation on durable clusters",
		flags: "hosts keys queries replicas crash-fracs latency skew-s skew-absent max-wall quick json",
		def:   map[string]string{"hosts": "1024", "keys": "262144", "queries": "4000", "replicas": "3"},
		hosts: 8, keys: 512, queries: 6, run: runCampaign},
}

// title names a mode entry the way it is invoked.
func (m *modeSpec) title() string {
	if m.restart {
		return m.name + " -restart"
	}
	return m.name
}

func run(args []string, out io.Writer) error {
	var cfg config
	var names []string
	for _, m := range modes {
		if !m.restart {
			names = append(names, m.name)
		}
	}
	fs := flag.NewFlagSet("skipweb-bench", flag.ContinueOnError)
	fs.StringVar(&cfg.mode, "mode", "experiments", strings.Join(names, ", "))
	fs.StringVar(&cfg.experiment, "experiment", "all", "all, or one of "+strings.Join(experimentNames(), ", "))
	fs.BoolVar(&cfg.quick, "quick", false, "reduced sweep for smoke testing (bench and failover -restart accept it and change nothing)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "random seed; every count in every mode repeats exactly per seed")
	fs.IntVar(&cfg.hosts, "hosts", 256, "number of hosts")
	fs.IntVar(&cfg.keys, "keys", 4096, "stored keys per structure")
	fs.IntVar(&cfg.queries, "queries", 20000, "operations in the measured workload")
	fs.StringVar(&cfg.churnRates, "churn-rates", "0,0.002,0.01,0.04", "comma-separated churn events per operation")
	fs.StringVar(&cfg.replicas, "replicas", "1,2,3", "comma-separated replication factors k (failover -restart needs k >= 2)")
	fs.IntVar(&cfg.crashes, "crashes", 4, "host crashes per trial")
	fs.StringVar(&cfg.json, "json", "", "also write the results as JSON to this file")
	fs.StringVar(&cfg.baseline, "baseline", "", "fail if the run exceeds the ceilings in this JSON file (bench_baseline.json)")
	fs.StringVar(&cfg.serveBin, "serve-bin", "", "path to a skipweb-serve binary; when set, the daemons are real processes")
	fs.IntVar(&cfg.basePort, "base-port", 7070, "first loopback port for -serve-bin daemons")
	fs.BoolVar(&cfg.restart, "restart", false, "failover: measure durable crash -> Restart instead; wire: SIGKILL and restart one -serve-bin daemon mid-workload")
	fs.StringVar(&cfg.skewS, "skew-s", "0.8,1.0,1.2", "comma-separated Zipf exponents (campaign uses the first)")
	fs.Float64Var(&cfg.skewAbsent, "skew-absent", 0.25, "fraction of adversarial absent-key queries")
	fs.StringVar(&cfg.scaleHosts, "scale-hosts", "256,1024,4096,10000", "comma-separated host counts to sweep")
	fs.StringVar(&cfg.scaleKeys, "scale-keys", "262144,1048576,10485760", "comma-separated key counts to sweep")
	fs.StringVar(&cfg.latency, "latency", "twolevel", "per-link latency model (none, fixed:C, uniform:LO:HI, lognormal:MU:SIGMA, twolevel[:RACK])")
	fs.DurationVar(&cfg.maxWall, "max-wall", 0, "stop starting new cells after this wall-clock budget (0 = unlimited)")
	fs.StringVar(&cfg.crashFracs, "crash-fracs", "0.01,0.05,0.1,0.2", "comma-separated fractions of hosts crashed simultaneously")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintln(w, "Usage: skipweb-bench [-mode M] [-seed N] [flags the mode reads]\n\nModes:")
		for _, m := range modes {
			fmt.Fprintf(w, "  %s: %s\n\treads", m.title(), m.doc)
			atLeast := map[string]int{"hosts": m.hosts, "keys": m.keys, "queries": m.queries}
			for _, f := range strings.Fields(m.flags) {
				fmt.Fprintf(w, " -%s", f)
				if v, ok := m.def[f]; ok {
					fmt.Fprintf(w, " (default %s)", v)
				}
				if atLeast[f] > 1 {
					fmt.Fprintf(w, " (>= %d)", atLeast[f])
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "\nFlags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help printed usage; not a failure
		}
		return err
	}

	var m *modeSpec
	for i := range modes {
		if modes[i].name == cfg.mode && (cfg.restart || !modes[i].restart) {
			m = &modes[i]
			break
		}
	}
	if m == nil {
		return fmt.Errorf("unknown mode %q (want one of %s)", cfg.mode, strings.Join(names, ", "))
	}
	reads := map[string]bool{"mode": true, "seed": true}
	for _, f := range strings.Fields(m.flags) {
		reads[f] = true
	}
	set := map[string]bool{}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if !reads[f.Name] {
			unread = append(unread, "-"+f.Name)
		}
	})
	if unread != nil {
		return fmt.Errorf("-mode %s does not read %s (it reads -%s)", m.title(),
			strings.Join(unread, ", "), strings.Join(strings.Fields(m.flags), ", -"))
	}
	for name, v := range m.def {
		if !set[name] {
			if err := fs.Set(name, v); err != nil {
				return err
			}
		}
	}
	for _, size := range []struct {
		flag         string
		got, atLeast int
	}{{"hosts", cfg.hosts, m.hosts}, {"keys", cfg.keys, m.keys}, {"queries", cfg.queries, m.queries}} {
		if size.got < size.atLeast {
			return fmt.Errorf("-%s must be >= %d for -mode %s, got %d", size.flag, size.atLeast, m.title(), size.got)
		}
	}
	return m.run(out, &cfg)
}

// writeJSON writes doc, indented, to path and says so; an empty path
// (no -json) writes nothing.
func writeJSON(out io.Writer, path string, doc any) error {
	if path == "" {
		return nil
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// parseList parses a comma-separated flag value; want describes the
// entries ok accepts, for the error.
func parseList[T any](flagName, s, want string, parse func(string) (T, error), ok func(T) bool) ([]T, error) {
	var vals []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil || !ok(v) {
			return nil, fmt.Errorf("bad %s entry %q (want %s)", flagName, f, want)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// parseReplicas parses -replicas as factors min <= k <= hosts.
func parseReplicas(cfg *config, min int) ([]int, error) {
	return parseList("-replicas", cfg.replicas, fmt.Sprintf("%d <= k <= hosts", min), strconv.Atoi,
		func(k int) bool { return k >= min && k <= cfg.hosts })
}

// experimentList is the -experiment table: figures is three entries
// under one name.
func experimentList(quick bool, seed uint64) []experiment {
	t1 := experiments.DefaultTable1Config()
	lm := experiments.DefaultLemmaConfig()
	th := experiments.DefaultTheoremConfig()
	if quick {
		t1 = experiments.QuickTable1Config()
		lm = experiments.QuickLemmaConfig()
		th = experiments.QuickTheoremConfig()
	}
	t1.Seed, lm.Seed, th.Seed = seed, seed+1, seed+2
	return []experiment{
		{"table1", "E1: Table 1", func() (any, error) { return experiments.Table1(t1) }},
		{"lemma1", "E2: Lemma 1", func() (any, error) { return experiments.Lemma1(lm) }},
		{"lemma3", "E3: Lemma 3 / Figure 3", func() (any, error) { return experiments.Lemma3(lm) }},
		{"lemma4", "E4: Lemma 4", func() (any, error) { return experiments.Lemma4(lm) }},
		{"lemma5", "E5: Lemma 5 / Figure 4", func() (any, error) { return experiments.Lemma5(lm) }},
		{"theorem2", "E6: Theorem 2, multi-dimensional", func() (any, error) { return experiments.Theorem2MultiDim(th) }},
		{"blocking", "E7: Theorem 2, 1-d blocking", func() (any, error) { return experiments.Theorem2Blocking(th) }},
		{"updates", "E8: Section 4 updates", func() (any, error) { return experiments.Updates(th) }},
		{"congestion", "E9: congestion / load balance", func() (any, error) { return experiments.Congestion(th) }},
		{"ablation", "A1: blocking ablation", func() (any, error) { return experiments.AblationBlocking(th) }},
		{"figures", "F1: Figure 1", func() (any, error) { return experiments.Figure1(seed), nil }},
		{"figures", "F2: Figure 2", func() (any, error) { return experiments.Figure2(seed, 1024) }},
		{"figures", "F4: Figure 4", func() (any, error) { return experiments.Figure4(seed, 14) }},
	}
}

type experiment struct {
	name, title string
	run         func() (any, error)
}

func experimentNames() []string {
	var names []string
	for _, e := range experimentList(true, 0) {
		if len(names) == 0 || names[len(names)-1] != e.name {
			names = append(names, e.name)
		}
	}
	return names
}

func runExperiments(out io.Writer, cfg *config) error {
	ran := false
	for _, e := range experimentList(cfg.quick, cfg.seed) {
		if cfg.experiment != "all" && cfg.experiment != e.name {
			continue
		}
		ran = true
		rep, err := e.run()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "=== %s ===\n", e.title)
		fmt.Fprintln(out, rep)
		if b, ok := rep.(*experiments.BlockingReport); ok {
			fmt.Fprintf(out, "sub-log trend (Q/log2n last/first, <1 is sub-logarithmic): %.3f\n\n",
				experiments.SubLogCheck(b.Rows))
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", cfg.experiment)
	}
	return nil
}
