// Command benchmark is the repository's one benchmark: six closed-loop
// workloads, nine end-to-end metrics reported on each, and a ladder of
// per-layer probes from core.ListLevel up to the skipweb-serve RPC. See
// README.md for the metric table, why each workload exists, and how the
// layers are expected to move the end-to-end numbers.
//
//	go run -C benchmark . -workload query-sync            # one workload, untraced
//	go run -C benchmark . -workload all -out out/run.json # the suite
//	go run -C benchmark . -workload rpc -trace            # spans + per-layer metrics
//	go run -C benchmark . -compare a.json b.json          # verdict per (workload, metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

const schema = "skipwebs-benchmark/1"

// document is an output file: who measured, what was asked, and one
// section per workload run.
type document struct {
	Schema    string           `json:"schema"`
	Machine   fingerprint      `json:"machine"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Toy       bool             `json:"toy,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

// contractLine is the last line of standard output: the result in the
// shape the benchmark driver reads.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minPasses is the floor on measured passes: a median of fewer is not
// worth comparing.
const minPasses = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchmark: "+format+"\n", a...)
		return 1
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		name    = fs.String("workload", "", "workload to run, or \"all\": "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "generates the op stream: queries, origins, fresh items")
		seconds = fs.Int("seconds", 12, "measured passes; a pass is sized to take about a second on the reference box")
		trace   = fs.String("trace", "0", "1 runs the separate traced run: spans and per-layer metrics")
		out     = fs.String("out", "", "also write the full result document to this file")
		outDir  = fs.String("outdir", "out", "directory for span files and scratch")
		toy     = fs.Bool("toy", false, "self-test scale (16 hosts, 512 items); numbers are not comparable")
		compare = fs.Bool("compare", false, "compare two result documents: -compare a.json b.json")
	)
	if err := fs.Parse(bareTrace(args)); err != nil {
		return fail("%v", err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail("-compare takes two result files, got %d", fs.NArg())
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	if fs.NArg() > 0 {
		return fail("unexpected argument %q", fs.Arg(0))
	}
	var traced bool
	switch *trace {
	case "0", "false":
	case "1", "true":
		traced = true
	default:
		return fail("-trace takes 0 or 1, got %q", *trace)
	}
	var todo []workload
	if *name == "all" {
		todo = suite
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		return fail("unknown workload %q (have %s, or all)", *name, strings.Join(workloadNames(), ", "))
	}
	cfg := runConfig{seed: *seed, passes: *seconds, setups: 3, toy: *toy, outDir: *outDir}
	if cfg.toy {
		cfg.setups = 1
		if cfg.passes < 1 {
			cfg.passes = 1
		}
	} else if cfg.passes < minPasses {
		cfg.passes = minPasses
	}
	cfg.machine = machineFingerprint()

	doc := document{Schema: schema, Machine: cfg.machine, Seed: cfg.seed, Trace: traced, Toy: cfg.toy}
	line := contractLine{Correct: true, Metrics: map[string]contractValue{}}
	for _, w := range todo {
		var res workloadResult
		var err error
		if traced {
			res, err = traceWorkload(w, cfg)
		} else {
			res, err = runWorkload(w, cfg)
		}
		if err != nil {
			return fail("%v", err)
		}
		doc.Workloads = append(doc.Workloads, res)
		printResult(stdout, res)
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		defs, metrics := endToEnd, res.Metrics
		if traced {
			defs, metrics = perLayer, res.PerLayer
		}
		for _, d := range defs {
			if d.Ungated {
				continue
			}
			k := d.Name
			if len(todo) > 1 {
				k = w.Name + "/" + k
			}
			line.Metrics[k] = contractValue{Value: metrics[d.Name].Value, Unit: d.Unit}
		}
	}
	line.Correct = line.Failed == 0
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			return fail("%v", err)
		}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if !line.Correct {
		return fail("%d of %d checked answers were wrong", line.Failed, line.Attempted)
	}
	return 0
}

// bareTrace lets "-trace" stand alone: a value-less -trace is read as
// "-trace 1", while the driver's "--trace 0|1" form passes through.
func bareTrace(args []string) []string {
	out := make([]string, 0, len(args)+1)
	for i, a := range args {
		out = append(out, a)
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				continue
			}
		}
		out = append(out, "1")
	}
	return out
}

func workloadNames() []string {
	names := make([]string, len(suite))
	for i, w := range suite {
		names[i] = w.Name
	}
	return names
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric of a workload by name, with its unit.
func printResult(w io.Writer, r workloadResult) {
	fmt.Fprintf(w, "== %s: %d hosts, %d items, %d ops and %d calls per pass, %d passes ==\n",
		r.Name, r.Sizing.Hosts, r.Items, r.OpsPerPass, r.CallsPerPass, r.Passes)
	for _, d := range endToEnd {
		if v, ok := r.Metrics[d.Name]; ok {
			extra := ""
			if v.Samples > 0 {
				extra = fmt.Sprintf("  (%d samples)", v.Samples)
			}
			fmt.Fprintf(w, "  %-22s %14.6g %-10s%s\n", d.Name, v.Value, v.Unit, extra)
		}
	}
	for _, d := range perLayer {
		if v, ok := r.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
	if len(r.Rungs) > 0 {
		fmt.Fprintf(w, "  ladder (self times sum to %.3f of the client rung; spans in %s):\n", r.SelfSumOverClient, r.SpanFile)
		for _, g := range r.Rungs {
			fmt.Fprintf(w, "    %-14s under %-8q %6d spans  total %12d ns  p50 %10.0f ns  self %12d ns\n",
				g.Rung, g.Parent, g.Spans, g.TotalNs, g.P50Ns, g.SelfNs)
		}
	}
	fmt.Fprintf(w, "  checked %d answers, %d wrong\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "    FAIL %s\n", f)
	}
}
