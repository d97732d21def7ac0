package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI drives the command exactly as main does.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// toyDoc runs one workload at toy scale, one pass, and returns its section
// of the result document.
func toyDoc(t *testing.T, name string, seed string, extra ...string) workloadResult {
	t.Helper()
	dir := t.TempDir()
	file := filepath.Join(dir, "run.json")
	args := append([]string{"-workload", name, "-toy", "-seconds", "1", "-seed", seed, "-out", file, "-outdir", dir}, extra...)
	code, stdout, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("%s seed %s: exit %d\nstdout: %s\nstderr: %s", name, seed, code, stdout, stderr)
	}
	doc, err := readDocument(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != 1 || doc.Workloads[0].Name != name {
		t.Fatalf("%s: document holds %d workloads", name, len(doc.Workloads))
	}
	if doc.Machine.GoVersion == "" || doc.Machine.NProc == 0 || doc.Machine.CalibNs <= 0 || doc.Machine.TimerNs <= 0 {
		t.Errorf("%s: incomplete machine fingerprint %+v", name, doc.Machine)
	}
	// the last line of standard output is the driver's contract
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var last contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last stdout line is not the contract object: %v", name, err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("%s: contract line %+v", name, last)
	}
	for _, d := range endToEnd {
		if _, ok := last.Metrics[d.Name]; ok == d.Ungated {
			t.Errorf("%s: contract line carries %s: %v", name, d.Name, ok)
		}
	}
	return doc.Workloads[0]
}

// Every workload, at toy scale, emits every named end-to-end metric with
// its unit; the counts repeat exactly per seed and move with the seed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range suite {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			a, b, c := toyDoc(t, w.Name, "1"), toyDoc(t, w.Name, "1"), toyDoc(t, w.Name, "2")
			for _, d := range endToEnd {
				v, ok := a.Metrics[d.Name]
				if !ok {
					t.Errorf("metric %s missing", d.Name)
					continue
				}
				if v.Unit != d.Unit || v.Better != d.Better {
					t.Errorf("metric %s reported as %q/%q, table says %q/%q", d.Name, v.Unit, v.Better, d.Unit, d.Better)
				}
			}
			for _, exact := range []string{"msgs_per_op", "max_host_share", "fail_share"} {
				if a.Metrics[exact].Value != b.Metrics[exact].Value {
					t.Errorf("%s differs between two runs of seed 1: %v vs %v", exact, a.Metrics[exact].Value, b.Metrics[exact].Value)
				}
			}
			if a.Metrics["msgs_per_op"].Value == c.Metrics["msgs_per_op"].Value {
				t.Errorf("seed 2 charged exactly seed 1's msgs_per_op (%v): the seed does not reach the inputs", a.Metrics["msgs_per_op"].Value)
			}
			if a.Metrics["fail_share"].Value != 0 || a.Failed != 0 {
				t.Errorf("fail_share %v, %d failed: %v", a.Metrics["fail_share"].Value, a.Failed, a.Failures)
			}
			if n := a.Metrics["call_p99_us"].Samples; n != a.CallsPerPass {
				t.Errorf("call_p99_us pooled %d samples, one pass issues %d calls", n, a.CallsPerPass)
			}
			if len(a.Metrics["ops_per_s"].Passes) != 1 {
				t.Errorf("ops_per_s carries %d per-pass values for one pass", len(a.Metrics["ops_per_s"].Passes))
			}
		})
	}
}

// The traced run writes well-formed spans for every workload: end >= start,
// and every call present on every rung the workload crosses. Below front, a
// cached workload only descends on misses and updates.
func TestTraceSpans(t *testing.T) {
	crosses := map[string][]string{
		"query-sync":     {rungClient, rungFront, rungCore, rungNet},
		"query-batch":    {rungClient, rungTransport, rungFront, rungCore, rungNet},
		"update-batch":   {rungClient, rungTransport, rungFront, rungCore, rungNet},
		"update-generic": {rungClient, rungFront, rungCore, rungNet},
		"zipf-cached":    {rungClient, rungFront, rungCore, rungNet},
		"rpc":            {rungClient, rungWire, rungCore, rungNet},
	}
	cfg := runConfig{seed: 1, toy: true, outDir: t.TempDir(), machine: fingerprint{CalibNs: 1, TimerNs: 1}}
	for _, w := range suite {
		res, _, err := traceLadder(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d wrong answers in the traced run: %v", w.Name, res.Failed, res.Failures)
		}
		data, err := os.ReadFile(res.SpanFile)
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatalf("%s: span file: %v", w.Name, err)
		}
		for _, s := range spans {
			if s.End < s.Start || s.Name == "" || (s.Parent == "") != (s.Rung == rungClient) {
				t.Fatalf("%s: malformed span %+v", w.Name, s)
			}
		}
		ids := opIDsByRung(spans)
		if len(ids) != len(crosses[w.Name]) {
			t.Errorf("%s: spans on %d rungs, want %v", w.Name, len(ids), crosses[w.Name])
		}
		calls := len(ids[rungClient])
		for _, rung := range crosses[w.Name] {
			got := ids[rung]
			partial := w.Name == "zipf-cached" && (rung == rungCore || rung == rungNet)
			if len(got) == 0 || (!partial && len(got) != calls) {
				t.Errorf("%s: rung %s has %d spans for %d calls", w.Name, rung, len(got), calls)
			}
			for i, id := range got {
				if !partial && id != i {
					t.Errorf("%s: rung %s is missing op %d", w.Name, rung, i)
					break
				}
			}
		}
		if res.SelfSumOverClient <= 0 {
			t.Errorf("%s: ladder self times sum to %v of the client rung", w.Name, res.SelfSumOverClient)
		}
	}
}

// One traced run reports every per-layer metric of the table.
func TestTraceEmitsEveryLayerMetric(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI(t, "-workload", "update-batch", "-toy", "-trace", "-outdir", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var last contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if v, ok := last.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("per-layer metric %s: got %+v (present %v), want unit %q", d.Name, v, ok, d.Unit)
		}
	}
	if len(last.Metrics) != len(perLayer) {
		t.Errorf("traced run printed %d metrics, the table has %d", len(last.Metrics), len(perLayer))
	}
	if v := last.Metrics["serve.counter_parity"].Value; v != 1 {
		t.Errorf("serve.counter_parity = %v", v)
	}
}

// Bad input is a one-line error and exit 1, never a panic.
func TestCLIErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{},
		{"-no-such-flag"},
		{"-workload", "rpc", "-trace", "2"},
		{"-workload", "rpc", "-seed", "minus-one"},
		{"-workload", "rpc", "stray"},
		{"-compare", "only-one.json"},
		{"-compare", "missing-a.json", "missing-b.json"},
	} {
		code, stdout, stderr := runCLI(t, args...)
		if code != 1 || !strings.HasPrefix(stderr, "benchmark: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: exit %d, stderr %q", args, code, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: printed a result: %q", args, stdout)
		}
	}
}

func TestBareTraceFlag(t *testing.T) {
	for in, want := range map[string]string{
		"-workload rpc -trace":            "-workload rpc -trace 1",
		"-trace -workload rpc":            "-trace 1 -workload rpc",
		"--workload rpc --trace 0":        "--workload rpc --trace 0",
		"--trace 1 --workload rpc":        "--trace 1 --workload rpc",
		"-workload rpc -trace -seconds 5": "-workload rpc -trace 1 -seconds 5",
	} {
		if got := strings.Join(bareTrace(strings.Fields(in)), " "); got != want {
			t.Errorf("bareTrace(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	def := func(name string) metricDef {
		for _, d := range endToEnd {
			if d.Name == name {
				return d
			}
		}
		t.Fatalf("no metric %s", name)
		return metricDef{}
	}
	steady := func(v float64) metricValue {
		return metricValue{Value: v, Passes: []float64{v * 0.99, v, v, v, v * 1.01}}
	}
	noisy := func(v float64) metricValue {
		return metricValue{Value: v, Passes: []float64{v * 0.7, v * 0.8, v, v * 1.2, v * 1.3}}
	}
	for _, c := range []struct {
		metric string
		a, b   metricValue
		want   string
	}{
		{"ops_per_s", steady(1000), steady(1050), "unchanged"},
		{"ops_per_s", steady(1000), steady(850), "regressed"},
		{"ops_per_s", steady(1000), steady(1200), "improved"},
		{"ops_per_s", noisy(1000), noisy(850), "unresolved"},
		{"call_p50_us", steady(10), steady(12), "regressed"},
		{"call_p50_us", steady(10), steady(8), "improved"},
		{"msgs_per_op", metricValue{Value: 12.5}, metricValue{Value: 12.5}, "unchanged"},
		{"msgs_per_op", metricValue{Value: 12.5}, metricValue{Value: 12.5001}, "regressed"},
		{"max_host_share", metricValue{Value: 0.02}, metricValue{Value: 0.019}, "improved"},
		{"allocs_per_op", steady(0), metricValue{Value: 0.04, Passes: []float64{0.04, 0.04, 0.04}}, "unchanged"}, // inside the absolute bound
		{"allocs_per_op", steady(0), metricValue{Value: 0.5, Passes: []float64{0.5, 0.5, 0.5}}, "regressed"},
		{"allocs_per_op", steady(60), steady(61), "unchanged"},
		{"allocs_per_op", steady(60), steady(62), "regressed"},
	} {
		if got := judge(def(c.metric), c.a, c.b); got != c.want {
			t.Errorf("%s: A %v, B %v: verdict %s, want %s", c.metric, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

// -compare reads two real documents and prints a row per shared metric.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.json", "b.json"} {
		code, _, stderr := runCLI(t, "-workload", "update-batch", "-toy", "-seconds", "2", "-out", filepath.Join(dir, name), "-outdir", dir)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
	}
	code, stdout, stderr := runCLI(t, "-compare", filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, d := range endToEnd {
		if !strings.Contains(stdout, "\n  "+d.Name+" ") {
			t.Errorf("report has no row for %s:\n%s", d.Name, stdout)
		}
	}
	for _, exact := range []string{"msgs_per_op", "max_host_share", "fail_share"} {
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, "  "+exact+" ") && !strings.Contains(line, "unchanged (exact)") {
				t.Errorf("same-seed runs disagree on a count: %s", line)
			}
		}
	}
}

// quartiles is the acceptance check's statistic: it has to agree with
// Python's statistics.quantiles(vs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5}, // Python extrapolates at n=2: q1 = 10-2.5, q3 = 20+2.5
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
	} {
		q1, q3 := quartiles(c.vs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

// BENCHMARK.json at the repository root is the driver's view of this
// package's tables: same workloads, same per-layer metrics, and the
// end-to-end metrics that are never zero.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(suite) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the suite has %d", len(bm.Workloads), len(suite))
	}
	for i, w := range suite {
		if bm.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the suite", i, bm.Workloads[i].Name, w.Name)
		}
		if len(bm.Workloads[i].Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(bm.Workloads[i].Why))
		}
	}
	if bm.RunSeconds < minPasses {
		t.Errorf("run_seconds %d is below the pass floor %d", bm.RunSeconds, minPasses)
	}
	table := map[string]metricDef{}
	for _, d := range endToEnd {
		table[d.Name] = d
	}
	for _, m := range bm.EndToEnd {
		d, ok := table[m.Name]
		if !ok || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("end-to-end metric %+v does not match the table entry %+v", m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || d.Ungated {
			t.Errorf("end-to-end metric %s: bound %v, ungated: %v", m.Name, m.Bound, d.Ungated)
		}
		delete(table, m.Name)
	}
	for name, d := range table {
		if !d.Ungated { // those travel as failed/attempted, client.allocs_per_op and client.call_p99_us
			t.Errorf("end-to-end metric %s is missing from BENCHMARK.json", name)
		}
	}
	if len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the table has %d", len(bm.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := bm.PerLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the table", i, m, d)
		}
	}
}
