package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBenchJSONSmoke(t *testing.T) {
	// Cap the in-process testing.Benchmark iterations so the smoke test
	// does not spend the default 1s per micro-benchmark.
	if f := flag.Lookup("test.benchtime"); f != nil {
		old := f.Value.String()
		if err := flag.Set("test.benchtime", "8x"); err == nil {
			defer flag.Set("test.benchtime", old)
		}
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	var out strings.Builder
	if err := run([]string{"-mode", "bench", "-quick", "-keys", "128", "-hosts", "16", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"query/blocked-floor", "local/listlevel-locate-binary", "msgs/op", "wrote "} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in bench output:\n%s", want, got)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Mode    string `json:"mode"`
		Results []struct {
			Name    string  `json:"name"`
			NsPerOp float64 `json:"ns_per_op"`
			OpsSec  float64 `json:"ops_per_sec"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("bench JSON does not parse: %v", err)
	}
	if doc.Mode != "bench" || len(doc.Results) < 6 {
		t.Fatalf("bench JSON incomplete: mode=%q results=%d", doc.Mode, len(doc.Results))
	}
	for _, r := range doc.Results {
		if r.Name == "" || r.NsPerOp <= 0 {
			t.Fatalf("bench JSON has empty record: %+v", r)
		}
	}
}

func TestCheckBaseline(t *testing.T) {
	doc := benchDoc{Results: []benchRecord{
		{Name: "query/x", AllocsOp: 0, MsgsOp: 10},
		{Name: "update/x", AllocsOp: 2, MsgsOp: 30},
	}}
	write := func(body string) string {
		p := filepath.Join(t.TempDir(), "base.json")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out strings.Builder

	ok := write(`{"ceilings":[
		{"name":"query/x","max_allocs_per_op":0,"max_msgs_per_op":11},
		{"name":"update/x","max_allocs_per_op":2,"max_msgs_per_op":33}]}`)
	if err := checkBaseline(&out, doc, ok); err != nil {
		t.Fatalf("ceilings that hold reported a regression: %v", err)
	}

	regress := write(`{"ceilings":[{"name":"update/x","max_allocs_per_op":1}]}`)
	if err := checkBaseline(&out, doc, regress); err == nil {
		t.Fatal("exceeded allocs ceiling not reported")
	}

	msgs := write(`{"ceilings":[{"name":"update/x","max_msgs_per_op":29.5}]}`)
	if err := checkBaseline(&out, doc, msgs); err == nil {
		t.Fatal("exceeded msgs ceiling not reported")
	}

	missing := write(`{"ceilings":[{"name":"update/vanished","max_allocs_per_op":1}]}`)
	if err := checkBaseline(&out, doc, missing); err == nil {
		t.Fatal("missing benchmark row (guard erosion) not reported")
	}
}

func TestRunExperimentQuickSmoke(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-experiment", "lemma1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "=== E2: Lemma 1 ===") {
		t.Fatalf("missing experiment header in output:\n%s", got)
	}
	if len(strings.TrimSpace(strings.TrimPrefix(got, "=== E2: Lemma 1 ==="))) == 0 {
		t.Fatalf("empty report body:\n%s", got)
	}
}

func TestRunFiguresSmoke(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-experiment", "figures"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"=== F1: Figure 1 ===", "=== F2: Figure 2 ===", "=== F4: Figure 4 ==="} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in output:\n%s", want, got)
		}
	}
}

func TestRunChurnSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "churn.json")
	var out strings.Builder
	err := run([]string{
		"-mode", "churn", "-quick",
		"-hosts", "16", "-keys", "256", "-queries", "600",
		"-churn-rates", "0,0.02", "-json", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"=== C1: host churn", "zero lost keys", "wrote "} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in churn output:\n%s", want, got)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Mode string `json:"mode"`
		Rows []struct {
			Rate        float64 `json:"rate"`
			Events      int     `json:"events"`
			ChurnMsgs   int64   `json:"churn_msgs_total"`
			QueryMsgsOp float64 `json:"query_msgs_per_op"`
			StorageMax  int64   `json:"storage_max"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("churn JSON does not parse: %v", err)
	}
	if doc.Mode != "churn" || len(doc.Rows) != 2 {
		t.Fatalf("churn JSON incomplete: mode=%q rows=%d", doc.Mode, len(doc.Rows))
	}
	if doc.Rows[0].Events != 0 || doc.Rows[0].ChurnMsgs != 0 {
		t.Fatalf("rate-0 row should have no churn: %+v", doc.Rows[0])
	}
	if doc.Rows[1].Events == 0 || doc.Rows[1].ChurnMsgs == 0 {
		t.Fatalf("churn row recorded no migration traffic: %+v", doc.Rows[1])
	}
	for _, r := range doc.Rows {
		if r.QueryMsgsOp <= 0 || r.StorageMax <= 0 {
			t.Fatalf("churn row has empty metrics: %+v", r)
		}
	}
}

func TestRunFailoverSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "failover.json")
	var out strings.Builder
	err := run([]string{
		"-mode", "failover", "-quick",
		"-hosts", "12", "-keys", "192", "-queries", "360",
		"-replicas", "1,2", "-crashes", "2", "-json", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"=== F1: crash failover", "zero lost keys", "wrote "} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in failover output:\n%s", want, got)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Mode string `json:"mode"`
		Rows []struct {
			Replicas        int     `json:"replicas"`
			Crashes         int     `json:"crashes"`
			Availability    float64 `json:"availability"`
			Matched         bool    `json:"answers_match_control"`
			LostUnits       int     `json:"lost_units"`
			RepairMsgsEvent float64 `json:"repair_msgs_per_event"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("failover JSON does not parse: %v", err)
	}
	if doc.Mode != "failover" || len(doc.Rows) != 2 {
		t.Fatalf("failover JSON incomplete: mode=%q rows=%d", doc.Mode, len(doc.Rows))
	}
	k1, k2 := doc.Rows[0], doc.Rows[1]
	if k1.Replicas != 1 || k2.Replicas != 2 {
		t.Fatalf("rows out of order: %+v", doc.Rows)
	}
	if k1.Crashes == 0 || k2.Crashes == 0 {
		t.Fatalf("no crashes recorded: %+v", doc.Rows)
	}
	// k=1 crashes lose data; k=2 must tolerate them completely.
	if k1.LostUnits == 0 || k1.Availability >= 1.0 {
		t.Fatalf("k=1 row shows no loss (crash had no effect): %+v", k1)
	}
	if k2.LostUnits != 0 || k2.Availability != 1.0 || !k2.Matched {
		t.Fatalf("k=2 row violates the tolerance contract: %+v", k2)
	}
	if k2.RepairMsgsEvent <= 0 {
		t.Fatalf("k=2 repair charged no messages: %+v", k2)
	}
}

// TestRunFailoverValidatesFlags covers failover's own checks and, for
// every mode, the two rules the mode table enforces before anything is
// built: sizes under the mode's minimum are refused with the flag named
// (a zero -queries used to panic skew and print NaN rows under churn and
// failover), and so is an explicitly set flag the mode does not read
// (-mode churn -replicas 3 used to report k = 1 numbers).
func TestRunFailoverValidatesFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the error
	}{
		{"-mode failover -replicas 0", "-replicas"},
		{"-mode failover -hosts 4", "-hosts must be >= 8"},
		{"-mode failover -crashes 0", "-crashes"},
		{"-mode failover -queries 0", "-queries must be >= 1"},
		{"-mode failover -restart -replicas 1,2", "-replicas"},
		{"-mode failover -restart -keys 128", "-keys must be >= 256"},
		{"-mode skew -queries 0", "-queries must be >= 1"},
		{"-mode churn -queries 0 -json f.json", "-queries must be >= 1"},
		{"-mode churn -hosts 2", "-hosts must be >= 4"},
		{"-mode bench -keys 32", "-keys must be >= 64"},
		{"-mode wire -hosts 1", "-hosts must be >= 2"},

		{"-mode churn -replicas 3", "does not read -replicas"},
		{"-mode experiments -json f.json", "does not read -json"},
		{"-json f.json", "does not read -json"},
		{"-mode churn -baseline b.json", "does not read -baseline"},
		{"-mode skew -baseline b.json", "does not read -baseline"},
		{"-mode scale -baseline b.json", "does not read -baseline"},
		{"-mode wire -baseline b.json", "does not read -baseline"},
		{"-mode failover -baseline b.json", "does not read -baseline"},
		{"-mode failover -restart -crashes 2", "-mode failover -restart does not read -crashes"},
		{"-mode churn -restart", "does not read -restart"},
		{"-mode scale -hosts 64 -keys 128", "does not read -hosts, -keys"},
		{"-mode bench -queries 10", "does not read -queries"},
	} {
		var out strings.Builder
		err := run(strings.Fields(tc.args), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed before refusing:\n%s", tc.args, out.String())
		}
	}
}

// TestCommittedRecordsReproduce regenerates the committed accounting
// records at their recorded flags and byte-compares them: message counts
// repeat exactly per seed, so a diff means the fixture's draw order or
// the replica/cache accounting changed.
func TestCommittedRecordsReproduce(t *testing.T) {
	for record, args := range map[string][]string{
		"BENCH_FAILOVER_PR5.json": {"-mode", "failover", "-hosts", "64", "-keys", "4096", "-queries", "12000",
			"-replicas", "1,2,3", "-crashes", "6", "-seed", "1"},
		"BENCH_RECOVERY_PR7.json": {"-mode", "failover", "-restart", "-hosts", "32", "-keys", "8192",
			"-replicas", "2,3", "-seed", "1", "-baseline", "../../bench_baseline.json"},
		"BENCH_SKEW_PR9.json": {"-mode", "skew", "-hosts", "64", "-keys", "4096", "-queries", "8000"},
	} {
		t.Run(record, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", record))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), record)
			var out strings.Builder
			if err := run(append(args, "-json", path), &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("regenerated %s differs from the committed record", record)
			}
		})
	}
}

func TestRunRejectsUnknownModeAndExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mode", "nope"}, &out); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := run([]string{"-experiment", "nope"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
