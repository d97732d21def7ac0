package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/skipwebs/skipwebs/internal/xrand"
)

func TestParseLatencyModel(t *testing.T) {
	good := map[string]string{
		"none":            "none",
		"fixed:3":         "fixed(3)",
		"uniform:2:9":     "uniform[2,9]",
		"lognormal:4.6:1": "lognormal(mu=4.6,sigma=1)",
		"twolevel:8":      "twolevel(rack=8,",
		"twolevel":        "twolevel(rack=64,",
	}
	for spec, wantPrefix := range good {
		m, err := parseLatencyModel(spec, 1)
		if err != nil {
			t.Fatalf("spec %q rejected: %v", spec, err)
		}
		if got := modelName(m); !strings.HasPrefix(got, wantPrefix) {
			t.Fatalf("spec %q named %q, want prefix %q", spec, got, wantPrefix)
		}
	}
	for _, spec := range []string{
		"", "gaussian", "none:1", "fixed", "fixed:-1", "fixed:x",
		"uniform:5", "uniform:9:2", "uniform:-1:3",
		"lognormal:1", "lognormal:a:b", "lognormal:1:-0.5",
		"twolevel:0", "twolevel:x", "twolevel:8:9",
	} {
		if _, err := parseLatencyModel(spec, 1); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
}

func TestScaleKeysDistinctAscending(t *testing.T) {
	keys := scaleKeys(xrand.New(1), 100000)
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("keys[%d] = %d <= keys[%d] = %d", i, keys[i], i-1, keys[i-1])
		}
	}
	if keys[len(keys)-1] >= 1<<40 {
		t.Fatalf("key %d outside the 2^40 key space", keys[len(keys)-1])
	}
}

func TestRunScaleValidatesFlags(t *testing.T) {
	var out strings.Builder
	for name, args := range map[string][]string{
		"bad scale-hosts":  {"-mode", "scale", "-scale-hosts", "0"},
		"junk scale-hosts": {"-mode", "scale", "-scale-hosts", "16,x"},
		"bad scale-keys":   {"-mode", "scale", "-scale-keys", "32"},
		"no queries":       {"-mode", "scale", "-queries", "0"},
		"bad latency":      {"-mode", "scale", "-latency", "gaussian"},
		"bad latency args": {"-mode", "scale", "-latency", "uniform:9:2"},
		"negative wall":    {"-mode", "scale", "-max-wall", "-1s"},
		"unread flag":      {"-mode", "scale", "-crash-fracs", "0.1"},
	} {
		if err := run(args, &out); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestRunCampaignValidatesFlags(t *testing.T) {
	var out strings.Builder
	for name, args := range map[string][]string{
		"few hosts":        {"-mode", "campaign", "-hosts", "4"},
		"few keys":         {"-mode", "campaign", "-keys", "128"},
		"no queries":       {"-mode", "campaign", "-queries", "2"},
		"bad replicas":     {"-mode", "campaign", "-replicas", "0"},
		"bad crash-fracs":  {"-mode", "campaign", "-crash-fracs", "0"},
		"big crash-fracs":  {"-mode", "campaign", "-crash-fracs", "0.95"},
		"junk fracs":       {"-mode", "campaign", "-crash-fracs", "0.1,x"},
		"bad latency":      {"-mode", "campaign", "-latency", "fixed:-2"},
		"bad skew-s":       {"-mode", "campaign", "-skew-s", "x"},
		"bad absent":       {"-mode", "campaign", "-skew-absent", "1.5"},
		"negative wall":    {"-mode", "campaign", "-max-wall", "-1s"},
		"junk skew-s tail": {"-mode", "campaign", "-skew-s", "1.0,x"},
		"unread flag":      {"-mode", "campaign", "-churn-rates", "0"},
	} {
		if err := run(args, &out); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestRunScaleSmall runs a tiny sweep end-to-end and checks the JSON
// document: every cell carries positive message and latency costs under
// the default two-level model, infeasible cells are logged as skips,
// and the lazy worker count never exceeds the host count.
func TestRunScaleSmall(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "scale.json")
	var out strings.Builder
	err := run([]string{
		"-mode", "scale", "-scale-hosts", "8,16", "-scale-keys", "128,1024",
		"-queries", "64", "-json", jsonPath,
	}, &out)
	if err != nil {
		t.Fatalf("scale run failed: %v\n%s", err, out.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc scaleDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Mode != "scale" || !strings.HasPrefix(doc.Model, "twolevel(") {
		t.Fatalf("doc header wrong: mode %q model %q", doc.Mode, doc.Model)
	}
	// 2 host counts x 2 key counts x 3 structures, nothing skipped.
	if len(doc.Rows) != 12 || len(doc.Skipped) != 0 {
		t.Fatalf("got %d rows, %d skips, want 12 and 0: %v", len(doc.Rows), len(doc.Skipped), doc.Skipped)
	}
	for _, r := range doc.Rows {
		if r.QueryMsgsOp <= 0 {
			t.Errorf("%s h=%d n=%d: msgs/op %g, want positive", r.Structure, r.Hosts, r.Keys, r.QueryMsgsOp)
		}
		if r.LatencyP50 <= 0 || r.LatencyP99 < r.LatencyP50 || r.LatencyMax < r.LatencyP99 {
			t.Errorf("%s h=%d n=%d: quantiles out of order: p50 %d p99 %d max %d",
				r.Structure, r.Hosts, r.Keys, r.LatencyP50, r.LatencyP99, r.LatencyMax)
		}
		if r.Workers < 1 || r.Workers > r.Hosts {
			t.Errorf("%s h=%d n=%d: workers %d outside [1, hosts]", r.Structure, r.Hosts, r.Keys, r.Workers)
		}
	}
}

// TestRunScaleSkipsInfeasibleCells: a cell with fewer keys than hosts
// is skipped with a logged reason, never run and never silent.
func TestRunScaleSkipsInfeasibleCells(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "scale.json")
	var out strings.Builder
	err := run([]string{
		"-mode", "scale", "-scale-hosts", "8,512", "-scale-keys", "256",
		"-queries", "32", "-latency", "none", "-json", jsonPath,
	}, &out)
	if err != nil {
		t.Fatalf("scale run failed: %v\n%s", err, out.String())
	}
	var doc scaleDoc
	raw, _ := os.ReadFile(jsonPath)
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Rows) != 3 {
		t.Fatalf("got %d rows, want 3 (hosts=8 only)", len(doc.Rows))
	}
	if len(doc.Skipped) != 1 || !strings.Contains(doc.Skipped[0], "fewer keys than hosts") {
		t.Fatalf("skips = %v, want one fewer-keys-than-hosts entry", doc.Skipped)
	}
	for _, r := range doc.Rows {
		if r.LatencyP50 != 0 || r.LatencyMax != 0 {
			t.Errorf("%s: nonzero latency %d/%d under -latency none", r.Structure, r.LatencyP50, r.LatencyMax)
		}
	}
	if !strings.Contains(out.String(), "skip:") {
		t.Fatal("skipped cell not reported on stdout")
	}
}

// TestRunScaleMaxWall: an already-exhausted budget runs nothing and
// reports the truncation as an error rather than an empty success.
func TestRunScaleMaxWall(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-mode", "scale", "-scale-hosts", "8", "-scale-keys", "128",
		"-queries", "8", "-max-wall", "1ns",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "no scale cells ran") {
		t.Fatalf("exhausted -max-wall returned %v, want a no-cells error", err)
	}
	if !strings.Contains(out.String(), "-max-wall") {
		t.Fatal("truncation not explained on stdout")
	}
}

// TestRunCampaignSmall runs one tiny campaign round and checks the
// document shape: skew and churn phases measured, every crash fraction
// recorded, and k = 1 breaking at the first fraction (any crash loses
// data with one replica).
func TestRunCampaignSmall(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "campaign.json")
	var out strings.Builder
	err := run([]string{
		"-mode", "campaign", "-hosts", "16", "-keys", "512", "-queries", "120",
		"-replicas", "1", "-crash-fracs", "0.25", "-json", jsonPath,
	}, &out)
	if err != nil {
		t.Fatalf("campaign run failed: %v\n%s", err, out.String())
	}
	var doc campaignDoc
	raw, _ := os.ReadFile(jsonPath)
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Mode != "campaign" || len(doc.Rows) != 1 {
		t.Fatalf("doc: mode %q rows %d, want campaign/1", doc.Mode, len(doc.Rows))
	}
	row := doc.Rows[0]
	if row.Replicas != 1 || row.SkewMsgsOp <= 0 || row.ChurnEvents == 0 {
		t.Fatalf("row misshaped: %+v", row)
	}
	if row.SkewLatencyP99 < row.SkewLatencyP50 || row.SkewLatencyP50 <= 0 {
		t.Fatalf("skew latency quantiles wrong: p50 %d p99 %d", row.SkewLatencyP50, row.SkewLatencyP99)
	}
	if len(row.Crashes) != 1 || row.Crashes[0].Crashed != 4 {
		t.Fatalf("crash cells %+v, want one cell crashing ceil(0.25*16) = 4 hosts", row.Crashes)
	}
	if row.Crashes[0].LostUnits <= 0 || len(row.BreakFrac) == 0 {
		t.Fatalf("k=1 crash of 4/16 hosts lost nothing: %+v", row.Crashes[0])
	}
	for s, f := range row.BreakFrac {
		if f != 0.25 {
			t.Errorf("structure %s breaking frac %g, want 0.25", s, f)
		}
	}
}
