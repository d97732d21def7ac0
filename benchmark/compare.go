package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// compareFiles prints, for every (workload, metric) two result documents
// share, both medians with the quartiles of their per-pass values, the
// ratio with its base, and a verdict against the metric's bound.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base A = %s (seed %d, %s)\n     B = %s (seed %d, %s)\n", pathA, a.Seed, a.Machine.CPUModel, pathB, b.Seed, b.Machine.CPUModel)
	if a.Machine.CalibNs > 0 && b.Machine.CalibNs > 0 {
		fmt.Fprintf(w, "machine.calib_ns A %.1f, B %.1f (B/A %.3f); machine.timer_ns A %.1f, B %.1f\n",
			a.Machine.CalibNs, b.Machine.CalibNs, b.Machine.CalibNs/a.Machine.CalibNs, a.Machine.TimerNs, b.Machine.TimerNs)
	}
	counts := map[string]int{}
	for _, ra := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(rb workloadResult) bool { return rb.Name == ra.Name })
		if i < 0 {
			continue
		}
		rb := b.Workloads[i]
		fmt.Fprintf(w, "\n== %s ==\n", ra.Name)
		fmt.Fprintf(w, "  %-20s %-10s %14s %-27s %14s %-27s %9s  %s\n", "metric", "unit", "A", "[q1, q3]", "B", "[q1, q3]", "B/A", "verdict (bound)")
		for _, d := range endToEnd {
			va, okA := ra.Metrics[d.Name]
			vb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			verdict := judge(d, va, vb)
			counts[verdict]++
			ratio := math.NaN()
			if va.Value != 0 {
				ratio = vb.Value / va.Value
			}
			fmt.Fprintf(w, "  %-20s %-10s %14.6g %-27s %14.6g %-27s %9.4f  %s (%s)\n",
				d.Name, d.Unit, va.Value, spreadOf(va), vb.Value, spreadOf(vb), ratio, verdict, boundText(d))
		}
	}
	fmt.Fprintf(w, "\n%d regressed, %d improved, %d unchanged, %d unresolved\n",
		counts["regressed"], counts["improved"], counts["unchanged"], counts["unresolved"])
	return nil
}

func readDocument(path string) (document, error) {
	var doc document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schema {
		return doc, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, schema)
	}
	return doc, nil
}

func spreadOf(v metricValue) string {
	if len(v.Passes) < 2 {
		return "-"
	}
	q1, q3 := quartiles(v.Passes)
	return fmt.Sprintf("[%.6g, %.6g]", q1, q3)
}

func boundText(d metricDef) string {
	switch {
	case d.Bound == 0:
		return "exact"
	case d.AbsBound > 0:
		return fmt.Sprintf("%g or %g abs", d.Bound, d.AbsBound)
	}
	return fmt.Sprint(d.Bound)
}

// judge compares B against base A. Counts (bound 0) are compared exactly.
// Otherwise the change is unresolved when either side's pass-to-pass
// spread (interquartile range over median) exceeds the bound and the two
// sides' per-pass ranges overlap: the benchmark cannot tell such runs
// apart. Failing that, B regressed or improved if it moved past the bound
// in that direction, and is unchanged if it stayed inside.
func judge(d metricDef, a, b metricValue) string {
	worse := b.Value - a.Value // how much worse B is, in the metric's unit
	if d.Better == "higher" {
		worse = -worse
	}
	if d.Bound == 0 {
		switch {
		case worse > 0:
			return "regressed"
		case worse < 0:
			return "improved"
		}
		return "unchanged"
	}
	limit := math.Max(d.Bound*math.Abs(a.Value), d.AbsBound)
	if (relSpread(a) > d.Bound || relSpread(b) > d.Bound) && overlap(a.Passes, b.Passes) {
		return "unresolved"
	}
	switch {
	case worse > limit:
		return "regressed"
	case worse < -limit:
		return "improved"
	}
	return "unchanged"
}

func relSpread(v metricValue) float64 {
	if len(v.Passes) < 2 {
		return 0
	}
	m := median(v.Passes)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v.Passes)
	return (q3 - q1) / math.Abs(m)
}

func overlap(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	return slices.Min(a) <= slices.Max(b) && slices.Min(b) <= slices.Max(a)
}
