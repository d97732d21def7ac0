package main

import (
	"math"
	"sort"
)

// metricDef names one metric of the benchmark: what it is called, the unit
// it is printed with, which direction is better, and — for end-to-end
// metrics — the share of the baseline's value by which it may worsen
// before -compare calls the change a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening that counts as a regression. Zero
	// means the metric is a count that repeats exactly per seed and is
	// compared exactly.
	Bound float64
	// AbsBound, when non-zero, widens Bound to this absolute amount where
	// the relative bound would be smaller (allocs_per_op near zero).
	AbsBound float64
	// Ungated marks a metric the driver's contract (BENCHMARK.json's
	// end_to_end list, the last line of standard output) leaves out. The
	// contract takes only metrics that are never zero, which allocs_per_op
	// and fail_share legitimately are, and only metrics that ten runs of
	// one commit repeat to within a bound of at most 0.25, which
	// call_p99_us on a shared host does not (README.md has the numbers).
	// They are measured, printed and compared by -compare like the rest;
	// the traced run reports the first and the last per layer, as
	// client.allocs_per_op and client.call_p99_us.
	Ungated bool
}

// endToEnd is the metric table of README.md: nine metrics, each reported
// on every workload. BENCHMARK.json carries the six of them that are not
// Ungated (fail_share travels there as failed/attempted);
// TestBenchmarkJSONMatchesTables pins the two lists to each other.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.10},
	{Name: "call_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "call_p99_us", Unit: "us", Better: "lower", Bound: 0.15, Ungated: true},
	{Name: "msgs_per_op", Unit: "msgs/op", Better: "lower", Bound: 0},
	{Name: "max_host_share", Unit: "ratio", Better: "lower", Bound: 0},
	{Name: "allocs_per_op", Unit: "allocs/op", Better: "lower", Bound: 0.02, AbsBound: 0.05, Ungated: true},
	{Name: "heap_bytes_per_item", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "fail_share", Unit: "ratio", Better: "lower", Bound: 0, Ungated: true},
}

// metricValue is one reported number with everything needed to compare it
// later: the per-pass raw values behind a median, and the sample count
// behind a percentile.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better,omitempty"`
	Bound   float64   `json:"bound"`
	Passes  []float64 `json:"passes,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// median returns the middle value of vs (mean of the two middle values for
// an even count); vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vs by the exclusive
// method — the same cut points Python's statistics.quantiles(vs, n=4)
// gives, which is what the acceptance check of this benchmark uses.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		if n == 1 {
			return vs[0], vs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentileU32 returns the q-quantile (nearest rank) of sorted samples.
func percentileU32(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}
