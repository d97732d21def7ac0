package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// runConfig is everything a run takes from the command line.
type runConfig struct {
	seed   uint64 // generates the op stream; dataSeed generates what is stored
	passes int    // measured passes
	setups int    // timed set-ups; the median is reported
	toy    bool   // self-test scale: numbers are not comparable with anything
	outDir string
	// machine is measured once per process; the traced run reports its
	// calibration rows among the per-layer metrics.
	machine fingerprint
}

// workloadResult is one workload's section of an output file.
type workloadResult struct {
	Name         string `json:"name"`
	Why          string `json:"why"`
	Call         string `json:"call"`
	Round        string `json:"round"`
	Sizing       sizing `json:"sizing"`
	Items        int    `json:"items"`
	Passes       int    `json:"passes"`
	OpsPerPass   int    `json:"ops_per_pass"`
	CallsPerPass int    `json:"calls_per_pass"`
	// Attempted counts every op whose answer was checked (warm-up
	// included) plus the end-state checks; Failed those that errored or
	// disagreed with the oracle.
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics,omitempty"`
	// traced runs only
	PerLayer          map[string]metricValue `json:"per_layer,omitempty"`
	Rungs             []rungSummary          `json:"rungs,omitempty"`
	SelfSumOverClient float64                `json:"self_sum_over_client,omitempty"`
	SpanFile          string                 `json:"span_file,omitempty"`
}

func (r *workloadResult) fail(n int, err error) {
	r.Failed += int64(n)
	if err != nil && len(r.Failures) < 8 {
		r.Failures = append(r.Failures, err.Error())
	}
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func newResult(w workload, sz sizing) workloadResult {
	return workloadResult{Name: w.Name, Why: w.Why, Call: w.Call, Round: w.Round, Sizing: sz}
}

func (w workload) sizing(toy bool) sizing {
	if toy {
		return w.Toy
	}
	return w.Full
}

// runWorkload is the untraced run every end-to-end number comes from:
// timed set-up, one discarded warm-up pass (which also starts the lazy
// per-host workers), then cfg.passes measured passes of frozen op counts,
// then the remaining timed set-ups. Every answer is checked between
// passes, outside the timed region, and a collection that is about to
// become due is run there too.
func runWorkload(w workload, cfg runConfig) (workloadResult, error) {
	sz := w.sizing(cfg.toy)
	res := newResult(w, sz)
	res.Passes = cfg.passes
	build := w.prepare(sz, cfg.seed)

	runtime.GC()
	heap0 := heapAlloc()
	buildTimed := func() (instance, float64, error) {
		start := time.Now()
		inst, err := build()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		return inst, time.Since(start).Seconds(), nil
	}
	inst, setup, err := buildTimed()
	if err != nil {
		return res, err
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()
	runtime.GC()
	heap1 := heapAlloc()
	res.Items = inst.items()

	// collectIfDue keeps collections out of the timed region: it forces one
	// now if the heap is close enough to the collector's trigger that the
	// coming pass — taken to allocate about what the last one did — could
	// set it off. A pass that allocates more than the whole headroom still
	// collects inside the timed region, as it would for any caller.
	var ms runtime.MemStats
	var passBytes uint64
	collectIfDue := func() {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc+2*passBytes+16<<20 > ms.NextGC {
			runtime.GC()
			runtime.ReadMemStats(&ms)
		}
	}

	// warm-up
	ops, calls := inst.load(0)
	res.OpsPerPass, res.CallsPerPass = ops, calls
	collectIfDue()
	before := ms.TotalAlloc
	inst.run(make([]uint32, 0, calls))
	runtime.ReadMemStats(&ms)
	passBytes = ms.TotalAlloc - before
	failed, first := inst.check()
	res.Attempted += int64(ops)
	res.fail(failed, first)
	if err := inst.resetTraffic(); err != nil {
		return res, fmt.Errorf("%s: %w", w.Name, err)
	}

	lat := make([]uint32, 0, calls*cfg.passes)
	var (
		opsPerS, msgsPerOp, allocsPerOp []float64
		totalOps, totalAllocs, prevMsgs int64
	)
	for p := 1; p <= cfg.passes; p++ {
		ops, _ := inst.load(p)
		collectIfDue()
		m0, b0 := ms.Mallocs, ms.TotalAlloc
		var wall time.Duration
		lat, wall = inst.run(lat)
		runtime.ReadMemStats(&ms)
		allocs := int64(ms.Mallocs - m0)
		passBytes = ms.TotalAlloc - b0

		failed, first := inst.check()
		res.Attempted += int64(ops)
		res.fail(failed, first)
		msgs, _, err := inst.traffic()
		if err != nil {
			return res, fmt.Errorf("%s: %w", w.Name, err)
		}
		totalOps += int64(ops)
		totalAllocs += allocs
		opsPerS = append(opsPerS, float64(ops)/wall.Seconds())
		msgsPerOp = append(msgsPerOp, float64(msgs-prevMsgs)/float64(ops))
		allocsPerOp = append(allocsPerOp, float64(allocs)/float64(ops))
		prevMsgs = msgs
	}
	msgs, share, err := inst.traffic()
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.Name, err)
	}
	for _, err := range inst.finish() {
		res.Attempted++
		res.fail(1, err)
	}
	p50s, p99s := windowPercentiles(lat, cfg.passes)
	perWindow := len(lat) / len(p50s)

	// The other timed set-ups come after the passes, each on the heap the
	// one before it left behind, so that the passes run on the heap of a
	// process that has built its structures once, as a user's would.
	inst.close()
	closed = true
	setups := []float64{setup}
	for len(setups) < cfg.setups {
		runtime.GC()
		again, s, err := buildTimed()
		if err != nil {
			return res, err
		}
		again.close()
		setups = append(setups, s)
	}

	value := map[string]metricValue{
		"setup_s":             {Value: median(setups), Passes: setups},
		"ops_per_s":           {Value: median(opsPerS), Passes: opsPerS},
		"call_p50_us":         {Value: median(p50s), Passes: p50s, Samples: perWindow},
		"call_p99_us":         {Value: median(p99s), Passes: p99s, Samples: perWindow},
		"msgs_per_op":         {Value: float64(msgs) / float64(totalOps), Passes: msgsPerOp},
		"max_host_share":      {Value: share},
		"allocs_per_op":       {Value: float64(totalAllocs) / float64(totalOps), Passes: allocsPerOp},
		"heap_bytes_per_item": {Value: float64(int64(heap1)-int64(heap0)) / float64(res.Items)},
		"fail_share":          {Value: float64(res.Failed) / float64(res.Attempted)},
	}
	res.Metrics = make(map[string]metricValue, len(endToEnd))
	for _, d := range endToEnd {
		v := value[d.Name]
		v.Unit, v.Better, v.Bound = d.Unit, d.Better, d.Bound
		res.Metrics[d.Name] = v
	}
	return res, nil
}

// minWindowCalls is the fewest calls a latency percentile is taken over:
// with 1,100, at least ten samples lie beyond the 99th.
const minWindowCalls = 1100

// windowPercentiles cuts the measured calls' latencies, in the order they
// were issued, into equal windows — as many as there were passes, fewer
// where a window would hold under minWindowCalls — and returns each
// window's median and 99th percentile in microseconds. The metric is the
// median over windows: a stretch in which a neighbour on the host had the
// cache or the core then moves one window, not the run's whole tail.
func windowPercentiles(lat []uint32, passes int) (p50s, p99s []float64) {
	w := min(passes, len(lat)/minWindowCalls)
	w = max(w, 1)
	for i := 0; i < w; i++ {
		win := slices.Clone(lat[i*len(lat)/w : (i+1)*len(lat)/w])
		slices.Sort(win)
		p50s = append(p50s, percentileU32(win, 0.50)/1e3)
		p99s = append(p99s, percentileU32(win, 0.99)/1e3)
	}
	return p50s, p99s
}

// traceLadder is the first half of the traced run: it builds the workload
// once, warms it up, records the ladder's spans over a prefix of pass 1 and
// writes them under cfg.outDir.
func traceLadder(w workload, cfg runConfig) (workloadResult, untracedRun, error) {
	sz := w.sizing(cfg.toy)
	res := newResult(w, sz)
	inst, err := w.prepare(sz, cfg.seed)()
	if err != nil {
		return res, untracedRun{}, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer inst.close()
	res.Items = inst.items()
	ops, calls := inst.load(0)
	res.OpsPerPass, res.CallsPerPass = ops, calls
	inst.run(make([]uint32, 0, calls))
	failed, first := inst.check()
	res.Attempted += int64(ops)
	res.fail(failed, first)

	tr := newTracer()
	untraced, err := inst.trace(tr, sz.Trace)
	if err != nil {
		return res, untraced, fmt.Errorf("%s: trace: %w", w.Name, err)
	}
	res.Rungs = summarize(tr.spans)
	res.SelfSumOverClient = selfSumOverClient(res.Rungs)
	if res.SpanFile, err = writeSpans(cfg.outDir, w.Name, tr.spans); err != nil {
		return res, untraced, fmt.Errorf("%s: writing spans: %w", w.Name, err)
	}
	// call_p99_us for the per-layer list: whole untraced passes, as many as
	// it takes to pool minWindowCalls calls (four at most: toy passes are
	// a handful of calls). The ladder used passes 1 and 2.
	var lat []uint32
	for p := 3; p < 7 && len(lat) < minWindowCalls; p++ {
		ops, _ := inst.load(p)
		lat, _ = inst.run(lat)
		failed, first := inst.check()
		res.Attempted += int64(ops)
		res.fail(failed, first)
	}
	slices.Sort(lat)
	untraced.p99us = percentileU32(lat, 0.99) / 1e3
	for _, err := range inst.finish() {
		res.Attempted++
		res.fail(1, err)
	}
	return res, untraced, nil
}

// traceWorkload is the separate traced run: the ladder, then every
// per-layer probe. End-to-end numbers never come from here.
func traceWorkload(w workload, cfg runConfig) (workloadResult, error) {
	res, untraced, err := traceLadder(w, cfg)
	if err != nil {
		return res, err
	}
	layers, err := probeLayers(cfg)
	if err != nil {
		return res, fmt.Errorf("%s: layer probes: %w", w.Name, err)
	}
	// traced top-rung throughput over untraced, same calls
	layers["trace.overhead_ratio"] = untraced.wall.Seconds() / (float64(res.Rungs[0].TotalNs) / 1e9)
	layers["client.allocs_per_op"] = float64(untraced.allocs) / float64(untraced.ops)
	layers["client.call_p99_us"] = untraced.p99us
	res.PerLayer = make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		v, ok := layers[d.Name]
		if !ok {
			return res, fmt.Errorf("%s: layer probe %s was not measured", w.Name, d.Name)
		}
		res.PerLayer[d.Name] = metricValue{Value: v, Unit: d.Unit, Better: d.Better}
	}
	return res, nil
}
