package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	skipwebs "github.com/skipwebs/skipwebs"
	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/experiments"
	"github.com/skipwebs/skipwebs/internal/serve"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/wire"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// Per-layer metrics. Layers are named for the modules; every number is
// measured from outside, by timing calls into the layer's public
// functions on the same inputs the workloads use. README.md says which
// end-to-end metric each one should move, on which workload.
var perLayer = []metricDef{
	{Name: "machine.calib_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.timer_ns", Unit: "ns", Better: "lower"},

	{Name: "listlevel.locate_ns", Unit: "ns", Better: "lower"},
	{Name: "listlevel.insert_delete_ns", Unit: "ns", Better: "lower"},

	{Name: "core.blocked.query_ns", Unit: "ns", Better: "lower"},
	{Name: "core.bucket.query_ns", Unit: "ns", Better: "lower"},
	{Name: "core.web.query_ns", Unit: "ns", Better: "lower"},
	{Name: "core.quad.query_ns", Unit: "ns", Better: "lower"},
	{Name: "core.trie.query_ns", Unit: "ns", Better: "lower"},
	{Name: "core.trap.query_ns", Unit: "ns", Better: "lower"},
	{Name: "core.blocked.update_ns", Unit: "ns", Better: "lower"},
	{Name: "core.bucket.update_ns", Unit: "ns", Better: "lower"},
	{Name: "core.web.update_ns", Unit: "ns", Better: "lower"},
	{Name: "core.quad.update_ns", Unit: "ns", Better: "lower"},
	{Name: "core.trie.update_ns", Unit: "ns", Better: "lower"},
	{Name: "core.web.update_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "core.quad.update_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "core.trie.update_allocs", Unit: "allocs/op", Better: "lower"},

	{Name: "sim.net.op_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.net.charge_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.net.charge_wide_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.net.charge_lat_ns", Unit: "ns", Better: "lower"},

	{Name: "front.blocked.query_self_ns", Unit: "ns", Better: "lower"},
	{Name: "front.onedim.query_self_ns", Unit: "ns", Better: "lower"},
	{Name: "front.bucketed.query_self_ns", Unit: "ns", Better: "lower"},
	{Name: "front.points.query_self_ns", Unit: "ns", Better: "lower"},
	{Name: "front.strings.query_self_ns", Unit: "ns", Better: "lower"},
	{Name: "front.planar.query_self_ns", Unit: "ns", Better: "lower"},
	{Name: "front.blocked.update_self_ns", Unit: "ns", Better: "lower"},
	{Name: "front.onedim.update_self_ns", Unit: "ns", Better: "lower"},
	{Name: "front.points.update_self_ns", Unit: "ns", Better: "lower"},
	{Name: "front.strings.update_self_ns", Unit: "ns", Better: "lower"},
	{Name: "front.stripe.route_ns", Unit: "ns", Better: "lower"},

	{Name: "front.cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "front.cache.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "front.cache.miss_extra_ns", Unit: "ns", Better: "lower"},
	{Name: "front.cache.invalidations_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "front.bloom.true_negative_ratio", Unit: "ratio", Better: "higher"},
	{Name: "front.bloom.false_positive_ratio", Unit: "ratio", Better: "lower"},

	{Name: "batch.read_self_ns", Unit: "ns", Better: "lower"},
	{Name: "batch.write_self_ns", Unit: "ns", Better: "lower"},
	{Name: "batch.read_parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "batch.write_parallel_speedup", Unit: "ratio", Better: "higher"},

	{Name: "sim.transport.do_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.transport.do_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "sim.transport.goid_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.transport.go_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.transport.go_wide_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.transport.workers_started", Unit: "count", Better: "lower"},

	{Name: "wire.call_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.call_allocs", Unit: "allocs/op", Better: "lower"},
	{Name: "wire.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.loopback.do_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frames_per_call", Unit: "frames/call", Better: "lower"},

	{Name: "serve.floor_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.update_fanout_us", Unit: "us", Better: "lower"},
	{Name: "serve.wal_append_us", Unit: "us", Better: "lower"},
	{Name: "serve.counter_parity", Unit: "count", Better: "higher"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	// the workload's own allocs_per_op, over the untraced replay of the
	// traced prefix: BENCHMARK.json cannot carry it as an end-to-end
	// metric, because it is legitimately zero on the read workloads
	{Name: "client.allocs_per_op", Unit: "allocs/op", Better: "lower"},
	// the workload's own call_p99_us, over untraced passes run after the
	// ladder: too unsteady on a shared host for an end-to-end bound
	{Name: "client.call_p99_us", Unit: "us", Better: "lower"},
}

// probeRounds is how often each timed loop is repeated; the median is
// reported.
const probeRounds = 3

// perOp times n calls of f, probeRounds times over, and returns the median
// ns per call.
func perOp(n int, f func(i int)) float64 {
	rounds := make([]float64, probeRounds)
	for r := range rounds {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		rounds[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(rounds)
}

// paired times n calls of inner and then of outer, probeRounds times over,
// and returns inner's median ns per call and the median of the rounds'
// differences outer − inner: the outer layer's self time. Alternating the
// two keeps drift — which on this box is as large as a thin layer's whole
// cost — out of the difference. outer runs last, so what it stored is what
// a later check sees.
func paired(n int, inner, outer func(i int)) (innerNs, selfNs float64) {
	var inners, selfs []float64
	for r := 0; r < probeRounds; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			inner(i)
		}
		in := float64(time.Since(start).Nanoseconds()) / float64(n)
		start = time.Now()
		for i := 0; i < n; i++ {
			outer(i)
		}
		out := float64(time.Since(start).Nanoseconds()) / float64(n)
		inners = append(inners, in)
		selfs = append(selfs, out-in)
	}
	return median(inners), median(selfs)
}

// allocsPerOp counts heap allocations per call of f over n calls.
func allocsPerOp(n int, f func(i int)) float64 {
	m0 := mallocs()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(mallocs()-m0) / float64(n)
}

// probeSizes are the per-probe op counts; toy runs shrink them with the
// structures.
type probeSizes struct {
	queries int // per structure, query probes
	slow    int // fresh items, generic-web update probes (two ops each)
	fast    int // fresh items, blocked/bucketed update probes
	rpcs    int
	wideH   int
}

// probeLayers measures every per-layer metric except the two only the
// traced workload itself can give (trace.overhead_ratio and
// client.allocs_per_op). Each group of probes builds what it
// needs at the sizing of the workload it explains, and tears it down.
func probeLayers(cfg runConfig) (map[string]float64, error) {
	ps := probeSizes{queries: 10000, slow: 250, fast: 2000, rpcs: 1000, wideH: 4096}
	if cfg.toy {
		ps = probeSizes{queries: 300, slow: 30, fast: 60, rpcs: 60, wideH: 64}
	}
	out := map[string]float64{
		"machine.calib_ns": cfg.machine.CalibNs,
		"machine.timer_ns": cfg.machine.TimerNs,
	}
	probes := []func(runConfig, probeSizes, map[string]float64) error{
		probeListLevel, probeStructures, probeNet, probeCache, probeBatch, probeTransport, probeWire,
	}
	for _, probe := range probes {
		if err := probe(cfg, ps, out); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	return out, nil
}

func sizingOf(name string, toy bool) sizing {
	w, _ := findWorkload(name)
	return w.sizing(toy)
}

func probeListLevel(cfg runConfig, ps probeSizes, out map[string]float64) error {
	sz := sizingOf("query-sync", cfg.toy)
	rng := xrand.New(dataSeed)
	keys := experiments.Keys(rng, sz.Items, keySpace)
	level, err := core.NewListLevel(keys)
	if err != nil {
		return err
	}
	qs := make([]uint64, ps.queries)
	for i := range qs {
		qs[i] = rng.Uint64n(keySpace)
	}
	var sink core.RangeID
	out["listlevel.locate_ns"] = perOp(len(qs), func(i int) { sink += level.Locate(qs[i]) })
	fresh := make([]uint64, 0, ps.queries)
	model := sortedKeys(keys)
	for len(fresh) < cap(fresh) {
		fresh = append(fresh, freshKey(rng, model)) // a repeat is harmless: each key is deleted before the next insert
	}
	var opErr error
	out["listlevel.insert_delete_ns"] = perOp(len(fresh), func(i int) {
		if _, err := level.InsertKey(fresh[i], core.NoRange); err != nil {
			opErr = err
		}
		if _, _, err := level.DeleteKey(fresh[i]); err != nil {
			opErr = err
		}
	})
	_ = sink
	return opErr
}

// probeStructures prices the six engines and their front-end wrappers on
// query-sync's structures: each front number is the public synchronous
// call minus the engine call on the identical op stream, the engine being
// the twin built on a bare network from the same items and seed.
func probeStructures(cfg runConfig, ps probeSizes, out map[string]float64) error {
	sz := sizingOf("query-sync", cfg.toy)
	built, err := prepareQuerySync(sz, cfg.seed)()
	if err != nil {
		return err
	}
	in := built.(*clusterInstance)
	defer in.close()
	for _, t := range in.targets {
		if err := t.buildTwin(in.hosts); err != nil {
			return fmt.Errorf("%s twin: %w", t.label(), err)
		}
	}
	engine := map[string]string{"onedim": "web", "blocked": "blocked", "bucketed": "bucket",
		"points": "quad", "strings": "trie", "planar": "trap"}

	in.gen(0, ps.queries)
	for _, t := range in.targets {
		coreNs, self := paired(t.len(), t.runCore, t.run)
		out["core."+engine[t.label()]+".query_ns"] = coreNs
		out["front."+t.label()+".query_self_ns"] = self
		if failed, first := t.check(); failed > 0 {
			return fmt.Errorf("query probe: %w", first)
		}
	}

	for j, t := range in.targets {
		name := t.label()
		if name == "planar" {
			continue // static
		}
		n := ps.slow
		if name == "blocked" || name == "bucketed" {
			n = ps.fast
		}
		t.load(freshUpdates(t, passRand(cfg.seed, 0, 8+j), n, func(i int) skipwebs.HostID { return origin(i, in.hosts) }))
		coreNs, self := paired(2*n, t.runCore, t.run)
		out["core."+engine[name]+".update_ns"] = coreNs
		if name != "bucketed" {
			out["front."+name+".update_self_ns"] = self
		}
		if name == "onedim" || name == "points" || name == "strings" {
			out["core."+engine[name]+".update_allocs"] = allocsPerOp(2*n, t.runCore)
		}
		if failed, first := t.check(); failed > 0 {
			return fmt.Errorf("update probe: %w", first)
		}
	}

	// stripe routing: the same floor stream through a 4-stripe Blocked
	c := skipwebs.NewCluster(sz.Hosts)
	bl := in.targets[1].(*keyed)
	striped, err := skipwebs.NewBlocked(c, bl.model, skipwebs.Options{Seed: dataSeed, WriteStripes: 4})
	if err != nil {
		return err
	}
	rng := passRand(cfg.seed, 0, 15)
	qs := make([]uint64, ps.queries)
	for i := range qs {
		qs[i] = rng.Uint64n(keySpace)
	}
	single := bl.api
	_, out["front.stripe.route_ns"] = paired(len(qs),
		func(i int) { single.Floor(qs[i], origin(i, sz.Hosts)) },
		func(i int) { striped.Floor(qs[i], origin(i, sz.Hosts)) })
	return nil
}

// probeNet prices the accounting spine by itself: an Op's life, and one
// charged cross-host message at the widths the workloads use.
func probeNet(cfg runConfig, ps probeSizes, out map[string]float64) error {
	hosts := sizingOf("query-sync", cfg.toy).Hosts
	const n = 200_000
	rng := xrand.New(cfg.seed)
	charge := func(net *sim.Network) float64 {
		// a descent hops to hosts in no particular order
		seq := make([]sim.HostID, n)
		for i := range seq {
			seq[i] = sim.HostID(rng.Intn(net.Hosts()))
			if i > 0 && seq[i] == seq[i-1] {
				seq[i] = (seq[i] + 1) % sim.HostID(net.Hosts())
			}
		}
		op := net.NewOp(sim.None)
		defer op.Free()
		return perOp(n, func(i int) { op.Visit(seq[i]) })
	}
	net := sim.NewNetwork(hosts)
	out["sim.net.op_ns"] = perOp(n, func(i int) { net.NewOp(sim.HostID(i % hosts)).Free() })
	out["sim.net.charge_ns"] = charge(net)
	out["sim.net.charge_wide_ns"] = charge(sim.NewNetwork(ps.wideH))
	lat := sim.NewNetwork(hosts)
	lat.SetCostModel(sim.TwoLevel(16, sim.Fixed(1), sim.Uniform(cfg.seed, 5, 50)))
	out["sim.net.charge_lat_ns"] = charge(lat)
	return nil
}

// probeCache measures the read-path cache on the Blocked half of
// zipf-cached: the counters of one pass of the workload's own op mix, the
// cost of a hit, and what a miss pays on top of an uncached call.
func probeCache(cfg runConfig, ps probeSizes, out map[string]float64) error {
	sz := sizingOf("zipf-cached", cfg.toy)
	z := newZipfInputs(sz)
	rng := xrand.New(xrand.Substream(cfg.seed, 3))
	build := func(cached bool) (*skipwebs.Cluster, *skipwebs.Blocked, error) {
		c := skipwebs.NewCluster(sz.Hosts)
		b, err := skipwebs.NewBlocked(c, z.keys, zipfOptions(cached))
		return c, b, err
	}
	c, cachedB, err := build(true)
	if err != nil {
		return err
	}
	in := &clusterInstance{c: c, hosts: sz.Hosts, cached: true,
		targets: []target{newKeyed("blocked", cachedB, z.ki, blockedTwin)}}
	calls := genZipfCached(in, cfg.seed, 0, sz.Rounds/4, z)
	for _, cl := range calls {
		in.targets[0].run(int(cl.lo))
	}
	if failed, first := in.check(); failed > 0 {
		return fmt.Errorf("cache probe: %w", first)
	}
	st := c.Stats()
	out["front.cache.hit_ratio"] = ratio(st.CacheHits, st.CacheHits+st.CacheMisses)
	out["front.cache.invalidations_per_kop"] = 1000 * ratio(st.CacheInvalidations, int64(len(calls)))
	out["front.bloom.true_negative_ratio"] = ratio(st.BloomTrueNegatives, st.BloomTrueNegatives+st.BloomFalsePositives)
	out["front.bloom.false_positive_ratio"] = ratio(st.BloomFalsePositives, st.BloomTrueNegatives+st.BloomFalsePositives)

	// a hit: 64 hot keys from one origin, resident after the first lap
	hot := z.keys[:64]
	for _, k := range hot {
		cachedB.Floor(k, 0)
	}
	out["front.cache.hit_ns"] = perOp(ps.queries, func(i int) { cachedB.Floor(hot[i%len(hot)], 0) })

	// a miss: queries that never repeat, against the same structure built
	// without the cache
	_, plainB, err := build(false)
	if err != nil {
		return err
	}
	qs := make([]uint64, ps.queries*probeRounds)
	for i := range qs {
		qs[i] = rng.Uint64n(keySpace)
	}
	nextPlain, nextCached := 0, 0
	_, out["front.cache.miss_extra_ns"] = paired(ps.queries,
		func(int) { plainB.Floor(qs[nextPlain], origin(nextPlain, sz.Hosts)); nextPlain++ },
		func(int) { cachedB.Floor(qs[nextCached], origin(nextCached, sz.Hosts)); nextCached++ })
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probeBatch separates the batch engine's own cost from the transport's
// and from the op's: per-op time of a batch at GOMAXPROCS=1, minus the
// same ops issued synchronously, minus the no-op dispatch of as many ops —
// all three measured at GOMAXPROCS=1 so they add up. The speedups are
// batch throughput at the default GOMAXPROCS over that at 1.
func probeBatch(cfg runConfig, ps probeSizes, out map[string]float64) error {
	sz := sizingOf("update-batch", cfg.toy)
	built, err := prepareUpdateBatch(sz, cfg.seed)()
	if err != nil {
		return err
	}
	in := built.(*clusterInstance)
	defer in.close()
	t := in.targets[0].(*keyed)
	b := sz.Batch
	batches := ps.fast / b
	if batches < 2 {
		batches = 2
	}
	rng := passRand(cfg.seed, 0, 14)
	reads := make([]op, batches*b)
	for i := range reads {
		reads[i] = op{kind: opFloor, key: rng.Uint64n(keySpace), origin: origin(i, in.hosts)}
	}
	var writes []op
	for r := 0; r < batches; r++ {
		writes = append(writes, freshUpdates(t, rng, b, func(i int) skipwebs.HostID { return origin(i, in.hosts) })...)
	}
	tw := sim.NewCluster(sim.NewNetwork(in.hosts))
	defer tw.Stop()
	noop := func() {}
	everyHost := func(i int) sim.HostID { return sim.HostID(i % in.hosts) }
	tw.RunBatch(in.hosts, everyHost, func(int) {})

	batched := func(ops []op) float64 {
		t.load(ops)
		return perOp(len(ops)/b, func(i int) { t.runBatch(i*b, (i+1)*b) }) / float64(b)
	}
	synced := func(ops []op) float64 {
		t.load(ops)
		return perOp(len(ops), t.run)
	}
	batched(reads) // starts the cluster's lazy workers
	readN, writeN := batched(reads), batched(writes)

	prev := runtime.GOMAXPROCS(1)
	read1, write1 := batched(reads), batched(writes)
	readSync, writeSync := synced(reads), synced(writes)
	go1 := perOp(batches, func(int) { tw.RunBatch(b, everyHost, func(int) {}) }) / float64(b)
	var do1 float64
	onDispatcher(func() { do1 = perOp(len(writes), func(i int) { tw.Do(everyHost(i), noop) }) })
	runtime.GOMAXPROCS(prev)

	out["batch.read_self_ns"] = read1 - readSync - go1
	out["batch.write_self_ns"] = write1 - writeSync - do1
	out["batch.read_parallel_speedup"] = read1 / readN
	out["batch.write_parallel_speedup"] = write1 / writeN
	if failed, first := t.check(); failed > 0 {
		return fmt.Errorf("batch probe: %w", first)
	}
	return nil
}

// onDispatcher runs f on a fresh goroutine and waits for it. Do finds out
// whether it is already on the target host's worker by parsing its own
// goroutine id out of a stack dump, and the price of that dump grows with
// the depth of the calling stack; the batch engine calls Do from shallow
// per-stripe dispatcher goroutines, so the Do probes do too.
func onDispatcher(f func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	<-done
}

// probeTransport prices the in-process transport on a no-op closure.
func probeTransport(cfg runConfig, ps probeSizes, out map[string]float64) error {
	hosts := sizingOf("update-batch", cfg.toy).Hosts
	noop := func() {}
	each := func(h int) func(i int) sim.HostID { return func(i int) sim.HostID { return sim.HostID(i % h) } }
	cl := sim.NewCluster(sim.NewNetwork(hosts))
	cl.RunBatch(hosts, each(hosts), func(int) {})
	const n = 20_000
	var doErr error
	do := func(i int) {
		if err := cl.Do(sim.HostID(i%hosts), noop); err != nil {
			doErr = err
		}
	}
	var sink uint64
	onDispatcher(func() {
		out["sim.transport.do_ns"] = perOp(n, do)
		out["sim.transport.do_allocs"] = allocsPerOp(n, do)
		out["sim.transport.goid_ns"] = perOp(n, func(int) { sink += sim.Goid() })
	})
	out["sim.transport.go_ns"] = perOp(n/hosts+1, func(int) { cl.RunBatch(hosts, each(hosts), func(int) {}) }) / float64(hosts)
	cl.Stop()

	wide := sim.NewCluster(sim.NewNetwork(ps.wideH))
	wide.RunBatch(ps.wideH, each(ps.wideH), func(int) {})
	out["sim.transport.go_wide_ns"] = perOp(n/ps.wideH+2, func(int) { wide.RunBatch(ps.wideH, each(ps.wideH), func(int) {}) }) / float64(ps.wideH)
	out["sim.transport.workers_started"] = float64(wide.WorkersStarted())
	wide.Stop()
	_ = sink
	return doErr
}

// probeWire prices the TCP layer and the daemon on rpc's cluster: bare
// calls and hops, then a short replay of the workload's own op stream for
// the floor and fan-out costs and the counter parity, then the WAL's
// price on a one-host daemon pair. All traffic crosses the loopback
// interface, and the WAL is fsynced to the sandbox's disk: neither is a
// real link or device.
func probeWire(cfg runConfig, ps probeSizes, out map[string]float64) error {
	sz := sizingOf("rpc", cfg.toy)
	sz.Rounds = ps.rpcs
	built, err := prepareRPC(sz, cfg.seed)()
	if err != nil {
		return err
	}
	in := built.(*rpcInstance)
	defer in.close()
	var callErr error
	keep := func(err error) {
		if err != nil && callErr == nil {
			callErr = err
		}
	}
	var pr serve.PingReply
	ping := func(i int) { keep(in.clients[i%len(in.clients)].Call("ping", nil, &pr)) }
	out["wire.call_ns"] = perOp(ps.rpcs, ping)
	out["wire.call_allocs"] = allocsPerOp(ps.rpcs, ping)
	out["wire.hop_ns"] = perOp(ps.rpcs, func(i int) { keep(in.clients[i%len(in.clients)].Hop()) })
	if callErr != nil {
		return callErr
	}
	lb, err := wire.NewLoopback(sz.Hosts)
	if err != nil {
		return err
	}
	noop := func() {}
	onDispatcher(func() {
		out["wire.loopback.do_ns"] = perOp(ps.rpcs, func(i int) { keep(lb.Do(sim.HostID(i%sz.Hosts), noop)) })
	})
	lb.Stop()

	// the hops above bumped the daemons' frame counters: zero them, then
	// replay
	if err := in.resetTraffic(); err != nil {
		return err
	}
	in.base = make([]int64, sz.Hosts)
	n, _ := in.load(0)
	lat, _ := in.run(make([]uint32, 0, n))
	pings := make([]uint32, 0, n)
	prev := time.Now()
	for i := 0; i < n; i++ {
		ping(i)
		now := time.Now()
		pings = append(pings, clampNs(now.Sub(prev)))
		prev = now
	}
	var floors, updates []uint32
	var rpcs int64
	for i, op := range in.wl[:n] {
		if op.Kind == serve.OpQuery {
			floors = append(floors, lat[i])
			rpcs++
		} else {
			updates = append(updates, lat[i])
			rpcs += int64(sz.Hosts)
		}
	}
	slices.Sort(pings)
	slices.Sort(floors)
	slices.Sort(updates)
	out["serve.floor_self_us"] = (percentileU32(floors, 0.5) - percentileU32(pings, 0.5)) / 1e3
	out["serve.update_fanout_us"] = percentileU32(updates, 0.5) / 1e3
	msgs, _, err := in.traffic()
	if err != nil {
		return err
	}
	// every RPC is a call frame and a reply frame; every charged message a
	// kMsg frame and its ack
	out["wire.frames_per_call"] = float64(2*(rpcs+msgs)) / float64(n)
	out["serve.counter_parity"] = 1
	if errs := in.finish(); len(errs) > 0 {
		out["serve.counter_parity"] = 0
		return fmt.Errorf("wire probe: %w", errs[0])
	}
	if callErr != nil {
		return callErr
	}

	// WAL: one non-emitting update RPC, with and without a log behind it
	walDir := filepath.Join(cfg.outDir, fmt.Sprintf("wal-probe-%d", os.Getpid()))
	defer os.RemoveAll(walDir)
	update := func(dir string) (float64, error) {
		one := rpcConfig(sz)
		one.Hosts, one.WALDir = 1, dir
		daemons, clients, err := serve.BootLocal(one)
		if err != nil {
			return 0, err
		}
		defer serve.CloseLocal(daemons, clients)
		samples := make([]uint32, 0, 2*ps.rpcs/10)
		var ur serve.UpdateReply
		for i := 0; i < cap(samples)/2; i++ {
			k := uint64(keySpace + i) // above every generated key
			for _, kind := range []string{"insert", "delete"} {
				start := time.Now()
				if err := clients[0].Call("update", serve.UpdateArgs{Op: kind, Key: k}, &ur); err != nil {
					return 0, err
				}
				samples = append(samples, clampNs(time.Since(start)))
			}
		}
		slices.Sort(samples)
		return percentileU32(samples, 0.5) / 1e3, nil
	}
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	withWAL, err := update(walDir)
	if err != nil {
		return err
	}
	without, err := update("")
	if err != nil {
		return err
	}
	out["serve.wal_append_us"] = withWAL - without
	return nil
}
