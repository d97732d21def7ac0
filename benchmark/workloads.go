package main

import (
	"fmt"
	"slices"
	"time"

	skipwebs "github.com/skipwebs/skipwebs"
	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/experiments"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/trapmap"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// sizing fixes how much work a workload does. The Full values are frozen:
// they were chosen once so that one pass takes about a second on the
// 2-core reference box, and a later comparison is only meaningful if both
// sides ran exactly these counts.
type sizing struct {
	Hosts    int `json:"hosts"`
	Items    int `json:"items"` // per structure
	Segments int `json:"segments,omitempty"`
	Batch    int `json:"batch,omitempty"`
	// Rounds is the per-pass repeat count; each workload says what one
	// round is.
	Rounds int `json:"rounds"`
	// Trace is how many rounds of pass 1 the traced run replays on every
	// rung of the ladder: about 20,000 ops, fewer where an op is slow.
	Trace int `json:"trace_rounds"`
}

// workload is one entry of the suite. prepare generates every input
// (untimed) and returns the timed set-up step, which builds the clusters
// and structures — or boots the daemons — the passes run on. The stored
// items and the structural Options.Seed come from dataSeed, the op stream
// (queries, origins, fresh items, Zipf draws) from the run's seed.
type workload struct {
	Name  string
	Why   string
	Call  string // what one client call is, for the latency metrics
	Round string // what one round of a pass is
	Full  sizing
	Toy   sizing
	// prepare returns build, the timed set-up. build may be called several
	// times; each call returns an independent instance.
	prepare func(sz sizing, seed uint64) (build func() (instance, error))
}

// instance is a built workload: something passes can be run against.
type instance interface {
	// items is the number of items stored, for heap_bytes_per_item.
	items() int
	// load generates the ops of pass p (0 is the warm-up; passes run in
	// order) and returns how many ops and client calls it holds. Untimed.
	load(p int) (ops, calls int)
	// run issues the loaded calls back to back from one client goroutine,
	// appends one latency per call to lat, and returns the pass's wall
	// time. Answers are kept for check.
	run(lat []uint32) ([]uint32, time.Duration)
	// check compares the kept answers of the last pass with the oracle.
	check() (failed int, first error)
	// resetTraffic zeroes the message counters; traffic reads them.
	resetTraffic() error
	traffic() (msgs int64, maxHostShare float64, err error)
	// finish runs the end-state checks after the last pass and returns one
	// error per failed check.
	finish() []error
	// trace replays the first `rounds` rounds of pass 1 on every rung of
	// the ladder, then issues the same client calls without spans.
	trace(tr *tracer, rounds int) (untracedRun, error)
	close()
}

const keySpace = 1 << 40

// dataSeed generates what every run stores and the structural seed it is
// built with; the run's -seed generates the traffic. How many messages an
// op costs depends on where the structure's random levels put the items —
// on rpc's four hosts by ±15 % from one draw to the next — so runs that
// differ in seed share one data set and differ only in traffic, and their
// spread is the machine's.
const dataSeed = 1

var suite = []workload{
	{
		Name:    "query-sync",
		Why:     "all time is core descent + sim.net accounting + thin front wrappers; batch, transport, wire and serve idle: the control for dispatch and wire changes, the gate for front-end collapse",
		Call:    "one synchronous query",
		Round:   "one uniform query on each of OneDim, Blocked, Bucketed (Floor), Points (Locate), Strings (Search), Planar (Locate), rotating origin",
		Full:    sizing{Hosts: 256, Items: 32768, Segments: 512, Rounds: 32000, Trace: 3333},
		Toy:     sizing{Hosts: 16, Items: 512, Segments: 32, Rounds: 400, Trace: 400},
		prepare: prepareQuerySync,
	},
	{
		Name:    "query-batch",
		Why:     "read dispatch (RunBatch grouping, mailbox put, worker wake) and the 4,096-wide counter slab carry a large share here and none in query-sync",
		Call:    "one read batch",
		Round:   "Blocked.FloorBatch, Bucketed.FloorBatch and Blocked.RangeBatch (~16-key ranges), one query per origin host in the batch's window",
		Full:    sizing{Hosts: 4096, Items: 262144, Batch: 1024, Rounds: 105, Trace: 6},
		Toy:     sizing{Hosts: 16, Items: 512, Batch: 16, Rounds: 6, Trace: 6},
		prepare: prepareQueryBatch,
	},
	{
		Name:    "update-batch",
		Why:     "each op is one Transport.Do rendezvous, so sim.transport dominates a ~6 us engine insert; same layers as query-batch but for writes, so a gain on one dispatch path that costs the other shows",
		Call:    "one write batch",
		Round:   "InsertBatch then DeleteBatch of fresh keys on Blocked, then on Bucketed (WriteStripes 4), round-robin origins",
		Full:    sizing{Hosts: 256, Items: 65536, Batch: 256, Rounds: 80, Trace: 19},
		Toy:     sizing{Hosts: 16, Items: 512, Batch: 16, Rounds: 4, Trace: 4},
		prepare: prepareUpdateBatch,
	},
	{
		Name:    "update-generic",
		Why:     "the generic core.Web update path (tens of allocations per op) does nearly all the work and dispatch none; slab/scratch sharing must move this workload and leave update-batch alone",
		Call:    "one synchronous update",
		Round:   "Insert of one fresh item on each of OneDim, Points (d=2), Strings; all inserted items are deleted, in order, in the second half of the pass",
		Full:    sizing{Hosts: 256, Items: 32768, Rounds: 1600, Trace: 400},
		Toy:     sizing{Hosts: 16, Items: 512, Rounds: 60, Trace: 60},
		prepare: prepareUpdateGeneric,
	},
	{
		Name:    "zipf-cached",
		Why:     "the front cache layer (256-entry LRU per origin: the hot head fits, the tail does not) answers most ops and core runs only on misses; interleaved writes keep invalidation honest",
		Call:    "one synchronous op",
		Round:   "one op slot on each of Blocked and Strings (CacheFingers, NegativeBloom, WriteStripes 4): 70 % Floor/Search of a Zipf(1.2)-ranked stored key, 25 % Contains (half adversarial absent keys), 5 % insert-then-delete of a fresh key",
		Full:    sizing{Hosts: 64, Items: 32768, Rounds: 99996, Trace: 9750},
		Toy:     sizing{Hosts: 16, Items: 512, Rounds: 1950, Trace: 1950},
		prepare: prepareZipfCached,
	},
	{
		Name:    "rpc",
		Why:     "JSON framing, syscalls and one kMsg frame per charged message dominate and the descent is ~2 % of the call; codec and pipelining work shows here and nowhere else",
		Call:    "one client-visible op: one floor RPC, or one update broadcast to all daemons",
		Round:   "one op of serve.NewWorkload (80 % floor, 10 % insert, 10 % delete) against four in-process daemons on TCP loopback",
		Full:    sizing{Hosts: 4, Items: 65536, Rounds: 4000, Trace: 4000},
		Toy:     sizing{Hosts: 4, Items: 512, Rounds: 150, Trace: 150},
		prepare: prepareRPC,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range suite {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// call is one client call of a pass: op lo of target t, or — for batch
// workloads — ops [lo, hi) of target t as one batch.
type call struct {
	t      uint8
	batch  bool
	lo, hi int32
}

// clusterInstance is a built workload whose structures live on one public
// skipwebs.Cluster — every workload but rpc.
type clusterInstance struct {
	c       *skipwebs.Cluster
	hosts   int
	targets []target
	// gen installs the ops of pass p into the targets — rounds of them —
	// and returns the call schedule.
	gen    func(p, rounds int) []call
	rounds int
	calls  []call
	// transport marks batch workloads: their ladder also crosses
	// sim.transport. writers is the number of write stripes, which is how
	// many dispatcher goroutines a write batch runs.
	transport bool
	writers   int
	// cached marks workloads whose front layer answers most ops itself: in
	// the ladder, an op descends below front only if front charged messages
	// for it (a cache miss) or it is an update.
	cached bool
}

func (in *clusterInstance) items() int {
	n := 0
	for _, t := range in.targets {
		n += t.items()
	}
	return n
}

func (in *clusterInstance) load(p int) (ops, calls int) {
	in.calls = in.gen(p, in.rounds)
	return countOps(in.calls), len(in.calls)
}

func countOps(calls []call) int {
	ops := 0
	for _, c := range calls {
		if c.batch {
			ops += int(c.hi - c.lo)
		} else {
			ops++
		}
	}
	return ops
}

func (in *clusterInstance) run(lat []uint32) ([]uint32, time.Duration) {
	ts := in.targets
	start := time.Now()
	prev := start
	for _, c := range in.calls {
		if c.batch {
			ts[c.t].runBatch(int(c.lo), int(c.hi))
		} else {
			ts[c.t].run(int(c.lo))
		}
		now := time.Now()
		lat = append(lat, clampNs(now.Sub(prev)))
		prev = now
	}
	return lat, prev.Sub(start)
}

// clampNs stores a call latency in 32 bits (4.29 s), which bounds the
// latency pool's footprint on the workloads that issue millions of calls.
func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

func (in *clusterInstance) check() (failed int, first error) {
	for _, t := range in.targets {
		f, err := t.check()
		failed += f
		if first == nil {
			first = err
		}
	}
	return failed, first
}

func (in *clusterInstance) resetTraffic() error {
	in.c.ResetTraffic()
	return nil
}

// traffic reads the cluster's counters. The public Stats exposes per-host
// maxima only for touches — message deliveries plus the op's entry at its
// origin, the paper's congestion measure C(n) — so the busiest host's
// share is taken over touches.
func (in *clusterInstance) traffic() (int64, float64, error) {
	st := in.c.Stats()
	total := st.MeanCongestion * float64(st.Hosts)
	if total == 0 {
		return st.TotalMessages, 0, nil
	}
	return st.TotalMessages, float64(st.MaxCongestion) / total, nil
}

func (in *clusterInstance) finish() []error {
	var errs []error
	for _, t := range in.targets {
		if err := t.finish(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := in.c.CheckConsistent(); err != nil {
		errs = append(errs, fmt.Errorf("Cluster.CheckConsistent: %w", err))
	}
	return errs
}

func (in *clusterInstance) close() { in.c.Close() }

// passRand is the generator of target j's op stream in pass p. One
// substream per (pass, target) makes a shorter pass an exact prefix of a
// longer one, which is what the traced replay relies on.
func passRand(seed uint64, p, j int) *xrand.Rand {
	return xrand.New(xrand.Substream(seed, 1000+16*p+j))
}

func origin(i, hosts int) skipwebs.HostID { return skipwebs.HostID(i % hosts) }

// ---- shared input generation ----

func genPoints(rng *xrand.Rand, n int) []skipwebs.Point {
	raw := experiments.UniformPoints(rng, 2, n, 1<<30)
	pts := make([]skipwebs.Point, len(raw))
	for i, p := range raw {
		pts[i] = skipwebs.Point(p)
	}
	return pts
}

const alphabet = "acgt"

func genStrings(rng *xrand.Rand, n int) []string {
	return experiments.UniformStrings(rng, n, alphabet, 6, 24)
}

func randString(rng *xrand.Rand) string {
	b := make([]byte, 6+rng.Intn(19))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// freshKey draws a key the sorted model does not hold.
func freshKey(rng *xrand.Rand, model []uint64) uint64 {
	for {
		k := rng.Uint64n(keySpace)
		if f, ok := floorIn(model, k); !ok || f != k {
			return k
		}
	}
}

func blockedTwin(net *sim.Network, keys []uint64, seed uint64) (keyedEngine, error) {
	return core.NewBlockedWeb(net, keys, core.BlockedConfig{Seed: seed})
}

// bucketTwin sizes buckets as NewBucketed does: from the whole key count
// and the cluster width, whatever the stripe.
func bucketTwin(total int) engineMaker {
	return func(net *sim.Network, keys []uint64, seed uint64) (keyedEngine, error) {
		return core.NewBucketWeb(net, keys, total/net.LiveHosts()+1, 0, seed, 0)
	}
}

func webTwin(net *sim.Network, keys []uint64, seed uint64) (keyedEngine, error) {
	w, err := core.NewWeb[*core.ListLevel, uint64, uint64](core.NewListOps(), net, keys, core.Config{Seed: seed})
	return webFloor{w}, err
}

// ---- query-sync ----

var planarBox = skipwebs.PlanarBounds{MinX: -60000, MinY: -60000, MaxX: 60000, MaxY: 60000}

func genSegments(rng *xrand.Rand, n int) []skipwebs.PlanarSegment {
	raw := experiments.DisjointSegments(rng, n,
		trapmap.Rect{MinX: planarBox.MinX, MinY: planarBox.MinY, MaxX: planarBox.MaxX, MaxY: planarBox.MaxY})
	segs := make([]skipwebs.PlanarSegment, len(raw))
	for i, s := range raw {
		segs[i] = skipwebs.PlanarSegment{
			A: skipwebs.PlanarPoint{X: s.A.X, Y: s.A.Y},
			B: skipwebs.PlanarPoint{X: s.B.X, Y: s.B.Y},
		}
	}
	return segs
}

func prepareQuerySync(sz sizing, seed uint64) func() (instance, error) {
	rng := xrand.New(dataSeed)
	keys := experiments.Keys(rng, sz.Items, keySpace)
	pts := genPoints(rng, sz.Items)
	strs := genStrings(rng, sz.Items)
	segs := genSegments(rng, sz.Segments)
	ki := keyedInputs{keys: keys, model: sortedKeys(keys), seed: dataSeed}
	ptModel, strModel := pointModel(pts), stringModel(strs)
	opts := skipwebs.Options{Seed: dataSeed}
	return func() (instance, error) {
		c := skipwebs.NewCluster(sz.Hosts)
		od, err := skipwebs.NewOneDim(c, keys, opts)
		if err != nil {
			return nil, err
		}
		bl, err := skipwebs.NewBlocked(c, keys, opts)
		if err != nil {
			return nil, err
		}
		bu, err := skipwebs.NewBucketed(c, keys, opts)
		if err != nil {
			return nil, err
		}
		pt, err := skipwebs.NewPoints(c, 2, pts, opts)
		if err != nil {
			return nil, err
		}
		st, err := skipwebs.NewStrings(c, strs, opts)
		if err != nil {
			return nil, err
		}
		pl, err := skipwebs.NewPlanar(c, segs, planarBox, opts)
		if err != nil {
			return nil, err
		}
		in := &clusterInstance{c: c, hosts: sz.Hosts, rounds: sz.Rounds, targets: []target{
			newKeyed("onedim", od, ki, webTwin),
			newKeyed("blocked", bl, ki, blockedTwin),
			newKeyed("bucketed", bu, ki, bucketTwin(len(keys))),
			newPointsTarget(pt, pts, ptModel, dataSeed),
			newStringsTarget(st, strs, strModel, dataSeed, 1),
			newPlanarTarget(pl, segs, planarBox, dataSeed),
		}}
		in.gen = func(p, rounds int) []call { return genQuerySync(in, seed, p, rounds) }
		return in, nil
	}
}

// genQuerySync gives each structure `rounds` uniform queries. Points and
// Strings alternate a uniform random query with a stored item, so both the
// miss and the exact-hit descent are in the pool.
func genQuerySync(in *clusterInstance, seed uint64, p, rounds int) []call {
	nt := len(in.targets)
	for j, t := range in.targets {
		rng := passRand(seed, p, j)
		ops := make([]op, rounds)
		var coords []uint32
		if _, ok := t.(*pointsTarget); ok {
			coords = make([]uint32, 2*rounds)
		}
		for i := range ops {
			o := &ops[i]
			o.origin = origin(i*nt+j, in.hosts)
			switch t := t.(type) {
			case *keyed:
				o.kind, o.key = opFloor, rng.Uint64n(keySpace)
			case *pointsTarget:
				o.kind = opLocate
				if i%2 == 0 {
					xy := coords[2*i : 2*i+2]
					xy[0], xy[1] = uint32(rng.Uint64n(1<<30)), uint32(rng.Uint64n(1<<30))
					o.pt = skipwebs.Point(xy)
				} else {
					o.pt = t.pts[rng.Intn(len(t.pts))]
				}
			case *stringsTarget:
				o.kind = opSearch
				if i%2 == 0 {
					o.str = randString(rng)
				} else {
					o.str = t.keys[rng.Intn(len(t.keys))]
				}
			case *planarTarget:
				o.kind = opLocate
				w := uint64(planarBox.MaxX - planarBox.MinX - 2)
				o.key = uint64(planarBox.MinX + 1 + int64(rng.Uint64n(w)))
				o.hi = uint64(planarBox.MinY + 1 + int64(rng.Uint64n(w)))
			}
		}
		t.load(ops)
	}
	calls := make([]call, 0, rounds*nt)
	for i := 0; i < rounds; i++ {
		for j := 0; j < nt; j++ {
			calls = append(calls, call{t: uint8(j), lo: int32(i)})
		}
	}
	return calls
}

// ---- query-batch ----

func prepareQueryBatch(sz sizing, seed uint64) func() (instance, error) {
	keys := experiments.Keys(xrand.New(dataSeed), sz.Items, keySpace)
	ki := keyedInputs{keys: keys, model: sortedKeys(keys), seed: dataSeed}
	opts := skipwebs.Options{Seed: dataSeed}
	return func() (instance, error) {
		c := skipwebs.NewCluster(sz.Hosts)
		bl, err := skipwebs.NewBlocked(c, keys, opts)
		if err != nil {
			return nil, err
		}
		bu, err := skipwebs.NewBucketed(c, keys, opts)
		if err != nil {
			return nil, err
		}
		in := &clusterInstance{c: c, hosts: sz.Hosts, rounds: sz.Rounds, transport: true, targets: []target{
			newKeyed("blocked", bl, ki, blockedTwin),
			newKeyed("bucketed", bu, ki, bucketTwin(len(keys))),
		}}
		in.gen = func(p, rounds int) []call { return genQueryBatch(in, seed, p, rounds, sz) }
		return in, nil
	}
}

// genQueryBatch lays out, per round, a floor batch and a range batch on
// Blocked and a floor batch on Bucketed. Batch b of a target takes its
// origins from the window of Batch consecutive hosts starting at b*Batch,
// so every host issues exactly one query per Hosts/Batch batches.
func genQueryBatch(in *clusterInstance, seed uint64, p, rounds int, sz sizing) []call {
	b := sz.Batch
	width := uint64(16) * (keySpace / uint64(sz.Items)) // ~16 stored keys
	var calls []call
	for j, t := range in.targets {
		rng := passRand(seed, p, j)
		per := b // bucketed: one floor batch per round
		if j == 0 {
			per = 2 * b // blocked: floor batch + range batch
		}
		ops := make([]op, rounds*per)
		for i := range ops {
			o := &ops[i]
			o.origin = origin(i, in.hosts)
			if j == 0 && i%per >= b {
				o.kind = opRange
				o.key = rng.Uint64n(keySpace - width)
				o.hi = o.key + width
			} else {
				o.kind, o.key = opFloor, rng.Uint64n(keySpace)
			}
		}
		t.load(ops)
	}
	for r := 0; r < rounds; r++ {
		calls = append(calls,
			call{t: 0, batch: true, lo: int32(r * 2 * b), hi: int32(r*2*b + b)},
			call{t: 1, batch: true, lo: int32(r * b), hi: int32(r*b + b)},
			call{t: 0, batch: true, lo: int32(r*2*b + b), hi: int32(r*2*b + 2*b)})
	}
	return calls
}

// ---- update-batch ----

func prepareUpdateBatch(sz sizing, seed uint64) func() (instance, error) {
	keys := experiments.Keys(xrand.New(dataSeed), sz.Items, keySpace)
	opts := skipwebs.Options{Seed: dataSeed, WriteStripes: 4}
	ki := keyedInputs{keys: keys, model: sortedKeys(keys), seed: dataSeed, stripes: opts.WriteStripes}
	return func() (instance, error) {
		c := skipwebs.NewCluster(sz.Hosts)
		bl, err := skipwebs.NewBlocked(c, keys, opts)
		if err != nil {
			return nil, err
		}
		bu, err := skipwebs.NewBucketed(c, keys, opts)
		if err != nil {
			return nil, err
		}
		in := &clusterInstance{c: c, hosts: sz.Hosts, rounds: sz.Rounds, transport: true, writers: opts.WriteStripes, targets: []target{
			newKeyed("blocked", bl, ki, blockedTwin),
			newKeyed("bucketed", bu, ki, bucketTwin(len(keys))),
		}}
		in.gen = func(p, rounds int) []call { return genUpdateBatch(in, seed, p, rounds, sz.Batch) }
		return in, nil
	}
}

// genUpdateBatch lays out, per round and structure, an insert batch of
// fresh keys followed by the delete batch of the same keys, so every pass
// — and every round — ends on the key set it started from. Fresh keys are
// uniform over the key space: they spread over all write stripes.
func genUpdateBatch(in *clusterInstance, seed uint64, p, rounds, b int) []call {
	var calls []call
	for j, t := range in.targets {
		rng := passRand(seed, p, j)
		ops := make([]op, 0, rounds*2*b)
		for r := 0; r < rounds; r++ {
			ops = append(ops, freshUpdates(t, rng, b, func(i int) skipwebs.HostID { return origin(i, in.hosts) })...)
		}
		t.load(ops)
	}
	for r := 0; r < rounds; r++ {
		for j := range in.targets {
			lo := int32(r * 2 * b)
			calls = append(calls,
				call{t: uint8(j), batch: true, lo: lo, hi: lo + int32(b)},
				call{t: uint8(j), batch: true, lo: lo + int32(b), hi: lo + int32(2*b)})
		}
	}
	return calls
}

// ---- update-generic ----

func prepareUpdateGeneric(sz sizing, seed uint64) func() (instance, error) {
	rng := xrand.New(dataSeed)
	keys := experiments.Keys(rng, sz.Items, keySpace)
	pts := genPoints(rng, sz.Items)
	strs := genStrings(rng, sz.Items)
	ki := keyedInputs{keys: keys, model: sortedKeys(keys), seed: dataSeed}
	ptModel, strModel := pointModel(pts), stringModel(strs)
	opts := skipwebs.Options{Seed: dataSeed}
	return func() (instance, error) {
		c := skipwebs.NewCluster(sz.Hosts)
		od, err := skipwebs.NewOneDim(c, keys, opts)
		if err != nil {
			return nil, err
		}
		pt, err := skipwebs.NewPoints(c, 2, pts, opts)
		if err != nil {
			return nil, err
		}
		st, err := skipwebs.NewStrings(c, strs, opts)
		if err != nil {
			return nil, err
		}
		in := &clusterInstance{c: c, hosts: sz.Hosts, rounds: sz.Rounds, targets: []target{
			newKeyed("onedim", od, ki, webTwin),
			newPointsTarget(pt, pts, ptModel, dataSeed),
			newStringsTarget(st, strs, strModel, dataSeed, 1),
		}}
		in.gen = func(p, rounds int) []call { return genUpdateGeneric(in, seed, p, rounds) }
		return in, nil
	}
}

// genUpdateGeneric gives each structure `rounds` fresh items: the first
// half of the pass inserts them, interleaving the structures, and the
// second half deletes them in the same order.
func genUpdateGeneric(in *clusterInstance, seed uint64, p, rounds int) []call {
	nt := len(in.targets)
	for j, tg := range in.targets {
		tg.load(freshUpdates(tg, passRand(seed, p, j), rounds, func(i int) skipwebs.HostID {
			return origin(i*nt+j, in.hosts)
		}))
	}
	calls := make([]call, 0, 2*rounds*nt)
	for i := 0; i < 2*rounds; i++ {
		for j := 0; j < nt; j++ {
			calls = append(calls, call{t: uint8(j), lo: int32(i)})
		}
	}
	return calls
}

// freshUpdates returns n inserts of distinct items tg's model does not
// hold, followed by the n deletes of the same items in the same order.
func freshUpdates(tg target, rng *xrand.Rand, n int, originOf func(i int) skipwebs.HostID) []op {
	ops := make([]op, 2*n)
	usedK := make(map[uint64]bool, n)
	usedS := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		o := op{kind: opInsert, origin: originOf(i)}
		switch t := tg.(type) {
		case *keyed:
			o.key = freshKey(rng, t.model)
			for usedK[o.key] {
				o.key = freshKey(rng, t.model)
			}
			usedK[o.key] = true
		case *pointsTarget:
			for {
				o.pt = skipwebs.Point{uint32(rng.Uint64n(1 << 30)), uint32(rng.Uint64n(1 << 30))}
				if code := morton2(o.pt); !t.model[code] && !usedK[code] {
					usedK[code] = true
					break
				}
			}
		case *stringsTarget:
			for {
				o.str = randString(rng)
				if !t.model[o.str] && !usedS[o.str] {
					usedS[o.str] = true
					break
				}
			}
		}
		ops[i] = o
		o.kind = opDelete
		ops[n+i] = o
	}
	return ops
}

// ---- zipf-cached ----

// zipfPool is the number of adversarial absent keys, and of fresh keys the
// write slots cycle through, per structure. The fresh pool is fixed for
// the run: a negative bloom only ever gains keys, so an unbounded supply
// of fresh keys would make every pass slower than the one before it.
const zipfPool = 1024

func prepareZipfCached(sz sizing, seed uint64) func() (instance, error) {
	z := newZipfInputs(sz)
	strModel := stringModel(z.strs)
	return func() (instance, error) {
		c := skipwebs.NewCluster(sz.Hosts)
		bl, err := skipwebs.NewBlocked(c, z.keys, zipfOptions(true))
		if err != nil {
			return nil, err
		}
		st, err := skipwebs.NewStrings(c, z.strs, zipfOptions(true))
		if err != nil {
			return nil, err
		}
		in := &clusterInstance{c: c, hosts: sz.Hosts, rounds: sz.Rounds, cached: true, targets: []target{
			newKeyed("blocked", bl, z.ki, blockedTwin),
			newStringsTarget(st, z.strs, strModel, dataSeed, z.ki.stripes),
		}}
		in.gen = func(p, rounds int) []call { return genZipfCached(in, seed, p, rounds, z) }
		return in, nil
	}
}

// zipfOptions are the options zipf-cached's structures are built with;
// cached false gives the cache-free control the layer probes compare with.
func zipfOptions(cached bool) skipwebs.Options {
	return skipwebs.Options{Seed: dataSeed, WriteStripes: 4, CacheFingers: cached, NegativeBloom: cached}
}

// zipfInputs are zipf-cached's generated inputs: the stored items, the
// adversarial absent pools, and the fresh pools — absent from the stored
// items and from the absent pools — the write slots cycle through.
type zipfInputs struct {
	keys    []uint64
	ki      keyedInputs
	strs    []string
	absentK []uint64
	absentS []string
	freshK  []uint64
	freshS  []string
}

func newZipfInputs(sz sizing) zipfInputs {
	rng := xrand.New(dataSeed)
	keys := experiments.Keys(rng, sz.Items, keySpace)
	strs := genStrings(rng, sz.Items)
	pool := zipfPool
	if pool > sz.Items {
		pool = sz.Items
	}
	z := zipfInputs{keys: keys, strs: strs,
		ki:      keyedInputs{keys: keys, model: sortedKeys(keys), seed: dataSeed, stripes: zipfOptions(true).WriteStripes},
		absentK: xrand.AbsentKeys(dataSeed, keys, pool, keySpace),
		absentS: xrand.AbsentStrings(dataSeed, strs, pool),
	}
	takenK := make(map[uint64]bool, 2*pool)
	for _, k := range z.absentK {
		takenK[k] = true
	}
	takenS := stringModel(append(slices.Clone(strs), z.absentS...))
	for len(z.freshK) < pool {
		if k := freshKey(rng, z.ki.model); !takenK[k] {
			takenK[k] = true
			z.freshK = append(z.freshK, k)
		}
	}
	for len(z.freshS) < pool {
		if s := randString(rng); !takenS[s] {
			takenS[s] = true
			z.freshS = append(z.freshS, s)
		}
	}
	return z
}

// genZipfCached fills `rounds` op slots per structure, shuffled: of every
// 39 slots, 28 are reads, 10 membership queries (5 present, 5 absent) and
// one is a write. A write slot is two ops — the insert of a fresh key and
// its delete — so the ops split exactly 70/25/5. Stored keys are addressed
// by Zipf(1.2) rank (rank r is the r-th generated key).
func genZipfCached(in *clusterInstance, seed uint64, p, rounds int, z zipfInputs) []call {
	nt := len(in.targets)
	var calls []call
	lens := make([]int, nt)
	for j, tg := range in.targets {
		rng := passRand(seed, p, j)
		zipf := xrand.NewZipf(rng.Split(), 1.2, len(z.keys))
		slots := make([]uint8, rounds) // 0 read, 1 contains-present, 2 contains-absent, 3 write
		for i := range slots {
			switch m := i % 39; {
			case m < 28:
				slots[i] = 0
			case m < 33:
				slots[i] = 1
			case m < 38:
				slots[i] = 2
			default:
				slots[i] = 3
			}
		}
		rng.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
		ops := make([]op, 0, rounds+rounds/39+1)
		_, isKeyed := tg.(*keyed)
		fresh := p * 131 // where in the fresh pool this pass starts
		for i, s := range slots {
			o := op{origin: origin(i*nt+j, in.hosts)}
			switch s {
			case 0:
				r := zipf.Next()
				if isKeyed {
					o.kind, o.key = opFloor, z.keys[r]
				} else {
					o.kind, o.str = opSearch, z.strs[r]
				}
			case 1:
				r := zipf.Next()
				o.kind, o.key, o.str = opContains, z.keys[r], z.strs[r]
			case 2:
				a := rng.Intn(len(z.absentK))
				o.kind, o.key, o.str = opContains, z.absentK[a], z.absentS[a]
			case 3:
				f := fresh % len(z.freshK)
				fresh++
				o.kind, o.key, o.str = opInsert, z.freshK[f], z.freshS[f]
				ops = append(ops, o)
				o.kind = opDelete
			}
			ops = append(ops, o)
		}
		tg.load(ops)
		lens[j] = len(ops)
	}
	// interleave the structures op by op (their op counts are equal: the
	// slot proportions are exact)
	for i := 0; i < lens[0]; i++ {
		for j := 0; j < nt; j++ {
			if i < lens[j] {
				calls = append(calls, call{t: uint8(j), lo: int32(i)})
			}
		}
	}
	return calls
}
