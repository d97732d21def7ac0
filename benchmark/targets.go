package main

import (
	"fmt"
	"slices"
	"sort"

	skipwebs "github.com/skipwebs/skipwebs"
	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/quadtree"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/trapmap"
	"github.com/skipwebs/skipwebs/internal/trie"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// A target is one public structure under test, bundled with the plain
// model its answers are checked against and — in traced runs and layer
// probes — an engine twin: the same core engine built directly on a bare
// sim.Network from the same items and seed, so the identical op stream can
// be issued one layer down.
//
// Every run method stores its answer and returns nothing: answers are
// compared with the model by check, after the pass, outside the timed
// region.

type opKind uint8

const (
	opFloor opKind = iota
	opContains
	opRange
	opInsert
	opDelete
	opLocate // Points.Locate, Planar.Locate
	opSearch // Strings.Search
)

// op is one generated operation. Which fields are used depends on the
// target: key/hi carry a key, a [lo, hi] range, or planar x/y.
type op struct {
	kind   opKind
	origin skipwebs.HostID
	key    uint64
	hi     uint64
	pt     skipwebs.Point
	str    string
}

type target interface {
	label() string
	// load installs the ops of the coming pass and sizes answer storage.
	load(ops []op)
	// run issues op i through the public synchronous method.
	run(i int)
	// runBatch issues ops [lo, hi), all of one kind, as one public batch call.
	runBatch(lo, hi int)
	// buildTwin builds the engine twin on a bare network of the given width.
	buildTwin(hosts int) error
	// runCore issues op i against the engine twin.
	runCore(i int)
	// hops is the message count answered for op i by the latest run.
	hops(i int) int
	// check compares the stored answers with the model. It is meaningful
	// after run and runBatch; runCore keeps hop counts only.
	check() (failed int, first error)
	// finish compares the structure's end state with the model.
	finish() error
	// items is the number of items stored; len the number of loaded ops.
	items() int
	len() int
	// kind is op i's kind; stripe the write stripe it routes to (0 when
	// unstriped).
	kind(i int) opKind
	stripe(i int) int
}

// stripeCuts mirrors the root package's stripe routing table (stripes.go):
// given the build items' stripe codes in ascending order, the rank-balanced
// separator codes of up to `want` stripes; equal codes never straddle a
// cut. Stripe i owns the codes in [cuts[i-1], cuts[i]).
func stripeCuts(sortedCodes []uint64, want int) []uint64 {
	var cuts []uint64
	if want > len(sortedCodes) {
		want = len(sortedCodes)
	}
	for i := 1; i < want; i++ {
		pos := i * len(sortedCodes) / want
		for pos < len(sortedCodes) && pos > 0 && sortedCodes[pos] == sortedCodes[pos-1] {
			pos++
		}
		if pos >= len(sortedCodes) {
			break
		}
		if c := sortedCodes[pos]; len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

func stripeOf(cuts []uint64, code uint64) int {
	return sort.Search(len(cuts), func(i int) bool { return cuts[i] > code })
}

// cutByStripe splits items, sorted by code, into one contiguous part per
// stripe.
func cutByStripe[T any](sorted []T, codeOf func(T) uint64, cuts []uint64) [][]T {
	parts := make([][]T, len(cuts)+1)
	start := 0
	for i := range parts {
		end := start
		for end < len(sorted) && stripeOf(cuts, codeOf(sorted[end])) == i {
			end++
		}
		parts[i] = sorted[start:end]
		start = end
	}
	return parts
}

// stripeSeed is the structural seed of stripe i, as the root package
// derives it.
func stripeSeed(seed uint64, i, stripes int) uint64 {
	if stripes <= 1 {
		return seed
	}
	return xrand.Substream(seed, i)
}

// ---- uint64-keyed structures: OneDim, Blocked, Bucketed ----

type keyedAPI interface {
	Floor(q uint64, origin skipwebs.HostID) (skipwebs.FloorResult, error)
	Contains(key uint64, origin skipwebs.HostID) (bool, int, error)
	Insert(key uint64, origin skipwebs.HostID) (int, error)
	Delete(key uint64, origin skipwebs.HostID) (int, error)
	FloorBatch(qs []uint64, origins []skipwebs.HostID) ([]skipwebs.FloorResult, error)
	InsertBatch(keys []uint64, origins []skipwebs.HostID) ([]int, error)
	DeleteBatch(keys []uint64, origins []skipwebs.HostID) ([]int, error)
	Len() int
}

// rangedAPI is the part of the keyed surface OneDim lacks.
type rangedAPI interface {
	Range(lo, hi uint64, origin skipwebs.HostID) ([]uint64, int, error)
	RangeBatch(rs []skipwebs.KeyRange, origins []skipwebs.HostID) ([]skipwebs.RangeResult, error)
}

// keyedEngine is the engine surface shared by BlockedWeb, BucketWeb and
// (through webFloor) the generic Web over a ListLevel.
type keyedEngine interface {
	Query(q uint64, origin sim.HostID) (uint64, bool, int, error)
	Insert(k uint64, origin sim.HostID) (int, error)
	Delete(k uint64, origin sim.HostID) (int, error)
}

// webFloor maps the generic web's terminal-range answer onto the floor
// surface, exactly as OneDim.Floor does.
type webFloor struct {
	w *core.Web[*core.ListLevel, uint64, uint64]
}

func (a webFloor) Query(q uint64, origin sim.HostID) (uint64, bool, int, error) {
	res, err := a.w.Query(q, origin)
	if err != nil {
		return 0, false, 0, err
	}
	g := a.w.GroundStructure()
	if g.IsHead(res.Range) {
		return 0, false, res.Hops, nil
	}
	return g.Key(res.Range), true, res.Hops, nil
}
func (a webFloor) Insert(k uint64, o sim.HostID) (int, error) { return a.w.Insert(k, o) }
func (a webFloor) Delete(k uint64, o sim.HostID) (int, error) { return a.w.Delete(k, o) }

type keyAns struct {
	key   uint64
	hops  int32
	found bool
	bad   bool // the call returned an error
}

// keyedInputs is what a keyed structure was built from.
type keyedInputs struct {
	keys    []uint64 // in build order
	model   []uint64 // the same keys, sorted; passes leave the stored set as they found it
	seed    uint64
	stripes int // Options.WriteStripes
}

// engineMaker builds the engine a keyed structure wraps — or one stripe of
// it — over net.
type engineMaker func(net *sim.Network, keys []uint64, seed uint64) (keyedEngine, error)

// stripedEngine is the twin of a striped structure: one engine per stripe,
// routed and seeded as the public structure does it. A floor falls back
// across lower stripes when its own holds nothing at or below the query.
type stripedEngine struct {
	cuts    []uint64
	engines []keyedEngine
}

func (e *stripedEngine) Query(q uint64, origin sim.HostID) (uint64, bool, int, error) {
	hops := 0
	for i := stripeOf(e.cuts, q); ; i-- {
		k, ok, h, err := e.engines[i].Query(q, origin)
		hops += h
		if ok || err != nil || i == 0 {
			return k, ok, hops, err
		}
	}
}

func (e *stripedEngine) Insert(k uint64, o sim.HostID) (int, error) {
	return e.engines[stripeOf(e.cuts, k)].Insert(k, o)
}

func (e *stripedEngine) Delete(k uint64, o sim.HostID) (int, error) {
	return e.engines[stripeOf(e.cuts, k)].Delete(k, o)
}

type keyed struct {
	name string
	api  keyedAPI
	keyedInputs
	cuts     []uint64
	makeTwin engineMaker
	eng      keyedEngine

	ops    []op
	ans    []keyAns
	ranges [][]uint64
	// batch argument scratch, reused so a batch call allocates only what
	// the public method itself allocates
	qs      []uint64
	krs     []skipwebs.KeyRange
	origins []skipwebs.HostID
}

// Models are built by the workload's prepare step and shared by every
// instance it builds, so that neither their construction time nor their
// memory is charged to the structures under test.

func sortedKeys(keys []uint64) []uint64 {
	model := slices.Clone(keys)
	slices.Sort(model)
	return model
}

func newKeyed(name string, api keyedAPI, in keyedInputs, makeTwin engineMaker) *keyed {
	t := &keyed{name: name, api: api, keyedInputs: in, makeTwin: makeTwin}
	if in.stripes > 1 {
		t.cuts = stripeCuts(in.model, in.stripes)
	}
	return t
}

func (t *keyed) label() string { return t.name }
func (t *keyed) items() int    { return len(t.model) }
func (t *keyed) len() int      { return len(t.ops) }

func (t *keyed) kind(i int) opKind { return t.ops[i].kind }
func (t *keyed) stripe(i int) int  { return stripeOf(t.cuts, t.ops[i].key) }

func (t *keyed) load(ops []op) {
	t.ops = ops
	if cap(t.ans) < len(ops) {
		t.ans = make([]keyAns, len(ops))
	}
	t.ans = t.ans[:len(ops)]
	t.ranges = t.ranges[:0]
	for _, o := range ops {
		if o.kind == opRange {
			t.ranges = make([][]uint64, len(ops))
			break
		}
	}
}

func (t *keyed) run(i int) {
	o := &t.ops[i]
	a := &t.ans[i]
	switch o.kind {
	case opFloor:
		r, err := t.api.Floor(o.key, o.origin)
		*a = keyAns{key: r.Key, found: r.Found, hops: int32(r.Hops), bad: err != nil}
	case opContains:
		ok, h, err := t.api.Contains(o.key, o.origin)
		*a = keyAns{found: ok, hops: int32(h), bad: err != nil}
	case opRange:
		ks, h, err := t.api.(rangedAPI).Range(o.key, o.hi, o.origin)
		t.ranges[i] = ks
		*a = keyAns{hops: int32(h), bad: err != nil}
	case opInsert:
		h, err := t.api.Insert(o.key, o.origin)
		*a = keyAns{hops: int32(h), bad: err != nil}
	case opDelete:
		h, err := t.api.Delete(o.key, o.origin)
		*a = keyAns{hops: int32(h), bad: err != nil}
	}
}

func (t *keyed) runBatch(lo, hi int) {
	n := hi - lo
	t.origins, t.qs, t.krs = t.origins[:0], t.qs[:0], t.krs[:0]
	for i := lo; i < hi; i++ {
		o := &t.ops[i]
		t.origins = append(t.origins, o.origin)
		t.qs = append(t.qs, o.key)
		t.krs = append(t.krs, skipwebs.KeyRange{Lo: o.key, Hi: o.hi})
	}
	ans := t.ans[lo:hi]
	bad := func() {
		for j := range ans {
			ans[j] = keyAns{bad: true}
		}
	}
	switch kind := t.ops[lo].kind; kind {
	case opFloor:
		rs, err := t.api.FloorBatch(t.qs, t.origins)
		if err != nil || len(rs) != n {
			bad()
			return
		}
		for j, r := range rs {
			ans[j] = keyAns{key: r.Key, found: r.Found, hops: int32(r.Hops)}
		}
	case opRange:
		rs, err := t.api.(rangedAPI).RangeBatch(t.krs, t.origins)
		if err != nil || len(rs) != n {
			bad()
			return
		}
		for j, r := range rs {
			t.ranges[lo+j] = r.Keys
			ans[j] = keyAns{hops: int32(r.Hops)}
		}
	case opInsert, opDelete:
		call := t.api.InsertBatch
		if kind == opDelete {
			call = t.api.DeleteBatch
		}
		hs, err := call(t.qs, t.origins)
		if err != nil || len(hs) != n {
			bad()
			return
		}
		for j, h := range hs {
			ans[j] = keyAns{hops: int32(h)}
		}
	default:
		panic(fmt.Sprint("benchmark: no batch form for op kind ", kind))
	}
}

func (t *keyed) buildTwin(hosts int) error {
	if t.eng != nil {
		return nil
	}
	net := sim.NewNetwork(hosts)
	if len(t.cuts) == 0 {
		eng, err := t.makeTwin(net, t.keys, t.seed)
		t.eng = eng
		return err
	}
	parts := cutByStripe(t.model, func(k uint64) uint64 { return k }, t.cuts)
	striped := &stripedEngine{cuts: t.cuts}
	for i, part := range parts {
		eng, err := t.makeTwin(net, part, stripeSeed(t.seed, i, len(parts)))
		if err != nil {
			return err
		}
		striped.engines = append(striped.engines, eng)
	}
	t.eng = striped
	return nil
}

// engineRanger is the engine-side range query (BlockedWeb, BucketWeb).
type engineRanger interface {
	Range(lo, hi uint64, origin sim.HostID) ([]uint64, int, error)
}

func (t *keyed) runCore(i int) {
	o := &t.ops[i]
	a := &t.ans[i]
	switch o.kind {
	case opFloor, opContains:
		k, ok, h, err := t.eng.Query(o.key, o.origin)
		if o.kind == opContains {
			ok = ok && k == o.key
		}
		*a = keyAns{key: k, found: ok, hops: int32(h), bad: err != nil}
	case opRange:
		ks, h, err := t.eng.(engineRanger).Range(o.key, o.hi, o.origin)
		t.ranges[i] = ks
		*a = keyAns{hops: int32(h), bad: err != nil}
	case opInsert:
		h, err := t.eng.Insert(o.key, o.origin)
		*a = keyAns{hops: int32(h), bad: err != nil}
	case opDelete:
		h, err := t.eng.Delete(o.key, o.origin)
		*a = keyAns{hops: int32(h), bad: err != nil}
	}
}

func (t *keyed) hops(i int) int { return int(t.ans[i].hops) }

// floorIn is the model's floor: the largest key of the sorted model <= q.
func floorIn(model []uint64, q uint64) (uint64, bool) {
	i := sort.Search(len(model), func(i int) bool { return model[i] > q })
	if i == 0 {
		return 0, false
	}
	return model[i-1], true
}

func (t *keyed) check() (failed int, first error) {
	fail := func(i int, format string, args ...any) {
		failed++
		if first == nil {
			first = fmt.Errorf("%s op %d: %s", t.name, i, fmt.Sprintf(format, args...))
		}
	}
	for i := range t.ops {
		o, a := &t.ops[i], &t.ans[i]
		if a.bad {
			fail(i, "call returned an error")
			continue
		}
		switch o.kind {
		case opFloor:
			k, ok := floorIn(t.model, o.key)
			if a.found != ok || (ok && a.key != k) {
				fail(i, "floor(%d) = (%d, %v), model says (%d, %v)", o.key, a.key, a.found, k, ok)
			}
		case opContains:
			k, ok := floorIn(t.model, o.key)
			if want := ok && k == o.key; a.found != want {
				fail(i, "contains(%d) = %v, model says %v", o.key, a.found, want)
			}
		case opRange:
			lo := sort.Search(len(t.model), func(j int) bool { return t.model[j] >= o.key })
			hi := sort.Search(len(t.model), func(j int) bool { return t.model[j] > o.hi })
			if !slices.Equal(t.ranges[i], t.model[lo:hi]) {
				fail(i, "range[%d, %d] returned %d keys, model says %d", o.key, o.hi, len(t.ranges[i]), hi-lo)
			}
		}
	}
	return failed, first
}

func (t *keyed) finish() error {
	if n := t.api.Len(); n != len(t.model) {
		return fmt.Errorf("%s: Len() = %d after the last pass, model holds %d", t.name, n, len(t.model))
	}
	var got []uint64
	switch api := t.api.(type) {
	case interface{ Keys() []uint64 }:
		got = api.Keys()
	case rangedAPI:
		var err error
		if got, _, err = api.Range(0, ^uint64(0), 0); err != nil {
			return fmt.Errorf("%s: reading the final key set: %w", t.name, err)
		}
	}
	if !slices.Equal(got, t.model) {
		return fmt.Errorf("%s: final key set differs from the model (%d keys vs %d)", t.name, len(got), len(t.model))
	}
	return nil
}

// ---- Points ----

type pointAns struct {
	loc   skipwebs.PointLocation
	hops  int32
	found bool
	bad   bool
}

type pointsTarget struct {
	api   *skipwebs.Points
	seed  uint64
	pts   []skipwebs.Point
	model map[uint64]bool // Morton codes of the stored points

	qops  *core.QuadOps
	eng   *core.Web[*quadtree.Tree, quadtree.Point, uint64]
	codes []uint64 // per-op Morton code for the engine twin, computed in load

	ops []op
	ans []pointAns
}

func pointModel(pts []skipwebs.Point) map[uint64]bool {
	model := make(map[uint64]bool, len(pts))
	for _, p := range pts {
		model[morton2(p)] = true
	}
	return model
}

func newPointsTarget(api *skipwebs.Points, pts []skipwebs.Point, model map[uint64]bool, seed uint64) *pointsTarget {
	return &pointsTarget{api: api, seed: seed, pts: pts, model: model}
}

// morton2 interleaves the 31 low bits of a 2-d point's coordinates,
// dimension 0 first — the oracle's own copy of the quadtree's code.
func morton2(p skipwebs.Point) uint64 {
	var code uint64
	for b := 30; b >= 0; b-- {
		code = code<<1 | uint64(p[0]>>uint(b)&1)
		code = code<<1 | uint64(p[1]>>uint(b)&1)
	}
	return code
}

func (t *pointsTarget) label() string     { return "points" }
func (t *pointsTarget) items() int        { return len(t.pts) }
func (t *pointsTarget) len() int          { return len(t.ops) }
func (t *pointsTarget) kind(i int) opKind { return t.ops[i].kind }
func (t *pointsTarget) stripe(int) int    { return 0 }

func (t *pointsTarget) load(ops []op) {
	t.ops = ops
	if cap(t.ans) < len(ops) {
		t.ans = make([]pointAns, len(ops))
	}
	t.ans = t.ans[:len(ops)]
	if t.eng != nil {
		t.codes = t.codes[:0]
		for _, o := range ops {
			t.codes = append(t.codes, morton2(o.pt))
		}
	}
}

func (t *pointsTarget) run(i int) {
	o := &t.ops[i]
	switch o.kind {
	case opLocate:
		loc, err := t.api.Locate(o.pt, o.origin)
		t.ans[i] = pointAns{loc: loc, hops: int32(loc.Hops), bad: err != nil}
	case opInsert:
		h, err := t.api.Insert(o.pt, o.origin)
		t.ans[i] = pointAns{hops: int32(h), bad: err != nil}
	case opDelete:
		h, err := t.api.Delete(o.pt, o.origin)
		t.ans[i] = pointAns{hops: int32(h), bad: err != nil}
	}
}

func (t *pointsTarget) runBatch(lo, hi int) { panic("benchmark: points has no batch workload") }

func (t *pointsTarget) buildTwin(hosts int) error {
	if t.eng != nil {
		return nil
	}
	items := make([]quadtree.Point, len(t.pts))
	for i, p := range t.pts {
		items[i] = quadtree.Point(p)
	}
	t.qops = core.NewQuadOps(2)
	eng, err := core.NewWeb[*quadtree.Tree, quadtree.Point, uint64](
		t.qops, sim.NewNetwork(hosts), items, core.Config{Seed: t.seed})
	t.eng = eng
	return err
}

func (t *pointsTarget) runCore(i int) {
	o := &t.ops[i]
	switch o.kind {
	case opLocate:
		res, err := t.eng.Query(t.codes[i], o.origin)
		t.ans[i] = pointAns{hops: int32(res.Hops), bad: err != nil}
	case opInsert:
		h, err := t.eng.Insert(quadtree.Point(o.pt), o.origin)
		t.ans[i] = pointAns{hops: int32(h), bad: err != nil}
	case opDelete:
		h, err := t.eng.Delete(quadtree.Point(o.pt), o.origin)
		t.ans[i] = pointAns{hops: int32(h), bad: err != nil}
	}
}

func (t *pointsTarget) hops(i int) int { return int(t.ans[i].hops) }

func (t *pointsTarget) check() (failed int, first error) {
	for i := range t.ops {
		o, a := &t.ops[i], &t.ans[i]
		var why string
		switch {
		case a.bad:
			why = "call returned an error"
		case o.kind != opLocate:
		default:
			code := morton2(o.pt)
			loc := a.loc
			stored := t.model[code]
			switch {
			case loc.CellBits < 0 || loc.CellBits > 62:
				why = fmt.Sprintf("cell of %d bits", loc.CellBits)
			case loc.CellBits > 0 && code>>uint(62-loc.CellBits) != loc.CellPrefix:
				why = "located cell does not contain the query point"
			case loc.Leaf != stored:
				why = fmt.Sprintf("leaf = %v, but model stores the point: %v", loc.Leaf, stored)
			case loc.Leaf && morton2(loc.LeafPoint) != code:
				why = "leaf point differs from the stored query point"
			}
		}
		if why != "" {
			failed++
			if first == nil {
				first = fmt.Errorf("points op %d (%v): %s", i, o.pt, why)
			}
		}
	}
	return failed, first
}

func (t *pointsTarget) finish() error {
	if n := t.api.Len(); n != len(t.model) {
		return fmt.Errorf("points: Len() = %d after the last pass, model holds %d", n, len(t.model))
	}
	for i, p := range t.pts {
		ok, _, err := t.api.Contains(p, 0)
		if err != nil || !ok {
			return fmt.Errorf("points: stored point %d (%v) not found after the last pass (err %v)", i, p, err)
		}
	}
	return nil
}

// ---- Strings ----

type stringAns struct {
	loc   skipwebs.StringLocation
	hops  int32
	found bool
	bad   bool
}

type stringsTarget struct {
	api     *skipwebs.Strings
	seed    uint64
	stripes int // Options.WriteStripes
	keys    []string
	model   map[string]bool

	// one engine per stripe, cut on the keys' first-eight-byte codes
	cuts []uint64
	eng  []*core.Web[*trie.Trie, string, string]

	ops []op
	ans []stringAns
}

func stringModel(keys []string) map[string]bool {
	model := make(map[string]bool, len(keys))
	for _, k := range keys {
		model[k] = true
	}
	return model
}

func newStringsTarget(api *skipwebs.Strings, keys []string, model map[string]bool, seed uint64, stripes int) *stringsTarget {
	return &stringsTarget{api: api, seed: seed, stripes: stripes, keys: keys, model: model}
}

// stringCode is a string's stripe code: its first eight bytes, big-endian,
// zero-padded.
func stringCode(s string) uint64 {
	var code uint64
	for i := 0; i < 8; i++ {
		code <<= 8
		if i < len(s) {
			code |= uint64(s[i])
		}
	}
	return code
}

func (t *stringsTarget) label() string { return "strings" }
func (t *stringsTarget) items() int    { return len(t.keys) }
func (t *stringsTarget) len() int      { return len(t.ops) }

func (t *stringsTarget) kind(i int) opKind { return t.ops[i].kind }
func (t *stringsTarget) stripe(i int) int  { return stripeOf(t.cuts, stringCode(t.ops[i].str)) }

func (t *stringsTarget) load(ops []op) {
	t.ops = ops
	if cap(t.ans) < len(ops) {
		t.ans = make([]stringAns, len(ops))
	}
	t.ans = t.ans[:len(ops)]
}

func (t *stringsTarget) run(i int) {
	o := &t.ops[i]
	switch o.kind {
	case opSearch:
		loc, err := t.api.Search(o.str, o.origin)
		t.ans[i] = stringAns{loc: loc, hops: int32(loc.Hops), bad: err != nil}
	case opContains:
		ok, h, err := t.api.Contains(o.str, o.origin)
		t.ans[i] = stringAns{found: ok, hops: int32(h), bad: err != nil}
	case opInsert:
		h, err := t.api.Insert(o.str, o.origin)
		t.ans[i] = stringAns{hops: int32(h), bad: err != nil}
	case opDelete:
		h, err := t.api.Delete(o.str, o.origin)
		t.ans[i] = stringAns{hops: int32(h), bad: err != nil}
	}
}

func (t *stringsTarget) runBatch(lo, hi int) { panic("benchmark: strings has no batch workload") }

func (t *stringsTarget) buildTwin(hosts int) error {
	if t.eng != nil {
		return nil
	}
	net := sim.NewNetwork(hosts)
	parts := [][]string{t.keys}
	if t.stripes > 1 {
		sorted := append([]string(nil), t.keys...)
		sort.Strings(sorted)
		codes := make([]uint64, len(sorted))
		for i, s := range sorted {
			codes[i] = stringCode(s)
		}
		t.cuts = stripeCuts(codes, t.stripes)
		parts = cutByStripe(sorted, stringCode, t.cuts)
	}
	for i, part := range parts {
		eng, err := core.NewWeb[*trie.Trie, string, string](
			core.NewTrieOps(), net, part, core.Config{Seed: stripeSeed(t.seed, i, len(parts))})
		if err != nil {
			return err
		}
		t.eng = append(t.eng, eng)
	}
	return nil
}

func (t *stringsTarget) runCore(i int) {
	o := &t.ops[i]
	eng := t.eng[stripeOf(t.cuts, stringCode(o.str))]
	switch o.kind {
	case opSearch, opContains:
		res, err := eng.Query(o.str, o.origin)
		t.ans[i] = stringAns{hops: int32(res.Hops), bad: err != nil}
	case opInsert:
		h, err := eng.Insert(o.str, o.origin)
		t.ans[i] = stringAns{hops: int32(h), bad: err != nil}
	case opDelete:
		h, err := eng.Delete(o.str, o.origin)
		t.ans[i] = stringAns{hops: int32(h), bad: err != nil}
	}
}

func (t *stringsTarget) hops(i int) int { return int(t.ans[i].hops) }

func (t *stringsTarget) check() (failed int, first error) {
	for i := range t.ops {
		o, a := &t.ops[i], &t.ans[i]
		var why string
		switch {
		case a.bad:
			why = "call returned an error"
		case o.kind == opContains:
			if a.found != t.model[o.str] {
				why = fmt.Sprintf("contains = %v, model says %v", a.found, t.model[o.str])
			}
		case o.kind == opSearch:
			loc := a.loc
			switch {
			case loc.Exact != t.model[o.str]:
				why = fmt.Sprintf("exact = %v, model says %v", loc.Exact, t.model[o.str])
			case len(loc.Locus) > len(o.str) || o.str[:len(loc.Locus)] != loc.Locus:
				why = fmt.Sprintf("locus %q is not a prefix of the query", loc.Locus)
			case loc.IsKey != t.model[loc.Locus]:
				why = fmt.Sprintf("locus %q: is-key = %v, model says %v", loc.Locus, loc.IsKey, t.model[loc.Locus])
			case loc.Exact && loc.Locus != o.str:
				why = fmt.Sprintf("exact match with locus %q", loc.Locus)
			}
		}
		if why != "" {
			failed++
			if first == nil {
				first = fmt.Errorf("strings op %d (%q): %s", i, o.str, why)
			}
		}
	}
	return failed, first
}

func (t *stringsTarget) finish() error {
	if n := t.api.Len(); n != len(t.model) {
		return fmt.Errorf("strings: Len() = %d after the last pass, model holds %d", n, len(t.model))
	}
	for _, k := range t.keys {
		ok, _, err := t.api.Contains(k, 0)
		if err != nil || !ok {
			return fmt.Errorf("strings: stored key %q not found after the last pass (err %v)", k, err)
		}
	}
	return nil
}

// ---- Planar ----

type planarTarget struct {
	api    *skipwebs.Planar
	seed   uint64
	segs   []skipwebs.PlanarSegment
	bounds skipwebs.PlanarBounds

	eng *core.Web[*trapmap.Map, trapmap.Segment, trapmap.Point]

	ops []op
	ans []skipwebs.Trapezoid
	hop []int32
	bad []bool
}

func newPlanarTarget(api *skipwebs.Planar, segs []skipwebs.PlanarSegment, bounds skipwebs.PlanarBounds, seed uint64) *planarTarget {
	return &planarTarget{api: api, seed: seed, segs: segs, bounds: bounds}
}

func (t *planarTarget) label() string   { return "planar" }
func (t *planarTarget) items() int      { return len(t.segs) }
func (t *planarTarget) len() int        { return len(t.ops) }
func (t *planarTarget) kind(int) opKind { return opLocate }
func (t *planarTarget) stripe(int) int  { return 0 }

func (t *planarTarget) load(ops []op) {
	t.ops = ops
	if cap(t.ans) < len(ops) {
		t.ans = make([]skipwebs.Trapezoid, len(ops))
		t.hop = make([]int32, len(ops))
		t.bad = make([]bool, len(ops))
	}
	t.ans, t.hop, t.bad = t.ans[:len(ops)], t.hop[:len(ops)], t.bad[:len(ops)]
}

func (t *planarTarget) run(i int) {
	o := &t.ops[i]
	tr, err := t.api.Locate(skipwebs.PlanarPoint{X: int64(o.key), Y: int64(o.hi)}, o.origin)
	t.ans[i], t.hop[i], t.bad[i] = tr, int32(tr.Hops), err != nil
}

func (t *planarTarget) runBatch(lo, hi int) { panic("benchmark: planar has no batch workload") }

func (t *planarTarget) buildTwin(hosts int) error {
	if t.eng != nil {
		return nil
	}
	segs := make([]trapmap.Segment, len(t.segs))
	for i, s := range t.segs {
		segs[i] = trapmap.Segment{A: trapmap.Point{X: s.A.X, Y: s.A.Y}, B: trapmap.Point{X: s.B.X, Y: s.B.Y}}
	}
	b := t.bounds
	eng, err := core.NewWeb[*trapmap.Map, trapmap.Segment, trapmap.Point](
		core.TrapOps{Bounds: trapmap.Rect{MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY}},
		sim.NewNetwork(hosts), segs, core.Config{Seed: t.seed})
	t.eng = eng
	return err
}

func (t *planarTarget) runCore(i int) {
	o := &t.ops[i]
	res, err := t.eng.Query(trapmap.Point{X: int64(o.key), Y: int64(o.hi)}, o.origin)
	t.hop[i], t.bad[i] = int32(res.Hops), err != nil
}

func (t *planarTarget) hops(i int) int { return int(t.hop[i]) }

// planarSampleEvery is the oracle's sampling stride: the brute-force
// trapezoid check is O(segments) per query, so it runs on 1 % of them.
const planarSampleEvery = 100

func (t *planarTarget) check() (failed int, first error) {
	for i := range t.ops {
		var why string
		switch {
		case t.bad[i]:
			why = "call returned an error"
		case i%planarSampleEvery != 0:
		default:
			why = t.bruteForce(int64(t.ops[i].key), int64(t.ops[i].hi), t.ans[i])
		}
		if why != "" {
			failed++
			if first == nil {
				first = fmt.Errorf("planar op %d (%d, %d): %s", i, int64(t.ops[i].key), int64(t.ops[i].hi), why)
			}
		}
	}
	return failed, first
}

// bruteForce checks a located trapezoid against every segment. The query
// is perturbed up and to the right by a quarter unit, as the structure
// documents, so a point on a segment or wall resolves to the face above
// and to the right; all arithmetic is exact in coordinates scaled by 4.
func (t *planarTarget) bruteForce(x, y int64, got skipwebs.Trapezoid) string {
	px, py := 4*x+1, 4*y+1
	var top, bottom *skipwebs.PlanarSegment
	// above reports a(px) > b(px), comparing the two segments' heights at
	// abscissa px by cross-multiplying their (positive) widths.
	above := func(a, b *skipwebs.PlanarSegment) bool {
		adx, bdx := 4*(a.B.X-a.A.X), 4*(b.B.X-b.A.X)
		an := (4*a.A.Y*adx + 4*(a.B.Y-a.A.Y)*(px-4*a.A.X)) * bdx
		bn := (4*b.A.Y*bdx + 4*(b.B.Y-b.A.Y)*(px-4*b.A.X)) * adx
		return an > bn
	}
	for i := range t.segs {
		s := &t.segs[i]
		if !(4*s.A.X < px && px < 4*s.B.X) {
			continue
		}
		cross := 4*(s.B.X-s.A.X)*(py-4*s.A.Y) - 4*(s.B.Y-s.A.Y)*(px-4*s.A.X)
		if cross >= 0 { // s passes at or below the query
			if bottom == nil || above(s, bottom) {
				bottom = s
			}
		} else if top == nil || above(top, s) {
			top = s
		}
	}
	switch {
	case got.HasTop != (top != nil) || (top != nil && got.Top != *top):
		return fmt.Sprintf("top = %+v (has %v), brute force says %+v", got.Top, got.HasTop, top)
	case got.HasBottom != (bottom != nil) || (bottom != nil && got.Bottom != *bottom):
		return fmt.Sprintf("bottom = %+v (has %v), brute force says %+v", got.Bottom, got.HasBottom, bottom)
	case !(got.LeftX <= x && x < got.RightX):
		return fmt.Sprintf("walls [%d, %d) do not span x", got.LeftX, got.RightX)
	}
	return ""
}

func (t *planarTarget) finish() error {
	if n := t.api.Len(); n != len(t.segs) {
		return fmt.Errorf("planar: Len() = %d, built over %d segments", n, len(t.segs))
	}
	return nil
}
