package skipwebs

import (
	"sync"
	"sync/atomic"

	"github.com/skipwebs/skipwebs/internal/bloom"
)

// Read-path caching.
//
// Options.CacheFingers and Options.NegativeBloom add two opt-in
// origin-local accelerators for skewed query traffic. Both live entirely
// at the query's origin host and never touch the network, so the
// accounting contract is simple and absolute: a cache or bloom answer
// charges zero messages (the origin re-serves a frontier a previous
// descent already paid for), and a miss runs the completely unmodified
// descent — populating the cache is local bookkeeping. Per-op messages
// are therefore <= the cache-free control on every single operation, and
// with both options off the query path is bit-identical to previous
// builds (golden parity pins this).
//
// Correctness is an epoch check, not an invalidation broadcast. With
// CacheFingers on, the structure's stripeSet carries an epoch table
// (stripes.go:epochTable): every stripe's code range is cut at build into
// a fixed number of rank-balanced buckets, each with a write epoch, and a
// writer bumps the bucket of the key it is about to change — under the
// stripe writer lock it already holds and BEFORE the mutation, so an
// epoch observed under the stripe's reader lock is exactly the epoch of
// the data read. Every cache entry records the bucket interval its
// answer depends on (the code interval outside which no insert or delete
// can change it — each query method states its own, see the table in
// ARCHITECTURE.md) and the sum of those buckets' epochs plus a
// per-structure churn counter bumped by the rehome / rebalance / repair
// / restart hooks. On lookup the same sum is recomputed from the live
// counters: all counters are monotonic, so sum-equality implies each
// component is unchanged, which implies no writer to those buckets
// completed (or is mid-flight — the epoch bumps before the mutation) and
// no churn ran since the entry was captured. A bucket belongs to exactly
// one stripe and is bumped only under that stripe's writer lock, so an
// interval spanning several stripes is the sum of per-stripe parts each
// read under its own reader lock. Any mismatch evicts the entry and
// falls through to a full descent. Entries never outlive their epoch;
// there is nothing to flush on Join/Leave/Crash/Restart beyond the churn
// bump.
//
// The negative bloom is a per-stripe filter over the hashes of stored
// keys with superset semantics: Insert adds (under the stripe writer
// lock, batched or not), Delete removes nothing, and
// churn moves placement but not membership, so the filter is always a
// superset of the stored set. "Definitely absent" answers are thus
// always correct and cost zero messages; a stale "maybe" only forces the
// full (correct) descent. One asymmetry is deliberate: a bloom negative
// during a crash answers (false, 0 msgs) where the control would fail
// fast with ErrHostDown — the filter knows the key was never stored, so
// it answers without needing the dead host
// (TestBloomNegativeDuringCrash).

// CacheStats reports the read-path cache counters of one host or an
// aggregate of hosts (see Cluster.CacheStatsByHost and Cluster.Stats).
// Counters are attributed to the origin host of the query that moved
// them.
type CacheStats struct {
	// Hits counts queries answered from the finger cache (zero messages).
	Hits int64
	// Misses counts cache lookups that ran the full descent (absent or
	// stale entries; stale ones also count an Invalidation).
	Misses int64
	// Invalidations counts entries evicted because their epoch check
	// failed — a write or delete touched their epoch buckets, or a churn
	// event ran.
	Invalidations int64
	// BloomTrueNegatives counts membership queries answered "definitely
	// absent" by the negative bloom (zero messages).
	BloomTrueNegatives int64
	// BloomFalsePositives counts membership queries the bloom let through
	// ("maybe present") whose full descent then answered absent.
	BloomFalsePositives int64
}

// add accumulates o into s.
func (s *CacheStats) add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Invalidations += o.Invalidations
	s.BloomTrueNegatives += o.BloomTrueNegatives
	s.BloomFalsePositives += o.BloomFalsePositives
}

// Cache entry kinds. Each query family gets its own tag so e.g. a Floor
// and a Contains for the same key never collide.
const (
	opFloor uint8 = iota + 1
	opContains
	opLocate
	opNearest
	opSearch
	opPrefix
	opPlanarLocate
)

// cacheShardCap bounds each origin host's LRU shard. 256 entries is
// plenty for the hot set of a Zipf workload while keeping the per-host
// footprint trivial next to the host's data shard.
const cacheShardCap = 256

// cacheKey identifies one cached answer: the op tag plus the query's
// exact identity (uint64 key or Morton code in code, planar Y in code2,
// string queries in str). Keys are exact — hits require identity, never
// similarity — so a hit can only ever return the answer the control
// would compute.
type cacheKey struct {
	op    uint8
	code  uint64
	code2 uint64
	str   string
}

// cacheEntry is one LRU slot: the memoized value, the epoch-bucket
// interval [lo, hi] the answer depends on, and the epoch sum (churn
// counter + those buckets' write epochs) at capture time.
type cacheEntry struct {
	key        cacheKey
	val        any
	lo, hi     int
	sum        uint64
	prev, next int
}

// cacheShard is one origin host's cache: a map-indexed intrusive LRU
// list over a fixed slot array. Same-origin operations in a batch
// serialize in input order on that host's worker, so a shard evolves
// deterministically under concurrent batches; the mutex covers
// synchronous calls from foreign goroutines.
type cacheShard struct {
	mu         sync.Mutex
	idx        map[cacheKey]int
	ents       []cacheEntry
	head, tail int
	free       []int
	hits       int64
	misses     int64
	inval      int64
}

func newCacheShard() *cacheShard {
	return &cacheShard{idx: make(map[cacheKey]int), head: -1, tail: -1}
}

// unlink removes slot i from the LRU list (caller holds mu).
func (s *cacheShard) unlink(i int) {
	e := &s.ents[i]
	if e.prev >= 0 {
		s.ents[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.ents[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// pushFront makes slot i the most recently used (caller holds mu).
func (s *cacheShard) pushFront(i int) {
	e := &s.ents[i]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.ents[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// readCache is one structure's finger/descent cache: a per-origin-host
// shard map plus the structure's churn counter. ep is the epoch table of
// the structure's stripe set, which the entries are validated against
// (Planar's single bucket never sees a writer, so its epochs are
// churn-only).
type readCache struct {
	ep     *epochTable
	churn  atomic.Uint64
	mu     sync.RWMutex
	shards map[HostID]*cacheShard
}

// shard returns origin's shard, creating it on the origin's first
// lookup.
func (rc *readCache) shard(origin HostID) *cacheShard {
	rc.mu.RLock()
	sh := rc.shards[origin]
	rc.mu.RUnlock()
	if sh != nil {
		return sh
	}
	rc.mu.Lock()
	sh = rc.shards[origin]
	if sh == nil {
		sh = newCacheShard()
		rc.shards[origin] = sh
	}
	rc.mu.Unlock()
	return sh
}

// churnNow reads the structure's churn counter. Query paths capture it
// BEFORE their descent, so a churn event landing mid-descent makes the
// stored sum smaller than the live one — a conservative miss later.
func (rc *readCache) churnNow() uint64 { return rc.churn.Load() }

// current recomputes the epoch sum of bucket interval [lo, hi] from the
// live counters: churn plus each bucket's write epoch. All atomic loads,
// no locks.
func (rc *readCache) current(lo, hi int) uint64 {
	return rc.churn.Load() + rc.ep.sum(lo, hi)
}

// get returns the cached value for key at origin if its epoch check
// passes. A stale entry is evicted (counting an invalidation) and
// reported as a miss.
func (rc *readCache) get(origin HostID, key cacheKey) (any, bool) {
	sh := rc.shard(origin)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.idx[key]
	if !ok {
		sh.misses++
		return nil, false
	}
	e := &sh.ents[i]
	if rc.current(e.lo, e.hi) != e.sum {
		sh.unlink(i)
		delete(sh.idx, key)
		sh.free = append(sh.free, i)
		e.val = nil
		sh.inval++
		sh.misses++
		return nil, false
	}
	sh.unlink(i)
	sh.pushFront(i)
	sh.hits++
	return e.val, true
}

// put memoizes val for key at origin. lo/hi name the epoch buckets the
// answer depends on and sum their epoch at capture: the caller's
// pre-descent churn value plus each bucket's write epoch read under its
// stripe's reader lock — i.e. never newer than the data, so a racing
// writer can only make the entry conservatively stale.
func (rc *readCache) put(origin HostID, key cacheKey, val any, lo, hi int, sum uint64) {
	sh := rc.shard(origin)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, ok := sh.idx[key]; ok {
		e := &sh.ents[i]
		e.val, e.lo, e.hi, e.sum = val, lo, hi, sum
		sh.unlink(i)
		sh.pushFront(i)
		return
	}
	var i int
	switch {
	case len(sh.free) > 0:
		i = sh.free[len(sh.free)-1]
		sh.free = sh.free[:len(sh.free)-1]
	case len(sh.ents) < cacheShardCap:
		i = len(sh.ents)
		sh.ents = append(sh.ents, cacheEntry{})
	default:
		i = sh.tail
		delete(sh.idx, sh.ents[i].key)
		sh.unlink(i)
	}
	sh.ents[i] = cacheEntry{key: key, val: val, lo: lo, hi: hi, sum: sum, prev: -1, next: -1}
	sh.idx[key] = i
	sh.pushFront(i)
}

// probe and memo are the one cache protocol every query method follows.
// probe returns the memoized answer for key at origin when its epoch
// check passes; otherwise it returns the churn epoch captured before the
// descent, to which the caller adds the write epochs of the buckets its
// answer depends on (striped.epochs, read under each stripe's reader
// lock) before handing the sum to memo. Both
// are no-ops on a nil cache, and generic so that nothing is boxed then:
// with caches off the query path stays allocation-free.
func probe[R any](rc *readCache, origin HostID, key cacheKey) (val R, sum uint64, hit bool) {
	if rc == nil {
		return val, 0, false
	}
	if v, ok := rc.get(origin, key); ok {
		return v.(R), 0, true
	}
	return val, rc.churnNow(), false
}

// memo stores val, which depends on epoch buckets [lo, hi], at epoch sum.
func memo[R any](rc *readCache, origin HostID, key cacheKey, val R, lo, hi int, sum uint64) {
	if rc != nil {
		rc.put(origin, key, val, lo, hi, sum)
	}
}

// bloomCounts are one origin host's negative-bloom counters.
type bloomCounts struct {
	tn atomic.Int64
	fp atomic.Int64
}

// negBloom is one structure's negative-lookup filter set: one bloom
// filter per stripe over the hashes of that stripe's stored keys, with
// superset semantics (see the package notes at the top of this file).
type negBloom struct {
	filters []*bloom.Filter
	mu      sync.RWMutex
	byHost  map[HostID]*bloomCounts
}

// counts returns origin's counter block, creating it on first use.
func (nb *negBloom) counts(origin HostID) *bloomCounts {
	nb.mu.RLock()
	bc := nb.byHost[origin]
	nb.mu.RUnlock()
	if bc != nil {
		return bc
	}
	nb.mu.Lock()
	bc = nb.byHost[origin]
	if bc == nil {
		bc = &bloomCounts{}
		nb.byHost[origin] = bc
	}
	nb.mu.Unlock()
	return bc
}

// add marks key hash h stored in stripe. Writers call it under the
// stripe's writer lock before the engine insert.
func (nb *negBloom) add(stripe int, h uint64) { nb.filters[stripe].Add(h) }

// definitelyAbsent consults stripe's filter for key hash h at the
// query's origin: true means the key was never stored (counted as a
// true negative); false means "maybe present" — run the full descent.
func (nb *negBloom) definitelyAbsent(origin HostID, stripe int, h uint64) bool {
	if nb.filters[stripe].Maybe(h) {
		return false
	}
	nb.counts(origin).tn.Add(1)
	return true
}

// falsePositive records that the bloom let an absent key through.
func (nb *negBloom) falsePositive(origin HostID) { nb.counts(origin).fp.Add(1) }

// readPath is the cache layer every structure carries (embedded in
// striped): a finger cache (rc) and a negative bloom (nb), either or both
// nil when the corresponding Option is off.
type readPath struct {
	rc *readCache
	nb *negBloom
}

// newReadPath builds the cache layer for a structure: a finger cache
// when opts.CacheFingers and, when opts.NegativeBloom, one negative bloom
// per stripe, sized to and seeded with the hashes of that stripe's build
// items (structures without a membership query — Planar — pass a nil
// hash and get no bloom).
func newReadPath[T any](opts Options, st *stripeSet, parts [][]T, hash func(T) uint64) readPath {
	var rp readPath
	if opts.CacheFingers {
		rp.rc = &readCache{ep: st.ep, shards: make(map[HostID]*cacheShard)}
	}
	if opts.NegativeBloom && hash != nil {
		rp.nb = &negBloom{
			filters: make([]*bloom.Filter, len(parts)),
			byHost:  make(map[HostID]*bloomCounts),
		}
		for i, part := range parts {
			rp.nb.filters[i] = bloom.New(len(part))
			for _, x := range part {
				rp.nb.add(i, hash(x))
			}
		}
	}
	return rp
}

// bumpChurn advances the structure's churn epoch, lazily invalidating
// every cache entry. The churn hooks (rehome, rebalance, repair,
// restart) call it under the cluster write lock.
func (rp readPath) bumpChurn() {
	if rp.rc != nil {
		rp.rc.churn.Add(1)
	}
}

// cacheStatsByHost merges the structure's per-origin counters into
// byHost (when non-nil) and the aggregate into total (when non-nil).
func (rp readPath) cacheStatsByHost(byHost map[HostID]CacheStats, total *CacheStats) {
	merge := func(h HostID, cs CacheStats) {
		if byHost != nil {
			m := byHost[h]
			m.add(cs)
			byHost[h] = m
		}
		if total != nil {
			total.add(cs)
		}
	}
	if rp.rc != nil {
		rp.rc.mu.RLock()
		for h, sh := range rp.rc.shards {
			sh.mu.Lock()
			merge(h, CacheStats{Hits: sh.hits, Misses: sh.misses, Invalidations: sh.inval})
			sh.mu.Unlock()
		}
		rp.rc.mu.RUnlock()
	}
	if rp.nb != nil {
		rp.nb.mu.RLock()
		for h, bc := range rp.nb.byHost {
			merge(h, CacheStats{BloomTrueNegatives: bc.tn.Load(), BloomFalsePositives: bc.fp.Load()})
		}
		rp.nb.mu.RUnlock()
	}
}

// hashKey64 mixes a uint64 key (or Morton code) into the hash the bloom
// filters index by — a SplitMix64 finalizer round, so dense key ranges
// spread over the whole filter.
func hashKey64(k uint64) uint64 {
	z := k + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashKeyString hashes a string key for the bloom filters (FNV-1a 64).
func hashKeyString(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
