package skipwebs

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/skipwebs/skipwebs/internal/xrand"
)

// Write striping.
//
// Options.WriteStripes S > 1 partitions a structure into S independent
// sub-engines over contiguous ranges of its key-code space, each with
// its own seed-split PRNG, its own scratch buffers, and its own
// reader/writer lock — single writer per stripe, many readers. Write
// batches dispatch each stripe's operations on a dedicated goroutine
// (batch.go), so updates to different key ranges proceed in parallel
// while updates within one range keep their strict input order. The
// stripe's goroutine runs each update itself as its origin host when
// that host is idle (sim.Cluster.RunAs), so a stripe's updates stay on
// one goroutine unless their origins are busy.
//
// Stripe assignment is a pure function of the key: at construction the
// build keys are sorted by their 64-bit stripe code (the key itself for
// the one-dimensional webs, the Morton code for point sets, the
// big-endian first eight bytes for strings) and cut into S rank-balanced
// chunks; the chunk boundaries become separator codes that never change
// afterwards. Routing an operation is a binary search over the
// separators — no shared state, no coordination messages, and therefore
// no accounting impact: a concurrently executed striped batch charges
// exactly the messages of a serial replay of the same operations on the
// same striped structure, stripe isolation making the two executions
// identical operation for operation.
//
// S <= 1 (the default) builds exactly one engine from the unmodified
// key slice with the unmodified seed — the pre-striping code path,
// bit-identical to it in placement and accounting.

// stripeSet is the routing table and lock array shared by a striped
// structure's sub-engines. seps holds the S-1 separator codes in
// ascending order; stripe i owns codes in [seps[i-1], seps[i]) with
// virtual sentinels seps[-1] = 0 and seps[S-1] = 2^64.
type stripeSet struct {
	seps  []uint64
	locks []sync.RWMutex
	// onWrite, when non-nil, is invoked after each writer-lock
	// acquisition with the stripe index. Tests install it (before any
	// concurrent use) to count acquisitions per stripe and to prove that
	// distinct stripes hold their writer locks simultaneously.
	onWrite func(stripe int)
	// ep is the write-epoch table the finger cache validates against;
	// nil unless the structure was built with Options.CacheFingers.
	ep *epochTable
}

// epochBucketsPerStripe is the number of write-epoch buckets each stripe
// is cut into. Fixed by the sweep recorded in EXPERIMENTS.md G3 on the
// cached write workload (messages per op at 1 / 16 / 64 / 256 / 1024
// buckets: 14.56 / 9.99 / 8.10 / 6.89 / 6.37): past 256 the per-origin
// LRU (cacheShardCap), not invalidation, bounds the hit ratio, while the
// table (16 bytes a bucket) and the atomic loads an entry spanning whole
// stripes pays on every lookup (Nearest) keep growing in proportion.
const epochBucketsPerStripe = 256

// epochTable cuts every stripe's code range into rank-balanced buckets,
// each with a write epoch: a writer bumps the bucket of the key it is
// about to change (stripeSet.bump), a cached answer records the bucket
// interval it depends on (striped.epochs) and is valid while the sum of
// those epochs stands still (readCache.current). A bucket lies inside
// exactly one stripe and is bumped only under that stripe's writer lock.
type epochTable struct {
	// subs[i] holds stripe i's internal bucket separators, ascending, all
	// strictly inside the stripe's code range and frozen at build like
	// the stripe separators themselves.
	subs [][]uint64
	// first[i] is the index of stripe i's first bucket; first[n] is the
	// bucket count.
	first []int
	count []atomic.Uint64
}

// cutCodes returns the separators that cut the sorted codes (duplicates
// allowed) into up to want rank-balanced chunks: chunk j holds the codes
// in [seps[j-1], seps[j]). Ties never straddle a boundary, so fewer
// separators than want-1 come back when the code distribution is
// degenerate; every chunk is non-empty.
func cutCodes(sortedCodes []uint64, want int) []uint64 {
	var seps []uint64
	if want > len(sortedCodes) {
		want = len(sortedCodes)
	}
	for i := 1; i < want; i++ {
		pos := i * len(sortedCodes) / want
		for pos < len(sortedCodes) && pos > 0 && sortedCodes[pos] == sortedCodes[pos-1] {
			pos++ // slide past a tie: equal codes stay in the lower chunk
		}
		if pos >= len(sortedCodes) {
			break
		}
		sep := sortedCodes[pos]
		if len(seps) > 0 && sep <= seps[len(seps)-1] {
			continue
		}
		seps = append(seps, sep)
	}
	return seps
}

// chunkEnd returns the index in sortedCodes at which chunk i of the cut
// seps ends: the first code at or above separator i, or the end of the
// slice for the last chunk.
func chunkEnd(sortedCodes, seps []uint64, i int) int {
	if i >= len(seps) {
		return len(sortedCodes)
	}
	end, _ := slices.BinarySearch(sortedCodes, seps[i])
	return end
}

// newStripeSet builds the routing table for the given sorted stripe
// codes (duplicates allowed) cut into up to `want` rank-balanced
// stripes. Equal codes must route to one stripe, so the realized stripe
// count can be lower than requested (see cutCodes); every realized stripe
// is non-empty at build time. With epochs set, each stripe's codes are
// cut again, by the same rule, into the buckets of the epoch table.
func newStripeSet(sortedCodes []uint64, want int, epochs bool) *stripeSet {
	seps := cutCodes(sortedCodes, want)
	n := len(seps) + 1
	ss := &stripeSet{
		seps:  seps,
		locks: make([]sync.RWMutex, n),
	}
	if epochs {
		ep := &epochTable{subs: make([][]uint64, n), first: make([]int, n+1)}
		start := 0
		for i := range ep.subs {
			end := chunkEnd(sortedCodes, seps, i)
			ep.subs[i] = cutCodes(sortedCodes[start:end], epochBucketsPerStripe)
			ep.first[i+1] = ep.first[i] + len(ep.subs[i]) + 1
			start = end
		}
		ep.count = make([]atomic.Uint64, ep.first[n])
		ss.ep = ep
	}
	return ss
}

// n returns the stripe count (>= 1).
func (ss *stripeSet) n() int { return len(ss.seps) + 1 }

// of routes a stripe code to its owning stripe: the number of
// separators <= code. A pure function of (code, frozen separators), so
// concurrent callers need no synchronization and every execution of the
// same workload routes identically.
func (ss *stripeSet) of(code uint64) int {
	if len(ss.seps) == 0 {
		return 0
	}
	return sort.Search(len(ss.seps), func(i int) bool { return ss.seps[i] > code })
}

// rlock/runlock bracket a reader's descent into stripe i. Readers of
// different stripes — and of the same stripe — run fully in parallel;
// only a writer to the same stripe excludes them.
func (ss *stripeSet) rlock(i int)   { ss.locks[i].RLock() }
func (ss *stripeSet) runlock(i int) { ss.locks[i].RUnlock() }

// wlock/wunlock bracket a writer's update to stripe i: single writer
// per stripe, excluding that stripe's readers and nothing else.
func (ss *stripeSet) wlock(i int) {
	ss.locks[i].Lock()
	if ss.onWrite != nil {
		ss.onWrite(i)
	}
}
func (ss *stripeSet) wunlock(i int) { ss.locks[i].Unlock() }

// bucket routes a code to its epoch bucket within stripe i, clipping a
// code outside the stripe's range to the stripe's first or last bucket.
// Like of, a pure function of the code and frozen separators.
func (ep *epochTable) bucket(i int, code uint64) int {
	sub := ep.subs[i]
	return ep.first[i] + sort.Search(len(sub), func(j int) bool { return sub[j] > code })
}

// sum adds up the write epochs of buckets [lo, hi]: atomic loads, no
// locks.
func (ep *epochTable) sum(lo, hi int) uint64 {
	var sum uint64
	for b := lo; b <= hi; b++ {
		sum += ep.count[b].Load()
	}
	return sum
}

// bump advances the write epoch of code's bucket in stripe i. Writers
// call it once per key under the stripe's writer lock and BEFORE the
// mutation, so an epoch observed under the reader lock is exactly the
// epoch of the data read. Without an epoch table it does nothing.
func (ss *stripeSet) bump(i int, code uint64) {
	if ss.ep != nil {
		ss.ep.count[ss.ep.bucket(i, code)].Add(1)
	}
}

// stripeSeed derives the PRNG seed of stripe i: the cluster seed itself
// for a single-stripe (unsharded) structure — keeping the default
// configuration bit-identical to the pre-striping build — and a
// deterministic SplitMix64 substream of the cluster seed otherwise, so
// concurrent stripe writers never share a generator yet placement
// remains exactly reproducible from (seed, stripe).
func stripeSeed(seed uint64, i, stripes int) uint64 {
	if stripes <= 1 {
		return seed
	}
	return xrand.Substream(seed, i)
}

// splitByStripe sorts a copy of the build items by their 64-bit stripe
// code (ties broken by tie, nil when codes are injective over the
// items), builds the stripe routing table for up to `want` stripes, and
// returns the per-stripe chunks. want <= 1 returns the single-stripe
// table with the input slice untouched — the exact pre-striping build
// input. epochs asks for the epoch table the finger cache needs
// (Options.CacheFingers), which a single stripe gets too.
func splitByStripe[T any](items []T, want int, epochs bool, codeOf func(T) uint64, tie func(a, b T) int) (*stripeSet, [][]T) {
	if want <= 1 || len(items) <= 1 {
		var codes []uint64
		if epochs {
			codes = make([]uint64, len(items))
			for i, it := range items {
				codes[i] = codeOf(it)
			}
			slices.Sort(codes)
		}
		return newStripeSet(codes, 1, epochs), [][]T{items}
	}
	type coded struct {
		code uint64
		item T
	}
	cs := make([]coded, len(items))
	for i, it := range items {
		cs[i] = coded{codeOf(it), it}
	}
	slices.SortFunc(cs, func(a, b coded) int {
		if a.code < b.code {
			return -1
		}
		if a.code > b.code {
			return 1
		}
		if tie == nil {
			return 0
		}
		return tie(a.item, b.item)
	})
	sorted := make([]T, len(cs))
	codes := make([]uint64, len(cs))
	for i, c := range cs {
		sorted[i], codes[i] = c.item, c.code
	}
	ss := newStripeSet(codes, want, epochs)
	// Stripe i holds the codes below separator i (and not below i-1).
	parts := make([][]T, ss.n())
	start := 0
	for i := range parts {
		end := chunkEnd(codes, ss.seps, i)
		parts[i] = sorted[start:end]
		start = end
	}
	return ss, parts
}

// stringCode maps a string to its 64-bit stripe code: the big-endian
// first eight bytes, zero-padded. Order-preserving as a coarsening —
// a < b implies stringCode(a) <= stringCode(b), and a strict code
// inequality implies the same string inequality — so rank-balanced code
// separators respect lexicographic order and per-stripe sorted output
// concatenates sorted.
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
