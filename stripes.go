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
// while updates within one range keep their strict input order.
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
	// writes counts writer-lock acquisitions per stripe — the
	// observable the stripe-parallelism test asserts on instead of
	// wall-clock speedup.
	writes []atomic.Int64
	// onWrite, when non-nil, is invoked after each writer-lock
	// acquisition with the stripe index. Tests install it (before any
	// concurrent use) to prove that distinct stripes hold their writer
	// locks simultaneously.
	onWrite func(stripe int)
}

// newStripeSet builds the routing table for the given sorted stripe
// codes (duplicates allowed) cut into up to `want` rank-balanced
// stripes. Ties never straddle a boundary — equal codes must route to
// one stripe — so the realized stripe count can be lower than requested
// when the code distribution is degenerate; every realized stripe is
// non-empty at build time.
func newStripeSet(sortedCodes []uint64, want int) *stripeSet {
	var seps []uint64
	if want > len(sortedCodes) {
		want = len(sortedCodes)
	}
	for i := 1; i < want; i++ {
		pos := i * len(sortedCodes) / want
		for pos < len(sortedCodes) && pos > 0 && sortedCodes[pos] == sortedCodes[pos-1] {
			pos++ // slide past a tie: equal codes stay in the lower stripe
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
	n := len(seps) + 1
	return &stripeSet{
		seps:   seps,
		locks:  make([]sync.RWMutex, n),
		writes: make([]atomic.Int64, n),
	}
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
	ss.writes[i].Add(1)
	if ss.onWrite != nil {
		ss.onWrite(i)
	}
}
func (ss *stripeSet) wunlock(i int) { ss.locks[i].Unlock() }

// writeCount returns the writer-lock acquisitions stripe i has seen.
func (ss *stripeSet) writeCount(i int) int64 { return ss.writes[i].Load() }

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
// input.
func splitByStripe[T any](items []T, want int, codeOf func(T) uint64, tie func(a, b T) int) (*stripeSet, [][]T) {
	if want <= 1 || len(items) <= 1 {
		return newStripeSet(nil, 1), [][]T{items}
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
	ss := newStripeSet(codes, want)
	// Stripe i holds the codes below separator i (and not below i-1).
	parts := make([][]T, ss.n())
	start := 0
	for i := range parts {
		end := len(sorted)
		if i < len(ss.seps) {
			end, _ = slices.BinarySearch(codes, ss.seps[i])
		}
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
