package skipwebs

import (
	"fmt"
	"strings"

	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/trie"
)

// StringLocation is the answer to a trie search (Section 3.2): the
// deepest stored locus that is a prefix of the query — "the first place
// where the query differs from the strings in the structure".
type StringLocation struct {
	// Locus is the longest stored prefix of the query.
	Locus string
	// IsKey reports whether Locus is itself a stored key.
	IsKey bool
	// Exact reports whether the query equals a stored key.
	Exact bool
	// Hops is the number of messages the query cost.
	Hops int
	// Latency is the query's modeled critical-path latency under the
	// cluster's latency model, in model units. Zero without a model and
	// zero on cache hits.
	Latency int64
}

// Strings is a skip-web over a set of character strings, built on
// compressed digital tries: O(log n) expected messages per search even
// when the trie has depth Θ(n) (long shared prefixes).
type Strings struct {
	striped[stringWeb]
}

type stringWeb = *core.Web[*trie.Trie, string, string]

// NewStrings builds a string skip-web over distinct non-empty keys.
// With Options.WriteStripes > 1 it builds one independent sub-trie per
// stripe of the keys' first-eight-byte codes (see the
// Options.WriteStripes doc). Striping refines locus granularity: Search
// reports the deepest stored prefix within the stripe owning the query's
// code, so a locus shared only by keys of different stripes is not
// materialized — Contains and PrefixSearch results are unchanged.
func NewStrings(c *Cluster, keys []string, opts Options) (*Strings, error) {
	// Strings sharing a first-eight-byte prefix share a code and a stripe;
	// the tie-break keeps each stripe's build input in full sorted order.
	st, parts := splitByStripe(keys, opts.WriteStripes, opts.CacheFingers, stringCode, strings.Compare)
	s := &Strings{}
	err := buildStriped(&s.striped, c, "strings", opts, st, parts, hashKeyString,
		func(w stringWeb) []uint64 {
			keys := w.GroundStructure().KeysWithPrefix("", 0)
			codes := make([]uint64, len(keys))
			for i, k := range keys {
				codes[i] = stringCode(k)
			}
			return codes
		},
		func(part []string, seed uint64) (stringWeb, error) {
			return core.NewWeb[*trie.Trie, string, string](core.NewTrieOps(), c.network(), part,
				core.Config{Seed: seed, Replicas: opts.Replicas})
		})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Len returns the number of stored keys.
func (s *Strings) Len() int { return s.size() }

// TrieDepth returns the depth of the ground trie (the deepest stripe's,
// under write striping).
func (s *Strings) TrieDepth() int {
	depth := 0
	s.each(func(w stringWeb) { depth = max(depth, w.GroundStructure().Depth()) })
	return depth
}

// Search routes a string search from the given host in O(log n)
// expected messages (Theorem 2 via Lemma 4), independent of the trie
// depth — long shared prefixes cost nothing extra. Under write striping
// the search descends the stripe owning the query's code and reports the
// deepest stored prefix within that stripe's trie (see NewStrings on
// locus granularity); exactness is unaffected. The descent itself is
// allocation-free (pooled accounting Op, iterator-based range
// enumeration); only the returned location's locus string is shared with
// the ground trie, never copied.
func (s *Strings) Search(q string, origin HostID) (StringLocation, error) {
	ck := cacheKey{op: opSearch, str: q}
	hit, sum, ok := probe[StringLocation](s.rc, origin, ck)
	if ok {
		return hit, nil
	}
	i := s.st.of(stringCode(q))
	s.st.rlock(i)
	defer s.st.runlock(i)
	res, err := s.ws[i].Query(q, origin)
	if err != nil {
		return StringLocation{}, fmt.Errorf("skipwebs: %w", err)
	}
	g := s.ws[i].GroundStructure()
	id := trie.NodeID(res.Range)
	locus := g.Locus(id)
	loc := StringLocation{
		Locus: locus,
		IsKey: g.IsKey(id),
		Exact: g.IsKey(id) && locus == q,
	}
	// Only a key that has the locus as a prefix can split, mark, unmark or
	// prune it, or create a deeper locus on the query's path (such a locus
	// is a prefix of the new key and extends this one), so the answer
	// depends on the codes of the locus's extensions alone. Memoized before
	// the cost goes in: a hit is free.
	blo, bhi, e := s.epochs(i, stringCode(locus), prefixCodeHi(locus))
	memo(s.rc, origin, ck, loc, blo, bhi, sum+e)
	loc.Hops, loc.Latency = res.Hops, res.Latency
	return loc, nil
}

// Contains reports whether the exact key is stored — O(log n) expected
// messages, the same bound as Search. A stored key lives in the stripe
// its code routes to, so membership needs only that stripe.
func (s *Strings) Contains(q string, origin HostID) (bool, int, error) {
	found, c, err := s.containsCost(q, origin)
	return found, c.Hops, err
}

// containsCost is Contains returning the full hop/latency cost pair —
// the variant ContainsBatch surfaces per-query latency through.
func (s *Strings) containsCost(q string, origin HostID) (bool, core.Cost, error) {
	if s.nb != nil && s.nb.definitelyAbsent(origin, s.st.of(stringCode(q)), hashKeyString(q)) {
		return false, core.Cost{}, nil
	}
	loc, err := s.Search(q, origin)
	if err != nil {
		return false, core.Cost{}, err
	}
	if s.nb != nil && !loc.Exact {
		s.nb.falsePositive(origin)
	}
	return loc.Exact, core.Cost{Hops: loc.Hops, Latency: loc.Latency}, nil
}

// PrefixSearch returns up to max stored keys with the given prefix (max
// <= 0 means all), in sorted order. The skip-web routes to the prefix
// locus; enumerating the k results costs one extra hop per result, which
// is charged into the returned hop count. Under write striping the
// enumeration visits every stripe whose code range intersects the
// prefix's code interval — each charging its own routed search — and
// concatenates the per-stripe sorted results (stripes hold contiguous
// code ranges, so the concatenation is sorted).
func (s *Strings) PrefixSearch(prefix string, max int, origin HostID) ([]string, int, error) {
	keys, c, err := s.prefixSearchCost(prefix, max, origin)
	return keys, c.Hops, err
}

// prefixSearchCost is PrefixSearch returning the full hop/latency cost
// pair — the variant PrefixSearchBatch surfaces per-query latency
// through. Latency covers the routed searches; the per-result
// enumeration hops are hop-only (see prefixInStripe).
func (s *Strings) prefixSearchCost(prefix string, max int, origin HostID) ([]string, core.Cost, error) {
	ck := cacheKey{op: opPrefix, code: uint64(max), str: prefix}
	hit, sum, ok := probe[[]string](s.rc, origin, ck)
	if ok {
		// Hand out a fresh copy; the memoized slice stays private.
		return append([]string(nil), hit...), core.Cost{}, nil
	}
	// Every key with the prefix has its code in [lo, hi]: the stripes to
	// visit, and within them the buckets the answer depends on.
	lo, hi := stringCode(prefix), prefixCodeHi(prefix)
	s0, s1 := s.st.of(lo), s.st.of(hi)
	var keys []string
	var cost core.Cost
	blo, bhi := 0, 0
	for i := s0; i <= s1; i++ {
		remaining := max
		if max > 0 {
			remaining = max - len(keys)
			if remaining == 0 {
				break
			}
		}
		s.st.rlock(i)
		ks, c, err := s.prefixInStripe(i, prefix, remaining, origin)
		b0, b1, e := s.epochs(i, lo, hi)
		s.st.runlock(i)
		sum += e
		if i == s0 {
			blo = b0
		}
		bhi = b1
		cost.Hops += c.Hops
		cost.Latency += c.Latency
		if err != nil {
			return keys, cost, err
		}
		keys = append(keys, ks...)
	}
	if s.rc != nil {
		// The answer depends only on the prefix's codes in the stripes
		// visited: an early break means max was reached, which the control
		// breaks on identically.
		memo(s.rc, origin, ck, append([]string(nil), keys...), blo, bhi, sum)
	}
	return keys, cost, nil
}

// prefixInStripe enumerates stripe i's keys with the given prefix, under
// the stripe reader lock the caller holds: a routed search to the prefix
// locus plus one charged hop per result. Latency covers the routed
// search only — the enumeration's per-result hops walk the ground trie
// without tracking per-locus host placement.
func (s *Strings) prefixInStripe(i int, prefix string, max int, origin HostID) ([]string, core.Cost, error) {
	res, err := s.ws[i].Query(prefix, origin)
	if err != nil {
		return nil, core.Cost{}, fmt.Errorf("skipwebs: %w", err)
	}
	g := s.ws[i].GroundStructure()
	locus := g.Locus(trie.NodeID(res.Range))
	// The terminal locus is the deepest stored prefix of `prefix`; the
	// subtree holding all `prefix`-keys hangs at or just below it.
	if !strings.HasPrefix(locus, prefix) {
		if _, ok := g.LocatePrefix(prefix); !ok {
			return nil, core.Cost{Hops: res.Hops, Latency: res.Latency}, nil
		}
	}
	keys := g.KeysWithPrefix(prefix, max)
	return keys, core.Cost{Hops: res.Hops + len(keys), Latency: res.Latency}, nil
}

// prefixCodeHi is the largest stripe code any string with the given
// prefix can have: the prefix's first eight bytes padded with 0xff. With
// stringCode(prefix) as the low end it brackets the code interval the
// prefix's keys occupy.
func prefixCodeHi(prefix string) uint64 {
	var code uint64
	for i := 0; i < 8; i++ {
		code <<= 8
		if i < len(prefix) {
			code |= uint64(prefix[i])
		} else {
			code |= 0xff
		}
	}
	return code
}

// Insert adds a key, returning the update's message cost — O(log n)
// expected messages (Section 4): a routed search plus an O(1)-message
// locus change per level of the key's bit path. The update holds only
// its stripe's writer lock, so inserts into different code ranges run
// concurrently.
func (s *Strings) Insert(key string, origin HostID) (int, error) {
	code := stringCode(key)
	i := s.st.of(code)
	s.st.wlock(i)
	defer s.st.wunlock(i)
	s.st.bump(i, code)
	if s.nb != nil {
		s.nb.add(i, hashKeyString(key))
	}
	return wrapHops(s.ws[i].Insert(key, origin))
}

// Delete removes a key, returning the update's message cost — O(log n)
// expected messages (Section 4), pruning unbranched loci level by
// level. The update holds only its stripe's writer lock.
func (s *Strings) Delete(key string, origin HostID) (int, error) {
	code := stringCode(key)
	i := s.st.of(code)
	s.st.wlock(i)
	defer s.st.wunlock(i)
	s.st.bump(i, code)
	return wrapHops(s.ws[i].Delete(key, origin))
}

// PrefixResult is one answer of a prefix-search batch.
type PrefixResult struct {
	// Keys are the stored keys with the queried prefix, sorted.
	Keys []string
	// Hops is the number of messages the query cost.
	Hops int
	// Latency is the modeled critical-path latency of the routed
	// searches, in model units (per-result enumeration hops are
	// hop-only). Zero without a model and zero on cache hits.
	Latency int64
}

// SearchBatch answers one trie search per element of qs concurrently (see
// the batch engine notes in batch.go). Results are in input order.
func (s *Strings) SearchBatch(qs []string, origins []HostID) ([]StringLocation, error) {
	return runReadBatch(s.c, qs, origins, s.Search)
}

// ContainsBatch answers one exact-membership query per key concurrently.
func (s *Strings) ContainsBatch(qs []string, origins []HostID) ([]ContainsResult, error) {
	return runReadBatch(s.c, qs, origins, func(q string, origin HostID) (ContainsResult, error) {
		ok, c, err := s.containsCost(q, origin)
		return ContainsResult{Found: ok, Hops: c.Hops, Latency: c.Latency}, err
	})
}

// PrefixSearchBatch answers one prefix enumeration per prefix
// concurrently, each returning up to max keys (max <= 0 means all).
func (s *Strings) PrefixSearchBatch(prefixes []string, max int, origins []HostID) ([]PrefixResult, error) {
	return runReadBatch(s.c, prefixes, origins, func(p string, origin HostID) (PrefixResult, error) {
		keys, c, err := s.prefixSearchCost(p, max, origin)
		return PrefixResult{Keys: keys, Hops: c.Hops, Latency: c.Latency}, err
	})
}

// InsertBatch adds the keys — one parallel writer per code stripe,
// strict input order within each stripe — returning each update's
// message cost in input order.
func (s *Strings) InsertBatch(keys []string, origins []HostID) ([]int, error) {
	return runWriteBatch(s.c, keys, origins, s.st, stringCode, s.Insert)
}

// DeleteBatch removes the keys — one parallel writer per code stripe,
// strict input order within each stripe — returning each update's
// message cost in input order.
func (s *Strings) DeleteBatch(keys []string, origins []HostID) ([]int, error) {
	return runWriteBatch(s.c, keys, origins, s.st, stringCode, s.Delete)
}

// CheckConsistent verifies the string web's invariants: every locus on
// a live host, hyperlinks matching recomputation, per-level counts that
// add up, and — under striping — every key stored in the stripe its
// code routes to. Cost: O(n log n) local work, no messages.
func (s *Strings) CheckConsistent() error { return s.check() }
