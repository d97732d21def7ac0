package skipwebs

import (
	"fmt"

	"github.com/skipwebs/skipwebs/internal/core"
)

// keyEngine is an engine over uint64 keys answering floor queries: the
// contract the three one-dimensional webs share.
type keyEngine interface {
	engine
	// QueryCost returns the largest stored key <= q — (0, false) when
	// there is none — with the descent's cost, which is valid on error
	// too.
	QueryCost(q uint64, origin HostID) (key uint64, ok bool, c core.Cost, err error)
	Insert(key uint64, origin HostID) (int, error)
	Delete(key uint64, origin HostID) (int, error)
}

// rangeEngine is a keyEngine that also enumerates key intervals.
type rangeEngine interface {
	keyEngine
	RangeCost(lo, hi uint64, origin HostID) ([]uint64, core.Cost, error)
}

// sortedSet is the front-end OneDim, Blocked and Bucketed share: floor,
// membership and range queries, updates, and their batch variants over a
// striped set of key engines, implemented once.
type sortedSet[E keyEngine] struct {
	striped[E]
}

func keyCode(k uint64) uint64 { return k }

// floor descends the stripe owning q's code range (its reader lock held
// for the descent) and falls back across lower stripes — each charging
// its own descent — while the stripe holds no key at or below q. On a
// descent error the result carries the cost accumulated so far.
func (s *sortedSet[E]) floor(q uint64, origin HostID) (FloorResult, error) {
	ck := cacheKey{op: opFloor, code: q}
	hit, sum, ok := probe[FloorResult](s.rc, origin, ck)
	if ok {
		return hit, nil
	}
	i0 := s.st.of(q)
	var cost core.Cost
	bhi := 0
	for i := i0; ; i-- {
		s.st.rlock(i)
		k, found, c, err := s.ws[i].QueryCost(q, origin)
		// The answer depends only on the codes in [k, q] — a smaller key is
		// superseded by k, a larger one is above the query — or on [0, q]
		// when no key is at or below q (k is 0 then): this stripe's part of
		// that interval, read under its lock.
		blo, bh, e := s.epochs(i, k, q)
		s.st.runlock(i)
		sum += e
		if i == i0 {
			bhi = bh
		}
		cost.Hops += c.Hops
		cost.Latency += c.Latency
		if err != nil {
			return FloorResult{Hops: cost.Hops, Latency: cost.Latency}, fmt.Errorf("skipwebs: %w", err)
		}
		if found || i == 0 {
			res := FloorResult{Key: k, Found: found}
			memo(s.rc, origin, ck, res, blo, bhi, sum)
			res.Hops, res.Latency = cost.Hops, cost.Latency
			return res, nil
		}
	}
}

// containsCost reports whether key is stored, with the full hop/latency
// cost pair. Exact membership needs only the stripe owning the key, so
// no cross-stripe fallback is charged.
func (s *sortedSet[E]) containsCost(key uint64, origin HostID) (bool, core.Cost, error) {
	i := s.st.of(key)
	if s.nb != nil && s.nb.definitelyAbsent(origin, i, hashKey64(key)) {
		return false, core.Cost{}, nil
	}
	ck := cacheKey{op: opContains, code: key}
	hit, sum, ok := probe[bool](s.rc, origin, ck)
	if ok {
		return hit, core.Cost{}, nil
	}
	s.st.rlock(i)
	k, found, c, err := s.ws[i].QueryCost(key, origin)
	b, _, e := s.epochs(i, key, key) // membership depends on the key's own code alone
	s.st.runlock(i)
	if err != nil {
		return false, c, fmt.Errorf("skipwebs: %w", err)
	}
	found = found && k == key
	if s.nb != nil && !found {
		s.nb.falsePositive(origin)
	}
	memo(s.rc, origin, ck, found, b, b, sum+e)
	return found, c, nil
}

// contains is containsCost reporting hops alone.
func (s *sortedSet[E]) contains(key uint64, origin HostID) (bool, int, error) {
	found, c, err := s.containsCost(key, origin)
	return found, c.Hops, err
}

// rangeCost returns every stored key in [lo, hi] ascending, with the
// full cost pair: each stripe the interval overlaps runs its own range
// walk, and stripes hold contiguous code ranges, so the per-stripe
// results concatenate sorted. A free function because only some key
// engines enumerate ranges.
func rangeCost[E rangeEngine](s *sortedSet[E], lo, hi uint64, origin HostID) ([]uint64, core.Cost, error) {
	if lo > hi {
		return nil, core.Cost{}, fmt.Errorf("skipwebs: empty range [%d, %d]", lo, hi)
	}
	var keys []uint64
	var cost core.Cost
	for i, s1 := s.st.of(lo), s.st.of(hi); i <= s1; i++ {
		s.st.rlock(i)
		ks, c, err := s.ws[i].RangeCost(lo, hi, origin)
		s.st.runlock(i)
		cost.Hops += c.Hops
		cost.Latency += c.Latency
		if keys == nil {
			keys = ks // the common one-stripe range copies nothing
		} else {
			keys = append(keys, ks...)
		}
		if err != nil {
			return keys, cost, fmt.Errorf("skipwebs: %w", err)
		}
	}
	return keys, cost, nil
}

// keyRange is rangeCost reporting hops alone.
func keyRange[E rangeEngine](s *sortedSet[E], lo, hi uint64, origin HostID) ([]uint64, int, error) {
	keys, c, err := rangeCost(s, lo, hi, origin)
	return keys, c.Hops, err
}

// insert adds key under its stripe's writer lock alone, so inserts into
// different stripes run concurrently.
func (s *sortedSet[E]) insert(key uint64, origin HostID) (int, error) {
	i := s.st.of(key)
	s.st.wlock(i)
	defer s.st.wunlock(i)
	s.st.bump(i, key)
	if s.nb != nil {
		s.nb.add(i, hashKey64(key))
	}
	return wrapHops(s.ws[i].Insert(key, origin))
}

// remove deletes key under its stripe's writer lock alone.
func (s *sortedSet[E]) remove(key uint64, origin HostID) (int, error) {
	i := s.st.of(key)
	s.st.wlock(i)
	defer s.st.wunlock(i)
	s.st.bump(i, key)
	return wrapHops(s.ws[i].Delete(key, origin))
}

func (s *sortedSet[E]) floorBatch(qs []uint64, origins []HostID) ([]FloorResult, error) {
	return runReadBatch(s.c, qs, origins, s.floor)
}

func (s *sortedSet[E]) containsBatch(keys []uint64, origins []HostID) ([]ContainsResult, error) {
	return runReadBatch(s.c, keys, origins, func(k uint64, origin HostID) (ContainsResult, error) {
		ok, c, err := s.containsCost(k, origin)
		return ContainsResult{Found: ok, Hops: c.Hops, Latency: c.Latency}, err
	})
}

func rangeBatch[E rangeEngine](s *sortedSet[E], rs []KeyRange, origins []HostID) ([]RangeResult, error) {
	return runReadBatch(s.c, rs, origins, func(r KeyRange, origin HostID) (RangeResult, error) {
		keys, c, err := rangeCost(s, r.Lo, r.Hi, origin)
		return RangeResult{Keys: keys, Hops: c.Hops, Latency: c.Latency}, err
	})
}

func (s *sortedSet[E]) insertBatch(keys []uint64, origins []HostID) ([]int, error) {
	return runWriteBatch(s.c, keys, origins, s.st, keyCode, s.insert)
}

func (s *sortedSet[E]) removeBatch(keys []uint64, origins []HostID) ([]int, error) {
	return runWriteBatch(s.c, keys, origins, s.st, keyCode, s.remove)
}
