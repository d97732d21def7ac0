package skipwebs

import "github.com/skipwebs/skipwebs/internal/core"

// Options tunes structure construction.
type Options struct {
	// Seed drives all randomness (level bits, host assignment). The zero
	// seed is valid and deterministic.
	Seed uint64
	// M is the per-host memory parameter for Blocked and Bucketed webs;
	// 0 means ceil(log2 n)+1.
	M int
	// BucketSize is the keys-per-host target for Bucketed webs; 0 means
	// n/H.
	BucketSize int
	// Replicas is the fault-tolerance factor k: every range, block, and
	// bucket is mirrored on k distinct live hosts, updates write through
	// to all of them (k-1 extra messages per written unit), queries fail
	// over to live replicas, and crashing any k-1 hosts loses no data
	// (Cluster.Crash repairs the survivors back to k copies). 0 or 1
	// means unreplicated — the default, whose placement and message
	// accounting are bit-identical to pre-replication builds.
	Replicas int
	// Durable makes every host of the cluster persist its storage: each
	// storage-charging mutation appends one write-ahead-log record (a
	// charged fsync message at the host), with a checkpoint folding the
	// log every sim.DefaultCheckpointEvery records. A crashed durable
	// host keeps its disk image and can rejoin via Cluster.Restart —
	// checkpoint + WAL replay restores its shard exactly, and a merkle
	// reconcile re-copies only what diverged while it was down — instead
	// of the full re-replication of Cluster.Repair. Durability is
	// cluster-wide: the first durable structure enables it for every
	// host and every structure, and it stays on. False (the default)
	// leaves placement and message accounting bit-identical to
	// non-durable builds.
	Durable bool
	// WriteStripes shards the structure's writer lock: a value S > 1
	// partitions the key space into S contiguous code ranges frozen at
	// construction (rank-balanced over the build keys), each backed by
	// an independent sub-engine with its own seed-split PRNG, its own
	// scratch buffers, and its own single-writer/many-reader lock.
	// Update batches then run S writers in parallel — one per stripe —
	// while updates within a stripe keep strict input order and message
	// accounting stays deterministic: stripe assignment is a pure
	// function of the key, picking a stripe charges no message, and a
	// concurrent striped batch charges exactly what a serial replay of
	// the same operations on the same striped structure charges.
	// Queries route to the stripe owning their key (a floor query falls
	// back across lower stripes when its own is empty below the query;
	// range and prefix queries visit every overlapping stripe). Each
	// stripe is a skip-web of about n/S keys, so S also shortens every
	// descent: a query costs about Q(n/S) plus its fallbacks, not Q(n).
	// The
	// realized stripe count is at most min(S, build keys) and may be
	// further reduced by duplicate stripe codes. 0 or 1 (the default)
	// keeps one engine — placement and accounting bit-identical to
	// pre-striping builds. Planar structures are static and ignore the
	// knob.
	WriteStripes int
	// CacheFingers enables the per-origin-host finger/descent cache:
	// each host memoizes the answers of its recent queries (Floor,
	// Contains, Locate, Nearest, Search, PrefixSearch) in a small LRU
	// keyed by the exact query, validated before every reuse by a
	// write-epoch check on the slice of the key space the answer depends
	// on — each write stripe is cut into a fixed number of epoch buckets,
	// and a write voids only the entries whose dependency interval
	// covers its key's bucket (see the invalidation contract in
	// cache.go). A valid hit answers locally for zero charged messages —
	// the host re-serves a frontier a previous descent already paid for —
	// and a miss or stale entry runs the completely unmodified descent,
	// so per-op messages never exceed the cache-free control. Epochs
	// cover inserts, deletes, and churn (Join/Leave/Crash/Restart).
	// False (the default) leaves the query path bit-identical to
	// cache-free builds in answers and accounting.
	CacheFingers bool
	// NegativeBloom enables per-stripe negative-lookup bloom filters for
	// the exact-membership queries (Contains): a query whose key hash
	// the filter proves was never inserted answers (false, 0 messages)
	// at the origin without any descent. Filters are supersets of the
	// stored set — Insert adds, Delete removes nothing, churn moves
	// placement not membership — so "definitely absent" is always
	// correct and "maybe present" at worst runs the full descent. By
	// decision (pinned by TestBloomNegativeDuringCrash), a bloom negative
	// also answers during a crash where the filter-free descent would
	// fail with ErrHostDown: the filter needs no remote host to prove
	// absence, and it never vouches for presence, so a stored key on a
	// lost unit still fails fast. False (the default) leaves membership
	// queries bit-identical to filter-free builds.
	NegativeBloom bool
}

// FloorResult is the answer to a one-dimensional nearest-neighbor query.
type FloorResult struct {
	// Key is the largest stored key <= the query; valid only when Found.
	Key uint64
	// Found is false when the query is below every stored key.
	Found bool
	// Hops is the number of messages the query cost.
	Hops int
	// Latency is the query's modeled critical-path latency under the
	// cluster's latency model (WithLatency), in model units. Zero without a model, and zero on cache hits — a cached
	// answer is served at the origin without touching the network.
	Latency int64
}

// OneDim is the general skip-web over a sorted set (arbitrary blocking):
// O(log n) per-host memory and O(log n) expected query and update
// messages, matching skip graphs while using the level-partition
// hierarchy of Figure 2.
type OneDim struct {
	sortedSet[listWeb]
}

// listWeb adapts the generic core.Web over a sorted list to the
// keyEngine contract: a floor query is a point query whose terminal
// range is either the list head (no key at or below q) or the answer.
// A failed core.Web descent reports no cost.
type listWeb struct {
	*core.Web[*core.ListLevel, uint64, uint64]
}

func (w listWeb) QueryCost(q uint64, origin HostID) (uint64, bool, core.Cost, error) {
	res, err := w.Query(q, origin)
	if err != nil {
		return 0, false, core.Cost{}, err
	}
	c := core.Cost{Hops: res.Hops, Latency: res.Latency}
	if g := w.GroundStructure(); !g.IsHead(res.Range) {
		return g.Key(res.Range), true, c, nil
	}
	return 0, false, c, nil
}

// NewOneDim builds a general 1-d skip-web over keys (distinct).
// Construction costs O(n log n) expected storage units spread over the
// hosts (Theorem 2's memory bound divided among H hosts). With
// Options.WriteStripes > 1 it builds one independent sub-web per key
// stripe (see the Options.WriteStripes doc).
func NewOneDim(c *Cluster, keys []uint64, opts Options) (*OneDim, error) {
	st, parts := splitByStripe(keys, opts.WriteStripes, opts.CacheFingers, keyCode, nil)
	d := &OneDim{}
	err := buildStriped(&d.striped, c, "onedim", opts, st, parts, hashKey64,
		func(w listWeb) []uint64 { return w.GroundStructure().Keys() },
		func(part []uint64, seed uint64) (listWeb, error) {
			w, err := core.NewWeb[*core.ListLevel, uint64, uint64](core.NewListOps(), c.network(), part,
				core.Config{Seed: seed, Replicas: opts.Replicas})
			return listWeb{w}, err
		})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Len returns the number of stored keys.
func (d *OneDim) Len() int { return d.size() }

// Floor answers a nearest-neighbor (floor) query from the given host in
// O(log n) expected messages (Theorem 2): one hyperlink hop plus an
// expected O(1) local refinement per level of the hierarchy. Under
// write striping the query descends the stripe owning the key's code
// range (its read lock held for the descent) and falls back across
// lower stripes — each charging its own descent — when its own stripe
// holds no key at or below the query.
//
// The descent is allocation-free in steady state: the accounting Op is
// pooled, range enumeration uses the core iterator, and all local
// searches are O(log n) binary searches over each level's maintained
// sorted order. Message accounting is unaffected by any of this.
func (d *OneDim) Floor(q uint64, origin HostID) (FloorResult, error) { return d.floor(q, origin) }

// Contains reports whether key is stored, with the query's message cost
// — O(log n) expected messages, the same bound as Floor. Exact
// membership needs only the stripe owning the key, so no cross-stripe
// fallback is charged.
func (d *OneDim) Contains(key uint64, origin HostID) (bool, int, error) {
	return d.contains(key, origin)
}

// Insert adds a key, returning the update's message cost — O(log n)
// expected messages (Section 4): a routed query plus an O(1)-message
// structural change per level of the key's bit path. The update holds
// only its stripe's writer lock, so inserts into different stripes run
// concurrently.
func (d *OneDim) Insert(key uint64, origin HostID) (int, error) { return d.insert(key, origin) }

// Delete removes a key, returning the update's message cost — O(log n)
// expected messages (Section 4), unwound top-down so hyperlink repair
// always targets live ranges. The update holds only its stripe's writer
// lock.
func (d *OneDim) Delete(key uint64, origin HostID) (int, error) { return d.remove(key, origin) }

// Keys returns the stored keys in ascending order (stripes hold
// contiguous code ranges, so per-stripe ascending output concatenates
// ascending).
func (d *OneDim) Keys() []uint64 {
	var out []uint64
	d.each(func(w listWeb) { out = append(out, w.GroundStructure().Keys()...) })
	return out
}

// CheckConsistent verifies the web's invariants: every range placed on
// a live host, hyperlinks matching recomputation, symmetric backrefs,
// per-level counts that add up, and — under striping — every key stored
// in the stripe its code routes to. Cost: O(n log n) local work, no
// messages.
func (d *OneDim) CheckConsistent() error { return d.check() }

// FloorBatch answers one floor query per element of qs concurrently (see
// the batch engine notes in batch.go). Results are in input order.
func (d *OneDim) FloorBatch(qs []uint64, origins []HostID) ([]FloorResult, error) {
	return d.floorBatch(qs, origins)
}

// ContainsBatch answers one membership query per key concurrently.
func (d *OneDim) ContainsBatch(keys []uint64, origins []HostID) ([]ContainsResult, error) {
	return d.containsBatch(keys, origins)
}

// InsertBatch adds the keys — one parallel writer per stripe, strict
// input order within each stripe — returning each update's message cost
// in input order. Each insert is one dispatch to its origin's worker;
// accounting is identical to per-op inserts.
func (d *OneDim) InsertBatch(keys []uint64, origins []HostID) ([]int, error) {
	return d.insertBatch(keys, origins)
}

// DeleteBatch removes the keys — one parallel writer per stripe, strict
// input order within each stripe — returning each update's message cost
// in input order.
func (d *OneDim) DeleteBatch(keys []uint64, origins []HostID) ([]int, error) {
	return d.removeBatch(keys, origins)
}

// Blocked is the improved one-dimensional skip-web of Section 2.4.1:
// with per-host memory M, queries and updates take O(log n / log M)
// expected messages — O(log n / log log n) at M = Θ(log n).
type Blocked struct {
	sortedSet[*core.BlockedWeb]
}

// NewBlocked builds the blocked 1-d skip-web over keys (distinct).
// Construction places O(n log n) expected storage units in blocks of
// O(M) contiguous ranges, one block per host (Section 2.4.1). With
// Options.WriteStripes > 1 it builds one independent sub-web per key
// stripe (see the Options.WriteStripes doc).
func NewBlocked(c *Cluster, keys []uint64, opts Options) (*Blocked, error) {
	st, parts := splitByStripe(keys, opts.WriteStripes, opts.CacheFingers, keyCode, nil)
	b := &Blocked{}
	err := buildStriped(&b.striped, c, "blocked", opts, st, parts, hashKey64,
		func(w *core.BlockedWeb) []uint64 { return w.Ground().Keys() },
		func(part []uint64, seed uint64) (*core.BlockedWeb, error) {
			return core.NewBlockedWeb(c.network(), part,
				core.BlockedConfig{Seed: seed, M: opts.M, Replicas: opts.Replicas})
		})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Len returns the number of stored keys.
func (b *Blocked) Len() int { return b.size() }

// M returns the effective memory parameter (of the first stripe when
// WriteStripes > 1; stripes size their default M from their own key
// counts).
func (b *Blocked) M() int { return b.ws[0].M() }

// Floor answers a nearest-neighbor (floor) query from the given host in
// O(log n / log M) expected messages (Theorem 2 with Section 2.4.1
// blocking): the query pays only when it crosses between strata. Under
// write striping the query descends its owning stripe and falls back
// across lower stripes when that stripe holds no key at or below the
// query. The descent performs no per-query heap allocation (see the
// package README's Performance section).
func (b *Blocked) Floor(q uint64, origin HostID) (FloorResult, error) { return b.floor(q, origin) }

// Contains reports whether key is stored, with the query's message cost
// — O(log n / log M) expected messages, the same bound as Floor. Exact
// membership needs only the stripe owning the key, so no cross-stripe
// fallback is charged.
func (b *Blocked) Contains(key uint64, origin HostID) (bool, int, error) {
	return b.contains(key, origin)
}

// Range returns every stored key in [lo, hi] in ascending order, plus
// the message cost: one floor query plus one message per storage block
// the walk crosses, within every stripe the interval overlaps.
func (b *Blocked) Range(lo, hi uint64, origin HostID) ([]uint64, int, error) {
	return keyRange(&b.sortedSet, lo, hi, origin)
}

// Insert adds a key, returning the update's message cost — O(log n /
// log M) expected messages (Section 4): updates confined to one
// stratum's co-located copies cost a single message per stratum. The
// update holds only its stripe's writer lock.
//
// Insert is all-or-nothing. An error — a duplicate key, or ErrHostDown
// when the route or the climb meets a block with no live replica —
// means the key was stored nowhere and every host holds exactly what it
// held before the call; only the messages the attempt sent stay charged.
func (b *Blocked) Insert(key uint64, origin HostID) (int, error) { return b.insert(key, origin) }

// Delete removes a key, returning the update's message cost — O(log n /
// log M) expected messages (Section 4); blocks keep directory slack
// rather than merging, as the paper amortizes. The update holds only
// its stripe's writer lock.
func (b *Blocked) Delete(key uint64, origin HostID) (int, error) { return b.remove(key, origin) }

// FloorBatch answers one floor query per element of qs concurrently (see
// the batch engine notes in batch.go). Results are in input order.
func (b *Blocked) FloorBatch(qs []uint64, origins []HostID) ([]FloorResult, error) {
	return b.floorBatch(qs, origins)
}

// ContainsBatch answers one membership query per key concurrently.
func (b *Blocked) ContainsBatch(keys []uint64, origins []HostID) ([]ContainsResult, error) {
	return b.containsBatch(keys, origins)
}

// RangeBatch answers one range query per element of rs concurrently.
func (b *Blocked) RangeBatch(rs []KeyRange, origins []HostID) ([]RangeResult, error) {
	return rangeBatch(&b.sortedSet, rs, origins)
}

// InsertBatch adds the keys — one parallel writer per stripe, strict
// input order within each stripe — returning each update's message cost
// in input order. Each insert is one dispatch to its origin's worker.
// Message accounting is identical to per-op inserts, counter for
// counter.
func (b *Blocked) InsertBatch(keys []uint64, origins []HostID) ([]int, error) {
	return b.insertBatch(keys, origins)
}

// DeleteBatch removes the keys — one parallel writer per stripe, strict
// input order within each stripe — returning each update's message cost
// in input order.
func (b *Blocked) DeleteBatch(keys []uint64, origins []HostID) ([]int, error) {
	return b.removeBatch(keys, origins)
}

// CheckConsistent verifies the blocked web's invariants: sound level
// lists, child key sets partitioning their parents', ordered block
// directories, every block on a live host, and — under striping — every
// key stored in the stripe its code routes to. Cost: O(n log n) local
// work, no messages.
func (b *Blocked) CheckConsistent() error { return b.check() }

// Bucketed is the bucket skip-web (Table 1, last row): H < n hosts, each
// holding a contiguous run of ~n/H keys, with a blocked skip-web routing
// over the bucket separators. Queries and updates cost Õ(log_M H)
// messages — expected constant when M = n^ε.
type Bucketed struct {
	sortedSet[*core.BucketWeb]
}

// NewBucketed builds the bucket skip-web over keys (distinct). With
// Options.WriteStripes > 1 it builds one independent sub-web per key
// stripe (see the Options.WriteStripes doc).
func NewBucketed(c *Cluster, keys []uint64, opts Options) (*Bucketed, error) {
	target := opts.BucketSize
	if target <= 0 {
		target = len(keys)/c.Hosts() + 1
	}
	st, parts := splitByStripe(keys, opts.WriteStripes, opts.CacheFingers, keyCode, nil)
	b := &Bucketed{}
	// The bucket web does not expose its keys, so there is no routing
	// audit (nil codes).
	err := buildStriped(&b.striped, c, "bucketed", opts, st, parts, hashKey64, nil,
		func(part []uint64, seed uint64) (*core.BucketWeb, error) {
			return core.NewBucketWeb(c.network(), part, target, opts.M, seed, opts.Replicas)
		})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Len returns the number of stored keys.
func (b *Bucketed) Len() int { return b.size() }

// NumBuckets returns the number of buckets (summed over stripes).
func (b *Bucketed) NumBuckets() int {
	n := 0
	b.each(func(w *core.BucketWeb) { n += w.NumBuckets() })
	return n
}

// Floor answers a nearest-neighbor (floor) query from the given host in
// Õ(log_M H) expected messages (Table 1, last row): a routed query over
// the H bucket separators plus one hop into the bucket — expected
// constant when M = n^ε. Under write striping the query descends its
// owning stripe and falls back across lower stripes when that stripe
// holds no key at or below the query.
func (b *Bucketed) Floor(q uint64, origin HostID) (FloorResult, error) { return b.floor(q, origin) }

// Contains reports whether key is stored, with the query's message cost
// — Õ(log_M H) expected messages, the same bound as Floor. Exact
// membership needs only the stripe owning the key, so no cross-stripe
// fallback is charged.
func (b *Bucketed) Contains(key uint64, origin HostID) (bool, int, error) {
	return b.contains(key, origin)
}

// Range returns every stored key in [lo, hi] in ascending order, plus
// the message cost: one routed floor query plus one message per bucket
// visited, within every stripe the interval overlaps.
func (b *Bucketed) Range(lo, hi uint64, origin HostID) ([]uint64, int, error) {
	return keyRange(&b.sortedSet, lo, hi, origin)
}

// Insert adds a key, returning the update's message cost — Õ(log_M H)
// expected messages: a routed floor query plus one hop into the bucket,
// with amortized separator insertions on bucket splits. The update
// holds only its stripe's writer lock.
//
// Insert is all-or-nothing. An error — a duplicate key, or ErrHostDown
// when routing over the separators meets a block with no live replica —
// means the key was stored nowhere, and separators and buckets still
// correspond one to one; the messages the attempt sent stay charged. A
// bucket split whose separator insert is refused is not an error: the
// key is stored, and the split is retried by the next insert that finds
// the bucket over twice its target size.
func (b *Bucketed) Insert(key uint64, origin HostID) (int, error) { return b.insert(key, origin) }

// Delete removes a key, returning the update's message cost — Õ(log_M
// H) expected messages; separators persist, as in the bucket skip
// graph. The update holds only its stripe's writer lock.
func (b *Bucketed) Delete(key uint64, origin HostID) (int, error) { return b.remove(key, origin) }

// FloorBatch answers one floor query per element of qs concurrently (see
// the batch engine notes in batch.go). Results are in input order.
func (b *Bucketed) FloorBatch(qs []uint64, origins []HostID) ([]FloorResult, error) {
	return b.floorBatch(qs, origins)
}

// ContainsBatch answers one membership query per key concurrently.
func (b *Bucketed) ContainsBatch(keys []uint64, origins []HostID) ([]ContainsResult, error) {
	return b.containsBatch(keys, origins)
}

// RangeBatch answers one range query per element of rs concurrently.
func (b *Bucketed) RangeBatch(rs []KeyRange, origins []HostID) ([]RangeResult, error) {
	return rangeBatch(&b.sortedSet, rs, origins)
}

// InsertBatch adds the keys — one parallel writer per stripe, strict
// input order within each stripe — returning each update's message cost
// in input order. Each insert is one dispatch to its origin's worker;
// accounting is identical to per-op inserts.
func (b *Bucketed) InsertBatch(keys []uint64, origins []HostID) ([]int, error) {
	return b.insertBatch(keys, origins)
}

// DeleteBatch removes the keys — one parallel writer per stripe, strict
// input order within each stripe — returning each update's message cost
// in input order.
func (b *Bucketed) DeleteBatch(keys []uint64, origins []HostID) ([]int, error) {
	return b.removeBatch(keys, origins)
}

// CheckConsistent verifies the separator web's invariants plus the
// bucket directory: every bucket keyed by its separator, sorted, on a
// live host, and in one-to-one correspondence with the routing web's
// ground list. Cost: O(n log n) local work, no messages.
func (b *Bucketed) CheckConsistent() error { return b.check() }
