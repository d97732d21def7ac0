package core

import (
	"fmt"
	"slices"
	"sort"

	"github.com/skipwebs/skipwebs/internal/sim"
)

// BucketWeb is the bucket skip-web of Table 1's final row: contiguous
// buckets of keys on the bottom level (as in Aspnes et al.) with a
// blocked skip-web routing over the bucket separators, giving per-host
// memory O(n/H + log H) and query cost Õ(log_M H) — constant when
// M = n^ε.
type BucketWeb struct {
	net     Fabric
	web     *BlockedWeb
	buckets map[uint64]*wbucket
	target  int
	n       int    // keys stored, over all buckets
	origin  uint64 // seed

	// rep is the replica-layer state (replicas.go): churn-time draws come
	// from the routing web's round-robin host sequence and its rng. A
	// bucket's name in the miss log is its pointer, which is stable
	// (buckets are never pooled); unlike the routing web, bucket updates
	// know their key, so the log carries exact divergence positions.
	rep replication[*wbucket]
}

type wbucket struct {
	min  uint64
	keys []uint64
	host sim.HostID
	// mirrors holds the bucket's k-1 secondary replica hosts; nil on
	// unreplicated webs.
	mirrors []sim.HostID
}

// NewBucketWeb builds the bucket skip-web over keys with roughly target
// keys per bucket, host memory parameter m for the routing web, and
// replication factor replicas (<= 1 means unreplicated, the
// seed-compatible default).
func NewBucketWeb(net Fabric, keys []uint64, target, m int, seed uint64, replicas int) (*BucketWeb, error) {
	if target < 1 {
		target = 1
	}
	if replicas <= 0 {
		replicas = 1
	}
	sorted := append([]uint64(nil), keys...)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("core: duplicate key %d", sorted[i])
		}
	}
	b := &BucketWeb{net: net, buckets: make(map[uint64]*wbucket), target: target, origin: seed}
	var mins []uint64
	hostSeq := 0
	nextBucketHost := func() sim.HostID {
		h := net.LiveAt(hostSeq % net.LiveHosts())
		hostSeq++
		return h
	}
	for start := 0; start < len(sorted); start += target {
		end := start + target
		if end > len(sorted) {
			end = len(sorted)
		}
		wb := &wbucket{
			min:  sorted[start],
			keys: append([]uint64(nil), sorted[start:end]...),
			host: nextBucketHost(),
		}
		wb.mirrors = drawMirrors(net, replicas, nextBucketHost, wb.host)
		b.buckets[wb.min] = wb
		mins = append(mins, wb.min)
		wb.replicas().addStorage(net, len(wb.keys))
	}
	b.n = len(sorted)
	web, err := NewBlockedWeb(net, mins, BlockedConfig{Seed: seed, M: m, Replicas: replicas})
	if err != nil {
		return nil, err
	}
	b.web = web
	b.rep = replication[*wbucket]{net: net, k: replicas, draw: web.nextHost, rng: web.rng}
	return b, nil
}

// wbucket is its own replicaUnit: the unit is the bucket's key payload.
func (wb *wbucket) replicas() replicaSet { return replicaSet{&wb.host, &wb.mirrors} }
func (wb *wbucket) name() *wbucket       { return wb }
func (wb *wbucket) size() int            { return len(wb.keys) }
func (wb *wbucket) moved(*sim.Op)        {} // the routing web addresses buckets by separator

// reconcile runs an inner key-level merkle walk whose dirty positions
// come from the exact keys the stale replica missed, so only the leaves
// covering them are re-shipped.
func (wb *wbucket) reconcile(m missRecord) merkleCost {
	pos := make([]int, len(m.keys))
	for i, key := range m.keys {
		// Position in the fresh sorted order; a deleted key maps to its
		// would-be slot (merkleDiff clamps past-the-end).
		pos[i], _ = slices.BinarySearch(wb.keys, key)
	}
	return merkleDiff(len(wb.keys), pos)
}

// eachBucket visits the buckets in ascending separator order — the
// routing web's ground list — the deterministic order churn uses.
func (b *BucketWeb) eachBucket(visit func(*wbucket)) {
	ground := b.web.Ground()
	for r := ground.Next(ground.Head()); r != NoRange; r = ground.Next(r) {
		visit(b.buckets[ground.Key(r)])
	}
}

// writeThrough returns the number of write-through messages an update
// touching key in bucket wb pays — one per replica that is listening;
// bucket messages are counted into the hop total, outside any Op.
func (b *BucketWeb) writeThrough(wb *wbucket, key uint64) int {
	return b.rep.writeThrough(nil, wb.replicas(), wb, nil, key)
}

// Len returns the number of keys stored.
func (b *BucketWeb) Len() int { return b.n }

// NumBuckets returns the bucket count H.
func (b *BucketWeb) NumBuckets() int { return len(b.buckets) }

// Query performs a floor query: route over separators, then one message
// into the bucket (failing over to a live bucket replica; a bucket with
// no live replica aborts with a HostDownError). Deletions may leave a
// separator below its bucket's first live key; the search then continues
// into predecessor buckets via the ground list's level-0 links. Like
// BlockedWeb.Query, it is safe for concurrent use provided no update
// runs concurrently.
func (b *BucketWeb) Query(q uint64, origin sim.HostID) (uint64, bool, int, error) {
	k, ok, c, err := b.QueryCost(q, origin)
	return k, ok, c.Hops, err
}

// QueryCost is Query reporting the full Cost pair — hop count plus the
// modeled critical-path latency — instead of hops alone. Accounting is
// identical: the separator routing charges through the same descent, and
// each bucket hop adds the link cost from the host the route currently
// sits at to the bucket replica it enters.
func (b *BucketWeb) QueryCost(q uint64, origin sim.HostID) (uint64, bool, Cost, error) {
	min, ok, c, at, err := b.web.queryCost(q, origin)
	if err != nil {
		return 0, false, c, err
	}
	model := b.net.CostModel()
	hop := func(to sim.HostID) {
		c.Hops++
		if model != nil {
			c.Latency += model.Link(at, to)
		}
		at = to
	}
	ground := b.web.Ground()
	for ok {
		wb := b.buckets[min]
		bh, err := wb.replicas().firstLive(b.net)
		if err != nil {
			return 0, false, c, err
		}
		hop(bh) // the hop into the bucket's live replica
		i := sort.Search(len(wb.keys), func(i int) bool { return wb.keys[i] > q })
		if i > 0 {
			return wb.keys[i-1], true, c, nil
		}
		r, found := ground.ByKey(min)
		if !found {
			break
		}
		prev := ground.Prev(r)
		if ground.IsHead(prev) {
			break
		}
		min = ground.Key(prev)
		// Ground-list step toward the predecessor bucket: charge the
		// link to that bucket's primary, the step's destination shard.
		hop(b.buckets[min].host)
	}
	return 0, false, c, nil
}

// Insert routes to the bucket and adds the key, splitting overfull
// buckets (amortized separator insertion). Insert is all-or-nothing: on
// an error the key is stored nowhere and separators and buckets still
// correspond one to one — every separator update is attempted before the
// bucket directory is touched. A split whose separator insert fails is
// not an error: the key is stored, and the split is left for the next
// insert that finds the bucket over 2·target.
func (b *BucketWeb) Insert(key uint64, origin sim.HostID) (int, error) {
	min, ok, hops, err := b.web.Query(key, origin)
	if err != nil {
		return hops, err
	}
	if !ok {
		// Key below every separator: extend the lowest bucket downward by
		// rekeying its separator.
		ground := b.web.Ground()
		first := ground.Next(ground.Head())
		if first == NoRange {
			return hops, fmt.Errorf("core: bucket web is empty")
		}
		oldMin := ground.Key(first)
		h1, err := b.web.Delete(oldMin, origin)
		hops += h1
		if err != nil {
			return hops, err
		}
		h2, err := b.web.Insert(key, origin)
		hops += h2
		if err != nil {
			// The old separator is already gone: put it back unrouted.
			return hops + b.web.reinsert(oldMin, origin), err
		}
		wb := b.buckets[oldMin]
		delete(b.buckets, oldMin)
		wb.min = key
		wb.keys = append([]uint64{key}, wb.keys...)
		b.buckets[key] = wb
		b.n++
		wb.replicas().addStorage(b.net, 1)
		return hops + b.writeThrough(wb, key), nil
	}
	wb := b.buckets[min]
	i := sort.Search(len(wb.keys), func(i int) bool { return wb.keys[i] >= key })
	if i < len(wb.keys) && wb.keys[i] == key {
		return hops, fmt.Errorf("core: duplicate key %d", key)
	}
	wb.keys = append(wb.keys, 0)
	copy(wb.keys[i+1:], wb.keys[i:])
	wb.keys[i] = key
	b.n++
	wb.replicas().addStorage(b.net, 1)
	hops += b.writeThrough(wb, key) // write-through: one message per live replica
	if len(wb.keys) > 2*b.target {
		mid := len(wb.keys) / 2
		sh, err := b.web.Insert(wb.keys[mid], origin)
		hops += sh
		if err != nil {
			return hops, nil // the key is stored; the split waits for the next insert
		}
		upper := append([]uint64(nil), wb.keys[mid:]...)
		wb.keys = wb.keys[:mid]
		// The new bucket's replicas walk the cyclic live-host order from
		// the old primary (k <= live, so k distinct hosts exist).
		cur := wb.host
		walk := func() sim.HostID { cur = b.net.NextLive(cur); return cur }
		nb := &wbucket{min: upper[0], keys: upper, host: walk()}
		nb.mirrors = drawMirrors(b.net, b.rep.k, walk, nb.host)
		b.buckets[nb.min] = nb
		wb.replicas().addStorage(b.net, -len(upper))
		nb.replicas().addStorage(b.net, len(upper))
		// A crashed durable replica of wb slept through the split: its
		// stale copy still holds the upper half, so every moved key is
		// divergence the reconcile must truncate. The split's own transfer
		// is priced by the separator insert, so the paid count is unused.
		b.rep.writeThrough(nil, wb.replicas(), wb, nil, upper...)
		hops += b.writeThrough(nb, nb.min)
	}
	return hops, nil
}

// Range reports every key in [lo, hi] in ascending order: one routed
// floor query plus one message per bucket visited.
func (b *BucketWeb) Range(lo, hi uint64, origin sim.HostID) ([]uint64, int, error) {
	keys, c, err := b.RangeCost(lo, hi, origin)
	return keys, c.Hops, err
}

// RangeCost is Range reporting the full Cost pair — hop count plus the
// modeled critical-path latency — instead of hops alone. Accounting is
// identical; each bucket visit adds the link cost from the previous stop
// to the bucket replica entered.
func (b *BucketWeb) RangeCost(lo, hi uint64, origin sim.HostID) ([]uint64, Cost, error) {
	ground := b.web.Ground()
	min, ok, c, at, err := b.web.queryCost(lo, origin)
	if err != nil {
		return nil, c, err
	}
	model := b.net.CostModel()
	var r RangeID
	if !ok {
		// lo is below every separator: start at the first bucket.
		r = ground.Next(ground.Head())
	} else {
		r, _ = ground.ByKey(min)
	}
	var out []uint64
	for r != NoRange {
		wb := b.buckets[ground.Key(r)]
		bh, err := wb.replicas().firstLive(b.net)
		if err != nil {
			return out, c, err
		}
		c.Hops++ // visiting the bucket's live replica
		if model != nil {
			c.Latency += model.Link(at, bh)
		}
		at = bh
		done := false
		for _, k := range wb.keys {
			if k > hi {
				done = true
				break
			}
			if k >= lo {
				out = append(out, k)
			}
		}
		if done {
			break
		}
		r = ground.Next(r)
	}
	return out, c, nil
}

// Rehome migrates the separator routing web off the departed host `from`
// and moves every bucket replica it hosted (n/H keys each) to the next
// live hosts (distinct from the bucket's surviving replicas), charging
// one message per key moved. A replica with no distinct live target is
// dropped.
func (b *BucketWeb) Rehome(from sim.HostID, op *sim.Op) {
	b.web.Rehome(from, op)
	retargetUnits(&b.rep, b.eachBucket, b.rep.leaving(from), op)
}

// Rebalance hands the freshly joined host `onto` its expected 1/H share
// of the routing web and of the bucket replicas, charging every
// migration hop; a replica never lands on a host already serving the
// same bucket.
func (b *BucketWeb) Rebalance(onto sim.HostID, op *sim.Op) {
	b.web.Rebalance(onto, op)
	retargetUnits(&b.rep, b.eachBucket, b.rep.joining(onto), op)
}

// Repair re-replicates the routing web and every under-replicated
// bucket after a crash (repairUnits): a fresh replica is charged a full
// bucket copy, one message per key. Blocks and buckets with no surviving
// replica are reported via one DataLossError.
func (b *BucketWeb) Repair(op *sim.Op) error {
	var lost lossTally
	repairUnits(&b.web.rep, b.web.eachBlock, op, &lost)
	repairUnits(&b.rep, b.eachBucket, op, &lost)
	return lost.err()
}

// RestartHost reconciles host h's shard after a durable restart: the
// routing web first, then h's bucket replicas (reconcileUnits). Returns
// the number of storage units re-copied.
func (b *BucketWeb) RestartHost(h sim.HostID, op *sim.Op) int {
	return b.web.RestartHost(h, op) + reconcileUnits(&b.rep, b.eachBucket, h, op)
}

// CheckInvariants verifies the separator web, that every bucket is keyed
// by its separator, sorted, hosted on a live host, and that separators
// in the ground list and buckets correspond one to one.
func (b *BucketWeb) CheckInvariants() error {
	if err := b.web.CheckInvariants(); err != nil {
		return err
	}
	ground := b.web.Ground()
	for min, wb := range b.buckets {
		if wb.min != min {
			return fmt.Errorf("bucket keyed %d has min %d", min, wb.min)
		}
		if err := wb.replicas().check(b.net, b.rep.k); err != nil {
			return fmt.Errorf("bucket %d: %w", min, err)
		}
		for i := 1; i < len(wb.keys); i++ {
			if wb.keys[i] <= wb.keys[i-1] {
				return fmt.Errorf("bucket %d keys out of order", min)
			}
		}
		if _, ok := ground.ByKey(min); !ok {
			return fmt.Errorf("bucket separator %d missing from routing web", min)
		}
	}
	if ground.Len() != len(b.buckets) {
		return fmt.Errorf("routing web holds %d separators for %d buckets", ground.Len(), len(b.buckets))
	}
	stored := 0
	for _, wb := range b.buckets {
		stored += len(wb.keys)
	}
	if stored != b.n {
		return fmt.Errorf("buckets hold %d keys, Len reports %d", stored, b.n)
	}
	return nil
}

// Delete routes to the bucket and removes the key (separators persist,
// as in the bucket skip graph), writing through to every replica.
func (b *BucketWeb) Delete(key uint64, origin sim.HostID) (int, error) {
	min, ok, hops, err := b.web.Query(key, origin)
	if err != nil {
		return hops, err
	}
	if !ok {
		return hops, fmt.Errorf("core: key %d not found", key)
	}
	wb := b.buckets[min]
	i := sort.Search(len(wb.keys), func(i int) bool { return wb.keys[i] >= key })
	if i >= len(wb.keys) || wb.keys[i] != key {
		return hops, fmt.Errorf("core: key %d not found", key)
	}
	wb.keys = append(wb.keys[:i], wb.keys[i+1:]...)
	b.n--
	wb.replicas().addStorage(b.net, -1)
	return hops + b.writeThrough(wb, key), nil
}
