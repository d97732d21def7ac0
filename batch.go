package skipwebs

import (
	"errors"
	"fmt"
	"sync"
)

// Batch execution engine.
//
// Every structure in this package exposes batch variants of its
// operations (FloorBatch, LocateBatch, SearchBatch, InsertBatch, ...)
// that execute N operations concurrently over the cluster instead of one
// at a time. The i-th operation runs on its origin host's worker
// goroutine, dispatched with send-and-continue message passing, so
// operations with distinct origins proceed in parallel while operations
// sharing an origin serialize in order — exactly the many-simultaneous-
// queries regime the paper's congestion measure C(n) is defined over
// (Section 1.1).
//
// Concurrency control is single-writer-per-stripe/many-reader: both read
// and write batches hold the cluster's read lock (churn — Join, Leave,
// Crash, Restart — takes the write lock and drains them all), and
// fine-grained exclusion moves to per-key-range write stripes
// (stripes.go). A read descends under its target stripe's read lock and
// runs fully parallel with other reads and with writers to other
// stripes; an update holds its stripe's writer lock, so writers to
// different key ranges of the same structure — and writers to different
// structures on one cluster — proceed concurrently. Unsharded structures
// (Options.WriteStripes <= 1, the default) have exactly one stripe, which
// restores the classic single-writer/many-reader regime per structure.
//
// A write batch dispatches each stripe's operations on a dedicated
// goroutine, preserving input order within the stripe; operations of
// different stripes interleave arbitrarily, which is invisible to both
// answers and accounting because stripes share no structure state. Each
// write still executes as its origin host, one task per host at a time
// (sim.Cluster.RunAs): on the stripe's goroutine when the origin is
// idle, handed to the origin's worker only when it is busy.
//
// Accounting is identical to the synchronous path: each batched operation
// opens its own sim.Op from its origin host and follows the same
// host-to-host route, so per-operation hop counts and the cluster's
// message/congestion counters match a sequential execution of the same
// workload operation for operation — including under striping, where
// stripe assignment is a pure function of the key and dispatch is never
// charged.
//
// Origins: every batch method takes an origins slice designating the host
// each operation starts from. Pass nil to spread operations round-robin
// over all hosts (origin i%H for the i-th operation); otherwise the i-th
// operation uses origins[i%len(origins)], so a single-element slice pins
// the whole batch to one host and a len(N) slice assigns origins
// one-to-one.

// ContainsResult is one answer of a membership batch.
type ContainsResult struct {
	// Found reports whether the exact key/point is stored.
	Found bool
	// Hops is the number of messages the query cost.
	Hops int
	// Latency is the query's modeled critical-path latency under the
	// cluster's latency model, in model units. Zero without a model and
	// zero on cache/bloom short-circuits (see FloorResult.Latency).
	Latency int64
}

// KeyRange is one [Lo, Hi] query of a range batch (inclusive bounds).
type KeyRange struct {
	Lo, Hi uint64
}

// RangeResult is one answer of a range batch.
type RangeResult struct {
	// Keys are the stored keys in [Lo, Hi], ascending.
	Keys []uint64
	// Hops is the number of messages the query cost.
	Hops int
	// Latency is the query's modeled critical-path latency under the
	// cluster's latency model, in model units; per-stripe descents in a
	// cross-stripe range sum, mirroring Hops. Zero without a model.
	Latency int64
}

// checkOrigins validates an origins slice: every origin must be a live
// host (departed hosts issue no operations).
func (c *Cluster) checkOrigins(origins []HostID) error {
	for _, o := range origins {
		if !c.net.Alive(o) {
			return fmt.Errorf("skipwebs: origin host %d is not a live host", o)
		}
	}
	return nil
}

// originAt resolves the origin of the i-th operation of a batch. The nil
// default spreads operations round-robin over the live hosts, so batches
// keep working across host churn.
func (c *Cluster) originAt(origins []HostID, i int) HostID {
	if len(origins) == 0 {
		return c.net.LiveAt(i % c.net.LiveHosts())
	}
	return origins[i%len(origins)]
}

// runReadBatch executes one query per element of qs concurrently on the
// origin hosts' workers, under the cluster's read lock. All queries run
// even when some fail; the returned error joins the per-operation errors.
func runReadBatch[Q, R any](c *Cluster, qs []Q, origins []HostID, do func(q Q, origin HostID) (R, error)) ([]R, error) {
	out := make([]R, len(qs))
	errs := make([]error, len(qs))
	// Origin validation and the worker pool's lazy start both read the
	// network's host set, which churn (Join/Leave, write lock) mutates —
	// they must run under the lock, which also closes the window between
	// "origin checked live" and "origin's mailbox still open".
	c.mu.RLock()
	defer c.mu.RUnlock()
	if err := c.checkOrigins(origins); err != nil {
		return nil, err
	}
	if len(qs) == 0 {
		return out, nil
	}
	cl := c.cluster()
	cl.RunBatch(len(qs),
		func(i int) HostID { return c.originAt(origins, i) },
		func(i int) {
			origin := c.originAt(origins, i)
			out[i], errs[i] = do(qs[i], origin)
		})
	return out, errors.Join(errs...)
}

// stripeGroups partitions batch indices by target stripe, preserving
// input order within each group; an unsharded structure gets the one
// group holding every index.
func stripeGroups[X any](st *stripeSet, xs []X, codeOf func(X) uint64) [][]int {
	if st.n() == 1 {
		all := make([]int, len(xs))
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}
	groups := make([][]int, st.n())
	for i := range xs {
		s := st.of(codeOf(xs[i]))
		groups[s] = append(groups[s], i)
	}
	return groups
}

// runWriteBatch executes one update per element of xs — one dedicated
// dispatcher goroutine per write stripe (none for an unsharded
// structure), each applying its stripe's updates strictly in input order
// as their origin hosts, one RunAs per update: inline while the origin
// is idle, a rendezvous on its worker while it is busy or under a
// SetDoTimeout deadline. The per-update stripe writer lock is taken
// inside do (the structures' insert/delete methods), which calls only
// the engine, never back into the transport, as RunAs requires.
// Remaining updates still run after one fails,
// and the returned error joins the per-operation errors. The hop cost of
// each update is returned in input order. codeOf maps an update to its
// stripe code; it must agree with the routing the structure's
// synchronous path uses, and is a pure function, so the stripe schedule
// of a batch is deterministic.
func runWriteBatch[X any](c *Cluster, xs []X, origins []HostID, st *stripeSet,
	codeOf func(X) uint64, do func(x X, origin HostID) (int, error)) ([]int, error) {
	hops := make([]int, len(xs))
	errs := make([]error, len(xs))
	// Validation must run under the lock; see runReadBatch. Writers hold
	// the read lock: churn still excludes them (it takes the write
	// lock), while stripes provide writer-writer and writer-reader
	// exclusion at key-range granularity.
	c.mu.RLock()
	defer c.mu.RUnlock()
	if err := c.checkOrigins(origins); err != nil {
		return nil, err
	}
	if len(xs) == 0 {
		return hops, nil
	}
	// Each task writes result slots of its own, copied into hops and errs
	// only once RunAs reports the task done: a task already executing on
	// the worker when its deadline passes finishes after this call has
	// returned, and must not write what the caller then owns.
	slotHops := make([]int, len(xs))
	slotErrs := make([]error, len(xs))
	cl := c.cluster()
	runStripe := func(idx []int) {
		for a := range idx {
			i := idx[a]
			origin := c.originAt(origins, i)
			if err := cl.RunAs(origin, func() { slotHops[i], slotErrs[i] = do(xs[i], origin) }); err != nil {
				// The origin died mid-rendezvous (a crash racing the
				// batch) or stayed wedged past SetDoTimeout: the op
				// failed fast, typed. A task that had not started never
				// will; one already executing writes only its slots.
				errs[i] = err
			} else {
				hops[i], errs[i] = slotHops[i], slotErrs[i]
			}
		}
	}
	groups := stripeGroups(st, xs, codeOf)
	if len(groups) == 1 {
		runStripe(groups[0])
		return hops, errors.Join(errs...)
	}
	var wg sync.WaitGroup
	for _, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		wg.Add(1)
		go func(idx []int) {
			defer wg.Done()
			runStripe(idx)
		}(idx)
	}
	wg.Wait()
	return hops, errors.Join(errs...)
}
