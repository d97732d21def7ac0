package skipwebs

import (
	"errors"
	"fmt"
	"sort"

	"github.com/skipwebs/skipwebs/internal/sim"
)

// engine is the method set the three core engines (core.Web,
// core.BlockedWeb, core.BucketWeb) share: everything the striped
// front-end needs that does not depend on the key or query type.
type engine interface {
	Len() int
	Rehome(from HostID, op *sim.Op)
	Rebalance(onto HostID, op *sim.Op)
	Repair(op *sim.Op) error
	RestartHost(h HostID, op *sim.Op) int
	CheckInvariants() error
}

// striped is the front-end base all six public structures embed: one
// engine per write stripe (stripes.go) behind the stripe routing table,
// the read-path caches (cache.go), and the single implementation of the
// migrator contract the Cluster drives. Structures add only their query
// and update methods on top; Planar is the one-stripe, writer-free case.
type striped[E engine] struct {
	c    *Cluster
	st   *stripeSet
	ws   []E
	name string
	// codes lists the stripe codes of the keys an engine stores, for the
	// routing audit in check; nil when the engine does not expose them.
	codes func(w E) []uint64
	readPath
}

// buildStriped is the constructor plumbing: it builds one engine per
// part with that stripe's seed (durability paused for the bulk build, see
// Cluster.beginBuild), sets up the caches — blooms seeded from the parts
// through hash — and attaches s to the cluster for churn.
func buildStriped[E engine, T any](s *striped[E], c *Cluster, name string, opts Options,
	st *stripeSet, parts [][]T, hash func(T) uint64, codes func(E) []uint64,
	build func(part []T, seed uint64) (E, error)) error {
	done := c.beginBuild(opts)
	ws := make([]E, st.n())
	for i, part := range parts {
		w, err := build(part, stripeSeed(opts.Seed, i, st.n()))
		if err != nil {
			done()
			return fmt.Errorf("skipwebs: %w", err)
		}
		ws[i] = w
	}
	done()
	*s = striped[E]{c: c, st: st, ws: ws, name: name, codes: codes,
		readPath: newReadPath(opts, st, parts, hash)}
	c.attach(s)
	return nil
}

// epochs returns the epoch buckets the codes [lo, hi] occupy within
// stripe i, and the sum of their write epochs: what a query hands memo
// (cache.go) for the part of its answer that depends on those codes. The
// caller holds stripe i's reader lock, so the sum is exactly the epoch of
// the data it read. Codes outside the stripe clip to its first and last
// bucket — (i, 0, ^0) is the whole stripe. Zero without a finger cache.
func (s *striped[E]) epochs(i int, lo, hi uint64) (blo, bhi int, sum uint64) {
	if s.rc == nil {
		return 0, 0, 0
	}
	ep := s.rc.ep
	blo, bhi = ep.bucket(i, lo), ep.bucket(i, hi)
	return blo, bhi, ep.sum(blo, bhi)
}

// each calls f on every stripe's engine in stripe order, under that
// stripe's reader lock.
func (s *striped[E]) each(f func(w E)) {
	for i, w := range s.ws {
		s.st.rlock(i)
		f(w)
		s.st.runlock(i)
	}
}

// size returns the number of stored items.
func (s *striped[E]) size() int {
	n := 0
	s.each(func(w E) { n += w.Len() })
	return n
}

// The migrator contract (skipwebs.go). Churn holds the cluster write
// lock, which excludes every stripe writer and batch reader (they hold
// the cluster read lock), so the hooks walk all stripes unlocked; each
// first bumps the churn epoch, lazily invalidating the finger cache.
// Units migrate with their hyperlinks, one message per storage unit
// moved.
func (s *striped[E]) rehome(from HostID, op *sim.Op) {
	s.bumpChurn()
	for _, w := range s.ws {
		w.Rehome(from, op)
	}
}

func (s *striped[E]) rebalance(onto HostID, op *sim.Op) {
	s.bumpChurn()
	for _, w := range s.ws {
		w.Rebalance(onto, op)
	}
}

// repair re-replicates every under-replicated unit from its surviving
// live replicas, reporting the structure-wide loss.
func (s *striped[E]) repair(op *sim.Op) error {
	s.bumpChurn()
	return mergeDataLoss(len(s.ws), func(i int) (string, error) { return "", s.ws[i].Repair(op) })
}

// restart merkle-reconciles the restarted host's units against one live
// peer each.
func (s *striped[E]) restart(h HostID, op *sim.Op) int {
	s.bumpChurn()
	n := 0
	for _, w := range s.ws {
		n += w.RestartHost(h, op)
	}
	return n
}

func (s *striped[E]) kind() string { return s.name }

// check verifies every engine's invariants and — under striping, where
// the engine exposes its keys — that every stored key lives in the
// stripe its code routes to.
func (s *striped[E]) check() error {
	for i, w := range s.ws {
		if err := w.CheckInvariants(); err != nil {
			return err
		}
		if s.codes == nil || s.st.n() == 1 {
			continue
		}
		for _, code := range s.codes(w) {
			if got := s.st.of(code); got != i {
				return fmt.Errorf("skipwebs: %s key with stripe code %#x stored in stripe %d but routes to stripe %d",
					s.name, code, i, got)
			}
		}
	}
	return nil
}

// mergeDataLoss runs n repair passes and folds their outcomes into one
// error: data losses sum into a single DataLossError — units added, the
// dead hosts involved unioned, and a per-structure breakdown for passes
// that name their kind — so errors.As sees the total; other errors join
// alongside.
func mergeDataLoss(n int, pass func(i int) (kind string, err error)) error {
	lost := 0
	hostSet := map[HostID]bool{}
	var structures map[string]int
	var errs []error
	for i := 0; i < n; i++ {
		kind, err := pass(i)
		var dl *DataLossError
		switch {
		case err == nil:
		case errors.As(err, &dl):
			lost += dl.Units
			if kind != "" {
				if structures == nil {
					structures = make(map[string]int)
				}
				structures[kind] += dl.Units
			}
			for _, h := range dl.Hosts {
				hostSet[h] = true
			}
		default:
			errs = append(errs, err)
		}
	}
	if lost > 0 {
		hosts := make([]HostID, 0, len(hostSet))
		for h := range hostSet {
			hosts = append(hosts, h)
		}
		sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
		errs = append(errs, &DataLossError{Units: lost, Hosts: hosts, Structures: structures})
	}
	return errors.Join(errs...)
}

// wrapHops passes an engine update's hop count through, prefixing its
// error with the package name.
func wrapHops(h int, err error) (int, error) {
	if err != nil {
		return h, fmt.Errorf("skipwebs: %w", err)
	}
	return h, nil
}
