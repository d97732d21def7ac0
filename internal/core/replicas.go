package core

import (
	"fmt"
	"slices"

	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// The replica layer. The paper has one storage idea: a unit — a range
// (Section 2), a block of ranges (Section 2.4.1's blocking), a bucket of
// keys (Table 1's last row) — lives on a host, and a message is charged
// when an operation crosses hosts. k-replication, failover, repair and
// durable restart are that one idea applied to each unit, so they are
// written once, here, for all three engines:
//
//   - replicaSet is the slot view over one unit's replica hosts;
//   - replicaTarget and drawMirrors are placement (the engine supplies the
//     draw, the distinctness mechanism is shared);
//   - replication holds an engine's fabric, factor, churn randomness and
//     miss log, and owns write-through, the leave and join rules, and the
//     record of write-throughs a crashed durable replica slept through;
//   - retargetUnits, repairUnits and reconcileUnits are the bodies of
//     Rehome/Rebalance, Repair and RestartHost.
//
// An engine supplies only what genuinely differs, as a replicaUnit: how
// its units are enumerated, what one replica of a unit stores, who must
// hear that a unit moved, and what re-syncing a stale replica costs.

// replicaSet is a view over the replica hosts of one unit. Slot 0 is the
// primary — the seed-compatible placement an unreplicated structure has
// always had — and slot i > 0 is mirror i-1. The view aliases the
// engine's own storage (a slab slot, a block-directory entry, a bucket),
// so it is valid until that storage next grows.
type replicaSet struct {
	primary *sim.HostID
	// mirrors is nil on an unreplicated structure, whose units never
	// carry secondary hosts.
	mirrors *[]sim.HostID
}

func (rs replicaSet) secondaries() []sim.HostID {
	if rs.mirrors == nil {
		return nil
	}
	return *rs.mirrors
}

// count returns how many replicas the unit has.
func (rs replicaSet) count() int { return 1 + len(rs.secondaries()) }

// at returns the host in replica slot `slot`.
func (rs replicaSet) at(slot int) sim.HostID {
	if slot == 0 {
		return *rs.primary
	}
	return (*rs.mirrors)[slot-1]
}

// set rewrites replica slot `slot`.
func (rs replicaSet) set(slot int, h sim.HostID) {
	if slot == 0 {
		*rs.primary = h
		return
	}
	(*rs.mirrors)[slot-1] = h
}

// has reports whether h serves a replica of the unit.
func (rs replicaSet) has(h sim.HostID) bool {
	return *rs.primary == h || slices.Contains(rs.secondaries(), h)
}

// drop discards replica slot `slot`; dropping the primary promotes the
// first mirror. Legal only while another replica remains.
func (rs replicaSet) drop(slot int) {
	if slot == 0 {
		*rs.primary = (*rs.mirrors)[0]
		slot = 1
	}
	*rs.mirrors = slices.Delete(*rs.mirrors, slot-1, slot)
}

// assign replaces the whole replica set: hosts[0] becomes the primary.
func (rs replicaSet) assign(hosts []sim.HostID) {
	*rs.primary = hosts[0]
	if rs.mirrors != nil {
		*rs.mirrors = append((*rs.mirrors)[:0], hosts[1:]...)
	}
}

// firstLive resolves the host serving the unit for routing: the primary
// when alive, else the first live mirror in slot order. The failed-host
// set is consulted for free — the failure detector every distributed
// store runs — so skipping a dead replica costs no probe; the failover
// cost is the (charged) visit to wherever the live replica actually
// sits. When every replica is down the unit is unreachable and the
// caller fails fast with the returned HostDownError. The primary-alive
// case is all an unreplicated, crash-free descent ever runs, so it is one
// direct call and one Alive check, with the mirror scan split off into
// failover (the compiler prices the pair above its inlining budget, as
// it did each of the three per-engine functions this replaces).
func (rs replicaSet) firstLive(net Fabric) (sim.HostID, error) {
	if h := *rs.primary; net.Alive(h) {
		return h, nil
	}
	return rs.failover(net)
}

func (rs replicaSet) failover(net Fabric) (sim.HostID, error) {
	for _, m := range rs.secondaries() {
		if net.Alive(m) {
			return m, nil
		}
	}
	return sim.None, &sim.HostDownError{Host: *rs.primary}
}

// addStorage charges delta storage units at every replica: each holds a
// full copy of the unit.
func (rs replicaSet) addStorage(net Fabric, delta int) {
	net.AddStorage(*rs.primary, delta)
	for _, m := range rs.secondaries() {
		net.AddStorage(m, delta)
	}
}

// sendAll charges one message to every replica, dead or alive and outside
// any fan-out window — the creation cost of a freshly placed unit.
func (rs replicaSet) sendAll(op *sim.Op) {
	op.Send(*rs.primary)
	for _, m := range rs.secondaries() {
		op.Send(m)
	}
}

// check verifies the replica contract Repair restores: min(k, live)
// distinct live hosts serve the unit.
func (rs replicaSet) check(net Fabric, k int) error {
	if want := replicaTarget(net, k); rs.count() < want {
		return fmt.Errorf("%d replicas, want %d", rs.count(), want)
	}
	for slot, n := 0, rs.count(); slot < n; slot++ {
		h := rs.at(slot)
		if !net.Alive(h) {
			return fmt.Errorf("replica %d on departed host %d", slot, h)
		}
		if slot > 0 && (h == *rs.primary || slices.Contains(rs.secondaries()[:slot-1], h)) {
			return fmt.Errorf("duplicate replica host %d", h)
		}
	}
	return nil
}

// sendN charges n messages to host h.
func sendN(op *sim.Op, h sim.HostID, n int) {
	for i := 0; i < n; i++ {
		op.Send(h)
	}
}

// replicaTarget returns how many distinct live hosts each unit should be
// mirrored on right now: the configured factor k, capped by the live host
// count (a 2-host cluster cannot hold 3 distinct replicas).
func replicaTarget(net Fabric, k int) int {
	return min(k, net.LiveHosts())
}

// drawDistinct extends taken with draws from the engine's placement
// policy until it names k distinct hosts, rejecting repeats. The caller
// guarantees k distinct live hosts exist. Rejection keeps a uniform draw
// uniform over the remaining hosts and a round-robin draw in sequence,
// and with taken empty the first draw is always accepted, so k = 1
// consumes exactly the randomness an unreplicated build always has.
func drawDistinct(draw func() sim.HostID, taken []sim.HostID, k int) []sim.HostID {
	for len(taken) < k {
		if h := draw(); !slices.Contains(taken, h) {
			taken = append(taken, h)
		}
	}
	return taken
}

// drawMirrors draws the secondary hosts of a fresh unit whose primary is
// already drawn; nil when only one replica is wanted or feasible.
func drawMirrors(net Fabric, k int, draw func() sim.HostID, primary sim.HostID) []sim.HostID {
	k = replicaTarget(net, k)
	if k <= 1 {
		return nil
	}
	return drawDistinct(draw, append(make([]sim.HostID, 0, k), primary), k)[1:]
}

// replication is one engine's replica-layer state. K names a unit in the
// miss log: it must stay valid while the unit lives, whatever happens to
// the engine's indices meanwhile.
type replication[K comparable] struct {
	net Fabric
	// k is the configured replication factor (1 = unreplicated).
	k int
	// draw is the engine's churn-time placement policy and rng its churn
	// randomness: Web draws uniformly from its rng, BlockedWeb round-robin
	// from its host sequence, BucketWeb borrows its routing web's. The
	// policies stay per engine because every seed pins them.
	draw func() sim.HostID
	rng  *xrand.Rand
	// missed records, per stale replica, the write-throughs suppressed
	// because its host was crashed on a durable fabric; RestartHost prices
	// the merkle reconcile from it. Lazily allocated: nil until a durable
	// crash overlaps an update.
	missed map[missAt[K]]missRecord
}

// missAt names one stale replica: the unit's copy at crashed host h.
type missAt[K comparable] struct {
	unit K
	h    sim.HostID
}

// missRecord is what one stale replica slept through: how many
// write-throughs, and — for engines whose updates know their key — which
// keys, so the reconcile gets exact divergence positions.
type missRecord struct {
	n    int
	keys []uint64
}

// miss records one write-through that replica host h of unit did not hear.
func (st *replication[K]) miss(unit K, h sim.HostID, keys []uint64) {
	if st.missed == nil {
		st.missed = make(map[missAt[K]]missRecord)
	}
	at := missAt[K]{unit, h}
	m := st.missed[at]
	m.n++
	m.keys = append(m.keys, keys...)
	st.missed[at] = m
}

// forget drops whatever divergence is recorded against a unit that is
// about to disappear, so a recycled name inherits nothing.
func (st *replication[K]) forget(rs replicaSet, unit K) {
	if len(st.missed) == 0 {
		return
	}
	for slot, n := 0, rs.count(); slot < n; slot++ {
		delete(st.missed, missAt[K]{unit, rs.at(slot)})
	}
}

// writeThrough sends one update message to every replica of a unit and
// returns how many were actually paid. The replicas are contacted in
// parallel, so the fan-out window makes the operation's critical-path
// latency pay the slowest replica link, not the sum; hop and message
// counters are unchanged by the window, and at k = 1 the whole call is
// exactly the single op.Send the unreplicated path always charged.
//
// A replica whose host is crashed on a durable fabric is not sent to
// (nobody is listening): the update is recorded as a miss, with keys when
// the engine knows them, and that replica pays at RestartHost time
// through the merkle reconcile instead. On a non-durable fabric every
// send is unconditional.
//
// once, when non-nil, is the set of hosts this update has already
// charged: a host in it is not charged again and a charged host is added
// (BlockedWeb's one-message-per-host-per-update rule). A miss bypasses it
// on purpose — one physical message can carry several units' updates, but
// each unit diverges individually. op is nil for an engine that counts its
// unit messages outside any Op (BucketWeb adds the returned count to its
// hop total).
func (st *replication[K]) writeThrough(op *sim.Op, rs replicaSet, unit K, once *[]sim.HostID, keys ...uint64) int {
	if op != nil {
		op.FanoutBegin()
	}
	paid, durable := 0, st.net.Durable()
	for slot, n := 0, rs.count(); slot < n; slot++ {
		h := rs.at(slot)
		if durable && st.net.Crashed(h) {
			st.miss(unit, h, keys)
			continue
		}
		paid++
		if op == nil || (once != nil && slices.Contains(*once, h)) {
			continue
		}
		op.Send(h)
		if once != nil {
			*once = append(*once, h)
		}
	}
	if op != nil {
		op.FanoutEnd()
	}
	return paid
}

// retarget is a churn decision over one unit: replica slot `slot` (-1:
// leave the unit alone) moves to host `to`, or is dropped.
type retarget func(rs replicaSet) (slot int, to sim.HostID, drop bool)

// leaving is the Rehome rule for a host the network has already marked
// departed: the one replica it held (replicas are distinct) moves to a
// fresh draw distinct from the unit's other replicas, or is dropped when
// the live set is too small for that — the cluster shrank below the
// replication factor. The departed host is never drawn, so rejecting any
// current replica host is rejecting exactly the other replicas.
func (st *replication[K]) leaving(from sim.HostID) retarget {
	return func(rs replicaSet) (int, sim.HostID, bool) {
		count := rs.count()
		for slot := 0; slot < count; slot++ {
			if rs.at(slot) != from {
				continue
			}
			if st.net.LiveHosts() < count {
				return slot, sim.None, true
			}
			to := st.draw()
			for rs.has(to) {
				to = st.draw()
			}
			return slot, to, false
		}
		return -1, sim.None, false
	}
}

// joining is the Rebalance rule for a freshly joined host: each replica
// moves onto it independently with probability 1/live, restoring the
// uniform placement a from-scratch build over the enlarged live set
// would have produced — the joiner picks up an expected 1/H share of
// every level. The draw happens once per (unit, slot) whatever is then
// decided, so the randomness stream is independent of skip decisions and
// of crashes. A hit is skipped when the joiner already serves the unit
// (replica sets stay distinct, so at most one slot per unit moves) or
// when the slot is dead: relocating a replica lost in a crash that
// exceeded the tolerance would resurrect data the crash destroyed and
// discharge a storage counter the crash already zeroed.
func (st *replication[K]) joining(onto sim.HostID) retarget {
	live := st.net.LiveHosts()
	return func(rs replicaSet) (int, sim.HostID, bool) {
		moving := -1
		for slot, n := 0, rs.count(); slot < n; slot++ {
			if st.rng.Intn(live) == 0 && moving < 0 && !rs.has(onto) && st.net.Alive(rs.at(slot)) {
				moving = slot
			}
		}
		return moving, onto, false
	}
}

// replicaUnit is what an engine tells the shared bodies about one of its
// units. K is the unit's name in the engine's miss log.
type replicaUnit[K comparable] interface {
	// replicas is the slot view over the unit's hosts.
	replicas() replicaSet
	// name is the unit's miss-log key.
	name() K
	// size is the storage footprint one replica of the unit carries — what
	// a migration moves and a repair copies, one message per unit.
	size() int
	// moved tells whoever dereferences the unit by host that its address
	// changed; called after a replica moves, the primary is dropped, or a
	// repair promotes a new primary.
	moved(op *sim.Op)
	// reconcile prices bringing one stale replica, which missed m, back in
	// sync with a live peer.
	reconcile(m missRecord) merkleCost
}

// retargetUnits applies a churn decision to every unit the engine
// enumerates (in its deterministic order, so a fixed seed yields a fixed
// migration transcript), migrating one unit at a time: a moved replica's
// footprint transfers as storage and is charged one message per unit
// moved; a dropped replica's is discharged at the host it leaves.
func retargetUnits[K comparable, U replicaUnit[K]](st *replication[K], each func(visit func(U)), decide retarget, op *sim.Op) {
	each(func(u U) {
		rs := u.replicas()
		slot, to, drop := decide(rs)
		if slot < 0 {
			return
		}
		size := u.size()
		st.net.AddStorage(rs.at(slot), -size)
		if drop {
			rs.drop(slot)
			if slot == 0 {
				u.moved(op)
			}
			return
		}
		st.net.AddStorage(to, size)
		rs.set(slot, to)
		sendN(op, to, size)
		u.moved(op)
	})
}

// lossTally accumulates the units a Repair pass found with no surviving
// live replica and the dead hosts they lived on.
type lossTally struct {
	units int
	hosts []sim.HostID
}

// err reports the tally as a DataLossError, or nil when nothing was lost.
func (t *lossTally) err() error {
	if t.units == 0 {
		return nil
	}
	slices.Sort(t.hosts)
	return &DataLossError{Units: t.units, Hosts: slices.Compact(t.hosts)}
}

// repairUnits re-replicates every under-replicated unit after a crash (or
// a join that raised the feasible replica count): dead replicas are
// dropped from the replica set, a surviving live replica is promoted to
// primary when the primary died, and fresh distinct live hosts are
// charged a full copy — one message per storage unit copied from a
// survivor — until the unit is back to min(k, live hosts) replicas. On a
// durable fabric a dropped replica's crashed host still carries it on
// disk, so it is discharged there too (a later Restart must not resurrect
// units the repair re-homed elsewhere) and its miss record is dropped.
// Units with no surviving replica are left in place — queries against
// them keep failing fast with a HostDownError — and added to the tally.
func repairUnits[K comparable, U replicaUnit[K]](st *replication[K], each func(visit func(U)), op *sim.Op, lost *lossTally) {
	target := replicaTarget(st.net, st.k)
	each(func(u U) {
		rs := u.replicas()
		count, alive := rs.count(), 0
		for slot := 0; slot < count; slot++ {
			if st.net.Alive(rs.at(slot)) {
				alive++
			}
		}
		if alive == count && count >= target {
			return // fully replicated: the overwhelmingly common case
		}
		size := u.size()
		hosts := make([]sim.HostID, 0, max(count, target))
		for slot := 0; slot < count; slot++ {
			h := rs.at(slot)
			switch {
			case alive == 0:
				lost.hosts = append(lost.hosts, h)
			case st.net.Alive(h):
				hosts = append(hosts, h)
			case st.net.Durable() && st.net.Crashed(h):
				st.net.AddStorage(h, -size)
				delete(st.missed, missAt[K]{u.name(), h})
			}
		}
		if alive == 0 {
			lost.units += size
			return
		}
		hosts = drawDistinct(st.draw, hosts, target)
		for _, h := range hosts[alive:] {
			st.net.AddStorage(h, size)
			sendN(op, h, size) // copied from a surviving replica
		}
		promoted := hosts[0] != rs.at(0)
		rs.assign(hosts)
		if promoted {
			u.moved(op)
		}
	})
}

// reconcileUnits reconciles host h's shard after a durable restart: h has
// already replayed its checkpoint + WAL (Network.Restart), so its local
// image is storage-exact, but any replica that slept through
// write-throughs while h was down is stale. Each of h's units reconciles
// with one live peer — its first live co-replica in slot order; a unit
// whose other replicas are all down has no fresher copy to learn from and
// is served as replayed. Units are grouped by peer, each group exchanges
// an outer merkle walk over its per-unit digests (merkleDiff prices it; a
// clean group costs one root exchange and copies nothing), and each
// diverged unit pays the engine's inner reconcile price. Records left
// over for h — units repaired away while it was down, or with no live
// peer — are purged. Returns the storage units re-copied; every message
// is charged to op against h.
func reconcileUnits[K comparable, U replicaUnit[K]](st *replication[K], each func(visit func(U)), h sim.HostID, op *sim.Op) int {
	groups := make(map[sim.HostID][]U)
	var peers []sim.HostID
	each(func(u U) {
		rs := u.replicas()
		if !rs.has(h) {
			return
		}
		for slot, n := 0, rs.count(); slot < n; slot++ {
			if p := rs.at(slot); p != h && st.net.Alive(p) {
				if groups[p] == nil {
					peers = append(peers, p)
				}
				groups[p] = append(groups[p], u)
				return
			}
		}
	})
	slices.Sort(peers)
	copied := 0
	for _, p := range peers {
		units := groups[p]
		var dirty []int
		for i, u := range units {
			if st.missed[missAt[K]{u.name(), h}].n > 0 {
				dirty = append(dirty, i)
			}
		}
		sendN(op, h, merkleDiff(len(units), dirty).walk) // per-unit digest exchange with peer p
		for _, i := range dirty {
			at := missAt[K]{units[i].name(), h}
			cost := units[i].reconcile(st.missed[at])
			sendN(op, h, cost.msgs()) // inner walk + diverged payloads
			copied += cost.keys
			delete(st.missed, at)
		}
	}
	for at := range st.missed {
		if at.h == h {
			delete(st.missed, at)
		}
	}
	return copied
}
