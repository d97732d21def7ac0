// Package skipwebs implements skip-webs, the randomized distributed data
// structures of Arge, Eppstein, and Goodrich ("Skip-Webs: Efficient
// Distributed Data Structures for Multi-Dimensional Data Sets", PODC
// 2005), together with the substrate structures and baselines the paper
// builds on and compares against.
//
// A skip-web stores a data set across the hosts of a peer-to-peer
// network and routes queries host-to-host. The framework applies to any
// "range-determined link structure" with a set-halving lemma; this
// package provides the paper's four instantiations:
//
//   - OneDim / Blocked / Bucketed — sorted sets with floor
//     (nearest-neighbor) queries. Blocked applies the paper's Section
//     2.4.1 blocking for O(log n / log log n) expected messages;
//     Bucketed additionally stores n/H keys per host for Õ(log_M H).
//   - Points — compressed quadtrees/octrees over d-dimensional integer
//     points with point-location queries (Section 3.1).
//   - Strings — compressed tries over fixed-alphabet strings with
//     exact-match and prefix queries (Section 3.2).
//   - Planar — trapezoidal maps of non-crossing segments with planar
//     point location (Section 3.3; static).
//
// All structures run on a simulated message-passing network that counts
// every cross-host hop, so the Hops values returned by queries and
// updates are exactly the message complexity the paper bounds. Per-host
// storage and congestion are tracked on the same network and exposed via
// Cluster.Stats.
package skipwebs

import (
	"fmt"
	"sync"
	"time"

	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/sim"
)

// HostID identifies a host in a Cluster. IDs are never reused: a host
// that leaves keeps its id (and its place in the traffic history), and a
// joining host always gets a fresh id.
type HostID = sim.HostID

// ErrHostDown is the sentinel error for operations that needed a
// crashed host: a query whose every replica of some unit is dead, or a
// batch operation whose rendezvous host died. Match with errors.Is; the
// concrete error names the host. No messages beyond those already
// charged are spent on a failed operation.
var ErrHostDown = sim.ErrHostDown

// DataLossError is returned by Cluster.Crash when the crash exceeded
// the replication factor's tolerance: some units had no surviving live
// replica and are unrecoverable. Queries needing them keep failing fast
// with ErrHostDown; all other data remains fully served.
type DataLossError = core.DataLossError

// ErrTimeout is the sentinel error for calls that exceeded the per-call
// deadline configured with Cluster.SetDoTimeout: a dead or wedged host
// returns a typed timeout instead of hanging the client forever. Match
// with errors.Is; the concrete error is a TimeoutError naming the host.
var ErrTimeout = sim.ErrTimeout

// TimeoutError reports that a dispatched operation did not complete
// within the configured deadline. An operation that had not started on
// its origin host is cancelled and never runs; one the deadline caught
// mid-execution is abandoned and finishes on its own — there only the
// caller's wait is bounded. No messages beyond those already charged are
// spent.
type TimeoutError = sim.TimeoutError

// migrator is the churn and fault-tolerance contract every structure
// registers with its Cluster at construction: migrate everything off a
// departing host, pick up a fair share of load for a joining host,
// re-replicate under-replicated units after a crash, reconcile a
// durably restarted host's shard, verify internal consistency, and
// report its read-path cache counters. The one implementation is
// striped (striped.go), which every structure embeds. The churn hooks
// run under the cluster's write lock.
type migrator interface {
	rehome(from HostID, op *sim.Op)
	rebalance(onto HostID, op *sim.Op)
	repair(op *sim.Op) error
	// restart merkle-reconciles host h's replicas after a durable
	// restart, returning the storage units re-copied.
	restart(h HostID, op *sim.Op) int
	// kind names the structure for per-structure loss reporting.
	kind() string
	check() error
	cacheStatsByHost(byHost map[HostID]CacheStats, total *CacheStats)
}

// Cluster is a failure-free peer-to-peer network of hosts with message,
// storage, and congestion accounting. All structures attached to a
// Cluster share its hosts and counters.
//
// A Cluster also owns the concurrent batch engine: the first batch call
// (FloorBatch, LocateBatch, InsertBatch, ...) on any attached structure
// starts one worker goroutine per host, and batches execute their
// operations on the origin hosts' workers via send-and-continue message
// passing. Read batches from all structures run fully in parallel, update
// batches run one writer per key-range stripe (Options.WriteStripes;
// single writer per stripe), and churn serializes against everything.
// Call Close to stop the workers when batches have been used.
type Cluster struct {
	net *sim.Network

	// mu is the churn lock over every structure attached to this
	// cluster: read AND write batches hold RLock — fine-grained
	// exclusion between them lives in each structure's per-key-range
	// write stripes (stripes.go) — while churn events (Join, Leave,
	// Crash, Restart, Repair) and Close hold Lock, draining every
	// in-flight batch. Synchronous (non-batch) calls take stripe locks
	// but not mu; do not run them concurrently with churn.
	mu sync.RWMutex

	// structs are the attached structures, in construction order; churn
	// migrates each in turn.
	structs []migrator

	workersOnce sync.Once
	workers     *sim.Cluster
	// doTimeout is applied to the workers at creation and on
	// SetDoTimeout (0 = wait forever).
	doTimeout time.Duration
}

// CostModel is the pluggable per-link latency model of the accounting
// spine: a pure function from an ordered host pair to a latency, in
// abstract model units (read them as microseconds). Install one with
// WithLatency and every charged message accumulates
// its sampled link cost onto the operation's critical path — sequential
// hops add, replicated write-through fan-outs pay the max over mirrors —
// while every existing counter (hops, messages, storage, congestion)
// stays untouched. Purity is load-bearing: identical seeds give
// identical per-operation latencies regardless of GOMAXPROCS, batch
// grouping, or stripe count. Construct models with FixedLatency,
// UniformLatency, LogNormalLatency, and TwoLevelLatency.
type CostModel = sim.CostModel

// FixedLatency returns the constant-cost model: every cross-host
// message costs c units. FixedLatency(0) measures latency machinery with
// zero cost; a nil model skips the machinery entirely.
func FixedLatency(c int64) CostModel { return sim.Fixed(c) }

// UniformLatency returns a model whose per-link cost is a fixed uniform
// sample in [lo, hi], drawn once per ordered host pair from the seed.
func UniformLatency(seed uint64, lo, hi int64) CostModel { return sim.Uniform(seed, lo, hi) }

// LogNormalLatency returns a model whose per-link cost is a fixed
// LogNormal(mu, sigma) sample per ordered host pair — the heavy-tailed
// WAN regime where hop counts and critical-path latency diverge.
func LogNormalLatency(seed uint64, mu, sigma float64) CostModel {
	return sim.LogNormal(seed, mu, sigma)
}

// TwoLevelLatency returns the 2-level rack/region topology model: hosts
// h and g share a rack when h/rackSize == g/rackSize, intra-rack links
// cost intra.Link, cross-rack links cost inter.Link.
func TwoLevelLatency(rackSize int, intra, inter CostModel) CostModel {
	return sim.TwoLevel(rackSize, intra, inter)
}

// ClusterOption configures a Cluster at construction.
type ClusterOption func(*Cluster)

// WithLatency installs m as the cluster's per-link latency model before
// any traffic flows. Nil leaves the default zero-latency accounting,
// which is bit-identical — counter for counter — to a cluster built
// without the option.
func WithLatency(m CostModel) ClusterOption {
	return func(c *Cluster) { c.net.SetCostModel(m) }
}

// NewCluster creates a cluster of h hosts. It panics if h <= 0.
func NewCluster(h int, opts ...ClusterOption) *Cluster {
	c := &Cluster{net: sim.NewNetwork(h)}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// SetDoTimeout bounds every dispatched operation (batch queries and
// updates) to d: a dead or wedged host yields a TimeoutError (matching
// ErrTimeout via errors.Is) for the affected operations instead of
// blocking the batch forever. Zero or negative restores the default of
// waiting indefinitely. An operation still queued behind the wedged host
// when its deadline passes is cancelled: it reports the timeout and is
// never applied. One already executing is not interrupted: it may still
// be applied after the batch has returned, but the batch reports the
// timeout for it and its returned hop count stays 0 — a late operation
// writes nothing the caller holds.
func (c *Cluster) SetDoTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.doTimeout = d
	if c.workers != nil {
		c.workers.SetDoTimeout(d)
	}
}

// Hosts returns the number of live hosts. Like every accessor that
// reads the host set, it takes the cluster's read lock so it is safe
// against concurrent Join/Leave.
func (c *Cluster) Hosts() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.net.LiveHosts()
}

// HostAt returns the i-th live host in ascending id order (i taken
// modulo the live count) — the churn-safe way to choose an origin host,
// since after a Leave the live ids are no longer contiguous. Before any
// churn, HostAt(i) == HostID(i).
func (c *Cluster) HostAt(i int) HostID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i %= c.net.LiveHosts()
	if i < 0 {
		i += c.net.LiveHosts()
	}
	return c.net.LiveAt(i)
}

// StorageQuantiles returns the q-quantiles (e.g. 0.5, 0.99, 1.0) of the
// per-live-host storage distribution, in the order requested — the load
// profile churn rebalancing is judged by.
func (c *Cluster) StorageQuantiles(qs ...float64) []int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.net.StorageQuantiles(qs...)
}

// attach registers a structure for churn migration and consistency
// checking. Every structure constructor calls it.
func (c *Cluster) attach(m migrator) {
	c.mu.Lock()
	c.structs = append(c.structs, m)
	c.mu.Unlock()
}

// beginBuild prepares the cluster for a structure build and returns the
// completion hook the constructor must call when the build is done.
// With opts.Durable set, the cluster-wide durable storage model is
// enabled (idempotent — the first durable structure turns it on for
// every host, and it stays on for the cluster's lifetime) and paused for
// the duration of the build: bulk construction charges storage only,
// exactly like the non-durable path, and the finished structure is
// folded into one fresh checkpoint per host instead of n WAL appends.
// Builds on an already-durable cluster pause the same way regardless of
// their own flag.
func (c *Cluster) beginBuild(opts Options) func() {
	if opts.Durable {
		c.net.EnableDurability(sim.DefaultCheckpointEvery)
	}
	if !c.net.Durable() {
		return func() {}
	}
	c.net.PauseDurability()
	return func() { c.net.ResumeDurability() }
}

// anyCrashed reports whether some host is currently down from a crash
// (as opposed to a clean Leave).
func (c *Cluster) anyCrashed() bool {
	for h := HostID(0); int(h) < c.net.Hosts(); h++ {
		if c.net.Crashed(h) {
			return true
		}
	}
	return false
}

// Join adds a fresh host to the cluster and returns its id. Every
// attached structure rebalances an expected 1/H share of its load onto
// the joiner, with each migration hop charged to the network — so churn
// cost is measurable in Stats exactly like query cost. Expected
// migration traffic is O(S/H) messages for S total storage units.
// Join blocks until in-flight batches drain (it takes the write lock).
func (c *Cluster) Join() HostID {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.net.AddHost()
	// After Close the worker pool is stopped but synchronous calls —
	// including churn — remain valid: the joiner simply gets no mailbox
	// (batches after Close panic anyway).
	if c.workers != nil && !c.workers.Stopped() {
		c.workers.AddHost(h)
	}
	op := c.net.NewOp(h)
	defer op.Free()
	for _, s := range c.structs {
		s.rebalance(h, op)
	}
	// A join can raise the feasible replica count (min(Replicas, live)):
	// top under-replicated units back up. On an unreplicated or fully
	// replicated cluster this is a read-only scan. Pre-existing data
	// loss (a crash that exceeded the tolerance before this join) is
	// not the joiner's news to deliver — Crash already reported it.
	// On a durable cluster with a host down, the top-up would amount to
	// giving up on the crashed host (re-homing its replicas and
	// discharging its disk image), which is Repair's explicit call to
	// make, not a side effect of someone else joining — so it is skipped
	// until every crashed host is restarted or repaired away.
	if !(c.net.Durable() && c.anyCrashed()) {
		for _, s := range c.structs {
			_ = s.repair(op)
		}
	}
	return h
}

// Crash removes host h the unclean way: no migration happens, the
// host's data dies with it, its mailbox (if the batch worker pool is
// running) is dropped, and the host joins the failed set that query
// routing consults for failover. Crash blocks until in-flight batches
// drain (it takes the write lock), so batches never observe the drop
// itself; afterwards the crashed host is rejected as a batch origin,
// and queries that need a unit with no live replica fail fast with
// ErrHostDown. (The mailbox-drop fail-fast rendezvous contract is the
// sim layer's: users driving sim.Cluster directly, without this
// cluster's locking, get the typed error instead of a hang.) Every
// attached structure then runs its Repair pass, re-replicating each
// surviving unit back to min(Replicas, live) copies — one message per
// storage unit copied, charged to the cluster like any traffic.
//
// With Options.Replicas k and at most k-1 crashes between repairs, no
// data is lost and every query keeps answering exactly as before. A
// crash beyond that tolerance returns a DataLossError naming how many
// units are unrecoverable; the cluster keeps serving everything else.
// Crash fails on a host that is not live and on the last live host, and
// blocks until in-flight batches drain (it takes the write lock).
//
// On a durable cluster (Options.Durable) the crashed host's disk image
// survives and no automatic repair runs: the host is expected back via
// Restart, which replays its WAL and merkle-reconciles anything it
// missed. Call Repair to give up on it instead; until one or the
// other, queries fail over to live replicas exactly as above.
func (c *Cluster) Crash(h HostID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.net.Alive(h) {
		return fmt.Errorf("skipwebs: host %d is not a live host", h)
	}
	if c.net.LiveHosts() == 1 {
		return fmt.Errorf("skipwebs: cannot crash the last live host %d", h)
	}
	c.net.Crash(h)
	if c.workers != nil && !c.workers.Stopped() {
		c.workers.Crash(h)
	}
	if c.net.Durable() {
		return nil // the host is expected back: Restart or Repair decides
	}
	// Repair is coordinated by the survivors; the op starts unplaced
	// (sim.None) so the first copy source is not double-charged.
	op := c.net.NewOp(sim.None)
	defer op.Free()
	return c.repairAll(op)
}

// repairAll runs every structure's repair pass and aggregates the
// outcome. Per-structure data losses are summed into one DataLossError
// so errors.As reports the cluster-wide count, the union of dead hosts
// involved, and the per-structure breakdown; Units is a snapshot of
// every unit currently without a live replica, so after repeated
// over-tolerance crashes the latest error carries the cumulative loss
// (earlier losses stay lost and are re-reported).
func (c *Cluster) repairAll(op *sim.Op) error {
	return mergeDataLoss(len(c.structs), func(i int) (string, error) {
		return c.structs[i].kind(), c.structs[i].repair(op)
	})
}

// Repair explicitly gives up on crashed hosts: every structure
// re-replicates its under-replicated units from surviving live
// replicas, dead replica slots are dropped for good (on a durable
// cluster their disk images are discharged, so a later Restart of the
// host comes back without the units repair re-homed), and units with no
// surviving replica are reported via a DataLossError naming the unit
// count, the dead hosts involved, and the per-structure breakdown. On a
// non-durable cluster Crash runs this automatically; here it is the
// deliberate "the host is not coming back" decision. Repair blocks
// until in-flight batches drain (it takes the write lock).
func (c *Cluster) Repair() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	op := c.net.NewOp(sim.None)
	defer op.Free()
	return c.repairAll(op)
}

// RestartStats reports what bringing a crashed durable host back cost.
type RestartStats struct {
	// ReplayMsgs counts the local recovery messages: one checkpoint
	// load plus one per WAL record replayed on top of it.
	ReplayMsgs int
	// MerkleMsgs counts the reconcile traffic: per-peer merkle digest
	// exchanges plus the diverged payloads re-shipped.
	MerkleMsgs int
	// CopiedUnits counts the storage units re-copied from peers — zero
	// when nothing diverged while the host was down.
	CopiedUnits int
}

// Restart brings crashed host h back on a durable cluster: the host
// reloads its last checkpoint and replays its write-ahead log (storage
// restored exactly, one charged message per replay step), rejoins the
// live set, and merkle-reconciles each structure's replicas with one
// live peer per unit — an O(divergence · log n)-message walk that
// re-copies only what changed while the host was down, instead of the
// full re-replication Repair pays. A host that missed nothing proves
// its shard clean with one digest exchange per peer and copies zero
// units. Restart fails on a non-durable cluster and on a host that is
// not crashed. A host already given up via Repair may still Restart:
// its image was discharged by the repair, so it rejoins live but
// empty, like a fresh host. Restart blocks until in-flight batches
// drain (it takes the write lock).
func (c *Cluster) Restart(h HostID) (RestartStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.net.Durable() {
		return RestartStats{}, fmt.Errorf("skipwebs: Restart(%d): cluster is not durable (set Options.Durable)", h)
	}
	if !c.net.Crashed(h) {
		return RestartStats{}, fmt.Errorf("skipwebs: Restart(%d): host is not crashed", h)
	}
	replay := c.net.Restart(h)
	if c.workers != nil && !c.workers.Stopped() {
		c.workers.Restart(h)
	}
	op := c.net.NewOp(sim.None)
	defer op.Free()
	copied := 0
	for _, s := range c.structs {
		copied += s.restart(h, op)
	}
	return RestartStats{ReplayMsgs: replay, MerkleMsgs: op.Hops(), CopiedUnits: copied}, nil
}

// Leave removes host h from the cluster after migrating every node,
// block, and bucket it stores onto surviving hosts — expected O(S/H)
// messages for S total storage units, all charged to the network. The
// host's id is retired, never reused. Leave fails on a host that is not
// live and on the last live host, and blocks until in-flight batches
// drain (it takes the write lock).
func (c *Cluster) Leave(h HostID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.net.Alive(h) {
		return fmt.Errorf("skipwebs: host %d is not a live host", h)
	}
	if c.net.LiveHosts() == 1 {
		return fmt.Errorf("skipwebs: cannot remove the last live host %d", h)
	}
	c.net.RemoveHost(h)
	op := c.net.NewOp(h)
	defer op.Free()
	for _, s := range c.structs {
		s.rehome(h, op)
	}
	// Complete the teardown (mailbox drained and closed) before the
	// drain audit below, so even its failure path leaves no half-applied
	// churn state behind. The worker guard matches Join: after Close
	// there is no mailbox, and a host that joined post-Close never had
	// one.
	if c.workers != nil && !c.workers.Stopped() {
		c.workers.RemoveHost(h)
	}
	// A non-zero residual means a structure's storage accounting is
	// broken, not that the caller misused the API: the departure itself
	// has fully taken effect, and the error exists to make the
	// accounting bug loud (the churn tests assert it never fires).
	if left := c.net.Storage(h); left != 0 {
		return fmt.Errorf("skipwebs: host %d still holds %d storage units after migration (storage accounting bug)", h, left)
	}
	return nil
}

// CheckConsistent verifies the invariants of every structure attached to
// the cluster: complete and live host placement, hyperlinks that match
// recomputation, and per-level item counts that add up. It is the churn
// acceptance check — after any Join/Leave sequence it must return nil.
func (c *Cluster) CheckConsistent() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, s := range c.structs {
		if err := s.check(); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarizes cluster-wide accounting. The cache fields aggregate
// the read-path counters (Options.CacheFingers / Options.NegativeBloom)
// over every structure and origin host; they stay zero with the caches
// off.
type Stats struct {
	Hosts          int
	TotalMessages  int64
	TotalOps       int64
	MaxStorage     int64
	MeanStorage    float64
	MaxCongestion  int64
	MeanCongestion float64
	// CacheHits counts queries answered from a finger cache for zero
	// charged messages; CacheMisses counts lookups that ran the full
	// descent, CacheInvalidations the entries evicted by a failed epoch
	// check (write or churn on their stripes).
	CacheHits          int64
	CacheMisses        int64
	CacheInvalidations int64
	// BloomTrueNegatives counts membership queries answered "definitely
	// absent" at the origin; BloomFalsePositives counts absent keys the
	// bloom let through to a full descent.
	BloomTrueNegatives  int64
	BloomFalsePositives int64
	// Latency summary of completed operations under the cluster's
	// latency model (WithLatency), in model units —
	// all zeros without a model. LatencyOps counts every operation the
	// network completed (queries, updates, and churn alike); the
	// quantiles are log-bucketed, within 12.5% of exact. For exact
	// per-query latency use the Latency field of the query results.
	LatencyOps  int64
	LatencyMean float64
	LatencyP50  int64
	LatencyP99  int64
	LatencyMax  int64
}

// Stats returns the current cluster counters.
func (c *Cluster) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := c.net.Snapshot()
	out := Stats{
		Hosts:          s.Hosts,
		TotalMessages:  s.TotalMessages,
		TotalOps:       s.TotalOps,
		MaxStorage:     s.MaxStorage,
		MeanStorage:    s.MeanStorage,
		MaxCongestion:  s.MaxCongestion,
		MeanCongestion: s.MeanCongestion,
		LatencyOps:     s.LatencyOps,
		LatencyMean:    s.LatencyMean,
		LatencyP50:     s.LatencyP50,
		LatencyP99:     s.LatencyP99,
		LatencyMax:     s.LatencyMax,
	}
	var agg CacheStats
	for _, m := range c.structs {
		m.cacheStatsByHost(nil, &agg)
	}
	out.CacheHits = agg.Hits
	out.CacheMisses = agg.Misses
	out.CacheInvalidations = agg.Invalidations
	out.BloomTrueNegatives = agg.BloomTrueNegatives
	out.BloomFalsePositives = agg.BloomFalsePositives
	return out
}

// CacheStatsByHost returns the read-path cache counters per origin host,
// summed over every attached structure — the per-host observability the
// skew bench mode reports. Hosts that never originated a cached or
// bloom-screened query are absent; the map is empty with the caches off.
func (c *Cluster) CacheStatsByHost() map[HostID]CacheStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[HostID]CacheStats)
	for _, m := range c.structs {
		m.cacheStatsByHost(out, nil)
	}
	return out
}

// ResetTraffic zeroes message and congestion counters while keeping
// storage, so query traffic can be measured separately from construction.
func (c *Cluster) ResetTraffic() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.net.ResetTraffic()
}

// WorkersStarted reports how many per-host worker goroutines the batch
// engine has actually launched. Workers start lazily on first use, so
// the count is bounded by the number of distinct hosts batch work has
// been dispatched to — not the cluster size — and is zero before the
// first batch. It is the scale-mode observability counter: a 10k-host
// cluster answering batches that touch 300 hosts runs 300 goroutines.
// No messages are charged.
func (c *Cluster) WorkersStarted() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.workers == nil {
		return 0
	}
	return c.workers.WorkersStarted()
}

// Close stops the per-host worker goroutines backing batch execution,
// draining any enqueued work first. Batch calls after Close panic;
// synchronous calls remain valid. Close is idempotent and free when no
// batch was ever run (the worker pool is never started just to be torn
// down).
func (c *Cluster) Close() {
	// Take the write lock so Close serializes with churn: without it, a
	// concurrent Join could spawn a worker between Stop's mailbox
	// snapshot and its wait, leaving Stop blocked on a mailbox it never
	// closed. In-flight batches (read lock) drain before Close proceeds.
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workersOnce.Do(func() {}) // ensure no pool can start after Close
	if c.workers != nil {
		c.workers.Stop()
	}
}

// cluster returns the per-host worker pool, starting it on first use.
func (c *Cluster) cluster() *sim.Cluster {
	c.workersOnce.Do(func() {
		c.workers = sim.NewCluster(c.net)
		if c.doTimeout > 0 {
			c.workers.SetDoTimeout(c.doTimeout)
		}
	})
	if c.workers == nil {
		panic("skipwebs: batch operation after Cluster.Close")
	}
	return c.workers
}

func (c *Cluster) network() *sim.Network { return c.net }
