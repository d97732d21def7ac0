// Package sim provides the distributed-systems substrate on which every
// structure in this repository is built and measured.
//
// The skip-webs paper (Arge, Eppstein, Goodrich, PODC 2005) evaluates
// distributed data structures by four cost measures over a network of H
// hosts: per-host memory M, per-host congestion C(n), query message count
// Q(n), and update message count U(n). None of those are wall-clock
// quantities, so the substrate is an accounting simulator: hosts are
// identities, and every cross-host pointer dereference performed by a
// structure is recorded as one message. Same-host pointer follows are free,
// exactly as in the paper's model (Section 1.1).
//
// Two execution modes are provided:
//
//   - Network alone: synchronous, deterministic accounting. All experiment
//     numbers in EXPERIMENTS.md come from this mode.
//   - Cluster: runs one goroutine per host and executes work as the
//     owning host, one task per host at a time, serializing per-host state
//     access the way a real message-passing node would. Do is the
//     blocking rendezvous on the host's goroutine; RunAs is Do run on the
//     caller's goroutine whenever the host is idle, the host's mailbox
//     serving as its lock (the batch write path); Go is the
//     send-and-continue variant backing the batch query engine, and
//     RunBatch fans a whole batch out over the per-host workers.
//     Integration tests use it (with -race) to demonstrate the structures
//     operate correctly as concurrent message-passing code.
package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// HostID identifies a host in the network. Hosts are numbered 0..H-1.
type HostID int32

// None is the sentinel for "no host"; operations that have not yet visited
// any host start there.
const None HostID = -1

// ErrHostDown is the sentinel error for operations that required a
// crashed host. Match with errors.Is; the concrete error carried through
// the failure paths is a HostDownError, which wraps this sentinel and
// names the host.
var ErrHostDown = errors.New("host is down")

// HostDownError reports that an operation needed host Host, which has
// crashed (unclean departure, its data lost). It is the typed fail-fast
// error the crash subsystem promises: query descents that find no live
// replica, and rendezvous with a dropped mailbox, both surface it.
type HostDownError struct{ Host HostID }

// Error describes the failed host.
func (e *HostDownError) Error() string {
	return fmt.Sprintf("sim: host %d is down (crashed)", e.Host)
}

// Unwrap makes errors.Is(err, ErrHostDown) match.
func (e *HostDownError) Unwrap() error { return ErrHostDown }

// ErrTimeout is the sentinel error for operations that exceeded a
// configured per-call deadline (Transport.SetDoTimeout, and the wire
// transport's dial/read deadlines). Match with errors.Is; the concrete
// error carried is a TimeoutError naming the host and the deadline.
var ErrTimeout = errors.New("operation timed out")

// TimeoutError reports that a call to host Host did not complete within
// After. It is the typed error a dead or wedged remote host produces
// instead of hanging the caller forever. A task that had not started
// when the deadline passed is cancelled and never runs; one already
// executing is abandoned and finishes on its own.
type TimeoutError struct {
	Host  HostID
	After time.Duration
}

// Error describes the timed-out call.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("sim: call to host %d timed out after %v", e.Host, e.After)
}

// Unwrap makes errors.Is(err, ErrTimeout) match.
func (e *TimeoutError) Unwrap() error { return ErrTimeout }

// Timeout reports true, satisfying the net.Error convention.
func (e *TimeoutError) Timeout() bool { return true }

// Transport is the host-execution contract the structures and the batch
// engine run on: execute a closure on a host (synchronously or
// send-and-continue), fan a batch out over the per-host workers, and
// manage host lifecycle (spawn on join, drain on leave, drop on crash,
// drain-and-stop on shutdown). It is exactly the surface of Cluster, the
// in-process implementation; internal/wire provides a second
// implementation whose dispatch rides length-prefixed TCP frames. The
// semantic contract both implementations satisfy (and the conformance
// suite in internal/wire pins):
//
//   - Do(h, fn) runs fn on host h's worker and returns when it is done;
//     tasks from one sender to one host run in FIFO order, and a Do
//     issued from host h's own worker runs inline (same-host re-entry
//     never deadlocks).
//   - Do on a crashed host — or with the task still queued when the
//     host crashes — fails fast with a HostDownError; Do on a
//     cooperatively departed or stopped host panics (programming error).
//   - Go(h, fn) enqueues fn and returns immediately; Go to a departed,
//     crashed, or stopped host panics.
//   - SetDoTimeout bounds every subsequent Do rendezvous: a wedged host
//     yields a TimeoutError instead of blocking forever. A task whose Do
//     timed out before it started never runs; one already executing when
//     the deadline passes is not interrupted and completes unobserved,
//     after Do has returned. A caller therefore gives fn result slots of
//     its own and copies them out only when Do returns nil (the batch
//     engine allocates one set per batch), so a late task never writes
//     results the caller has already handed on.
//   - RemoveHost drains already-enqueued tasks before the worker exits;
//     Crash discards them; Stop drains every host then waits.
//   - Restart revives a previously crashed host: a fresh worker (fresh
//     mailbox, fresh process) starts at the same slot, and subsequent
//     Do/Go calls to it succeed again. Restart of a host that was not
//     crashed panics (programming error); the crashed host's discarded
//     queue stays discarded.
type Transport interface {
	Do(h HostID, fn func()) error
	Go(h HostID, fn func())
	RunBatch(n int, origin func(i int) HostID, run func(i int))
	AddHost(h HostID)
	RemoveHost(h HostID)
	Crash(h HostID)
	Restart(h HostID)
	SetDoTimeout(d time.Duration)
	Stop()
	Stopped() bool
	// WorkersStarted reports how many per-host workers the transport has
	// actually launched. The in-process cluster starts workers lazily on
	// first dispatch, so the count is bounded by the hosts batch work has
	// touched; the wire transport spawns eagerly (a socket per host) and
	// reports its live node count.
	WorkersStarted() int
}

// counter is a cache-line-padded atomic counter. Per-host counters are
// bumped from many worker goroutines during batch execution; without
// padding, eight adjacent hosts share one cache line and concurrent
// queries false-share even when they touch entirely different hosts.
type counter struct {
	n atomic.Int64
	_ [56]byte
}

// Network models a failure-free peer-to-peer network in which any host can
// send a message to any other host. It records, per host: messages
// received, storage units held, and query touches (the congestion measure).
// All counters are atomic — and sharded per host with no global hot spot —
// so a Cluster may run many operations against a shared Network in
// parallel without the accounting itself becoming the bottleneck. Totals
// are summed over hosts on read.
//
// Hosts may join and leave after construction (AddHost, RemoveHost).
// Host IDs are never reused: a departed host keeps its counter slot — so
// traffic it received stays in the totals and an in-flight Op parked
// there can still account its remaining hops — but it is excluded from
// the live set that placement and origin selection draw from. Churn calls
// are NOT safe concurrently with in-flight operations; callers serialize
// them behind their own write lock (the public wrapper does).
type Network struct {
	hosts    int
	alive    []bool    // alive[i]: host i has joined and not left
	crashed  []bool    // crashed[i]: host i departed uncleanly (data lost)
	live     []HostID  // live host ids, ascending
	messages []counter // messages delivered to host i
	storage  []counter // storage units (items, nodes, links, pointers) at host i
	touches  []counter // operations that touched host i (congestion)
	ops      []counter // operations started at host i-1 (slot 0: started at None)

	// deliver, when set, is invoked once per charged message with the
	// destination host — the tap a wire transport uses to emit one real
	// frame per message the cost model charges, making on-the-wire
	// accounting bit-identical to the simulator's by construction. Set
	// it before any traffic flows; it is not synchronized against
	// in-flight operations.
	deliver func(HostID)

	// durable, when non-nil, models per-host write-ahead logging: every
	// storage-charging mutation appends one WAL record (a charged fsync
	// message to the owning host) and is mirrored into a durable image
	// that survives Crash, so the host can Restart with its shard intact.
	// Nil keeps the pre-durability behavior bit-identical.
	durable *durability

	// cost, when non-nil, is the per-link latency model: every charged
	// message additionally accumulates cost.Link(from, to) onto its
	// operation's critical path (max over mirrors inside a replication
	// fan-out). Nil is the default zero-latency model and keeps the
	// accounting hot path bit-identical to the pre-CostModel code — no
	// Link calls, no histogram writes. Install before any traffic flows
	// (read without synchronization on the hot path, like deliver).
	cost CostModel

	// latHist is the log-bucketed histogram of completed operations'
	// critical-path latencies (recorded at Op.Free, only under a non-nil
	// cost model). One fixed array of atomics: quantile reads allocate
	// nothing and Free never contends on a lock.
	latHist []atomic.Int64
	latOps  atomic.Int64
	latSum  atomic.Int64
	latMax  atomic.Int64

	// quantMu guards quantScratch, the reusable sort buffer behind
	// StorageQuantiles — at 10k hosts a fresh []int64 per call is pure
	// GC pressure for the scale bench, which polls quantiles per cell.
	quantMu      sync.Mutex
	quantScratch []int64
}

// durability is the per-host durable-storage model: a write-ahead log
// plus periodic checkpoints, both accounted as messages to the owning
// host (a WAL append is one fsync; a checkpoint is one more). Storage-
// charging paths mutate the per-host state through atomics: write
// striping lets several stripe writers charge storage at the same host
// concurrently, and two stripes' data routinely co-reside on one host.
// Slice growth (AddHost) and whole-state rewrites (Restart,
// ResumeDurability) still run only under the callers' churn lock, so
// only the per-element counters need to be atomic.
type durability struct {
	// every is the checkpoint cadence: after this many WAL records the
	// host snapshots its inventory and truncates the log.
	every int
	// paused suppresses WAL records and fsync charges while a structure
	// is bulk-constructed; the image still tracks storage exactly, and
	// ResumeDurability folds the built state into a fresh checkpoint.
	paused atomic.Bool
	// image[h] is host h's durable storage in units — what its disk
	// holds. It tracks the storage counter exactly while the host is
	// alive and keeps absorbing deltas while it is crashed (writes the
	// engines logically apply to the host's shard land on the image
	// only), so Restart can restore storage[h] = image[h] verbatim.
	// Accessed atomically.
	image []int64
	// records[h] counts WAL records appended since h's last checkpoint —
	// the replay length a Restart pays for. Accessed atomically.
	records []int64
	// checkpoints[h] counts checkpoints taken at h (diagnostics).
	// Accessed atomically.
	checkpoints []int64
}

// NewNetwork creates a network of h hosts. It panics if h <= 0, since a
// network without hosts cannot hold a structure.
func NewNetwork(h int) *Network {
	if h <= 0 {
		panic(fmt.Sprintf("sim: NewNetwork with non-positive host count %d", h))
	}
	n := &Network{
		hosts:    h,
		alive:    make([]bool, h),
		crashed:  make([]bool, h),
		live:     make([]HostID, h),
		messages: make([]counter, h),
		storage:  make([]counter, h),
		touches:  make([]counter, h),
		ops:      make([]counter, h+1),
	}
	for i := range n.alive {
		n.alive[i] = true
		n.live[i] = HostID(i)
	}
	return n
}

// Hosts returns the number of host slots ever created (live plus
// departed). Valid HostIDs are 0..Hosts()-1; use Alive to distinguish.
func (n *Network) Hosts() int { return n.hosts }

// LiveHosts returns the number of currently live hosts.
func (n *Network) LiveHosts() int { return len(n.live) }

// Alive reports whether host h has joined and not departed.
func (n *Network) Alive(h HostID) bool {
	return h >= 0 && int(h) < n.hosts && n.alive[h]
}

// LiveAt returns the i-th live host in ascending HostID order. Before any
// churn, LiveAt(i) == HostID(i), so modulo-style placement over
// LiveHosts() is backward compatible with a static network.
func (n *Network) LiveAt(i int) HostID { return n.live[i] }

// NextLive returns the first live host with id greater than h, wrapping
// to the smallest live id — the cyclic successor used for round-robin
// placement across churn.
func (n *Network) NextLive(h HostID) HostID {
	i := sort.Search(len(n.live), func(i int) bool { return n.live[i] > h })
	if i == len(n.live) {
		i = 0
	}
	return n.live[i]
}

// AddHost adds a fresh host to the network and returns its id. The new
// host starts with zero storage, traffic, and congestion; ids are never
// reused, so the id is always Hosts()-1 after the call. AddHost must not
// run concurrently with in-flight operations (see the Network doc).
func (n *Network) AddHost() HostID {
	h := HostID(n.hosts)
	n.hosts++
	n.alive = append(n.alive, true)
	n.crashed = append(n.crashed, false)
	n.live = append(n.live, h) // ids grow monotonically: ascending order kept
	n.messages = append(n.messages, counter{})
	n.storage = append(n.storage, counter{})
	n.touches = append(n.touches, counter{})
	n.ops = append(n.ops, counter{})
	if d := n.durable; d != nil {
		d.image = append(d.image, 0)
		d.records = append(d.records, 0)
		d.checkpoints = append(d.checkpoints, 1) // an empty host checkpoints trivially
	}
	return h
}

// RemoveHost marks host h as departed, excluding it from the live set.
// Its counter slot is retained: historical traffic stays in the totals
// and in-flight accounting against it remains valid. The caller is
// responsible for migrating the host's storage first (the structures'
// Rehome methods); RemoveHost panics when h is not live or is the last
// live host, and must not run concurrently with in-flight operations.
func (n *Network) RemoveHost(h HostID) {
	if !n.Alive(h) {
		panic(fmt.Sprintf("sim: RemoveHost(%d): not a live host", h))
	}
	if len(n.live) == 1 {
		panic("sim: RemoveHost would remove the last live host")
	}
	n.alive[h] = false
	i := sort.Search(len(n.live), func(i int) bool { return n.live[i] >= h })
	n.live = append(n.live[:i], n.live[i+1:]...)
}

// Crashed reports whether host h departed uncleanly via Crash.
func (n *Network) Crashed(h HostID) bool {
	return h >= 0 && int(h) < n.hosts && n.crashed[h]
}

// Crash marks host h as failed: an unclean departure. Unlike RemoveHost
// (cooperative leave, data migrated first), the host's in-memory data
// dies with it — its storage counter is zeroed, modelling the loss — and
// it is recorded in the crashed set that routing consults for failover.
// On a durable network the host's durable image survives the crash (a
// process dies, its disk does not) and Restart restores it. Message and
// congestion history is retained like any departed slot. Crash panics
// when h is not live or is the last live host, and must not run
// concurrently with in-flight operations (callers serialize churn, as
// with RemoveHost).
func (n *Network) Crash(h HostID) {
	if !n.Alive(h) {
		panic(fmt.Sprintf("sim: Crash(%d): not a live host", h))
	}
	if len(n.live) == 1 {
		panic("sim: Crash would kill the last live host")
	}
	n.alive[h] = false
	n.crashed[h] = true
	i := sort.Search(len(n.live), func(i int) bool { return n.live[i] >= h })
	n.live = append(n.live[:i], n.live[i+1:]...)
	n.storage[h].n.Store(0) // the host's share of every structure is gone
}

// AddStorage records delta storage units at host h. Structures call this
// when placing or removing nodes, links, and hyperlink pointers. On a
// durable network each call additionally appends one WAL record at h —
// a charged fsync message — and, every checkpoint-cadence records, one
// checkpoint write; while h is crashed the delta lands on its durable
// image only (the engines keep the host's logical shard moving with the
// cluster; the disk catches up, the live copy is restored by Restart).
//
// AddStorage is safe for concurrent callers (stripe writers on different
// key ranges may charge the same host simultaneously). The checkpoint
// trigger fires for exactly the caller whose WAL append brings the
// since-last-checkpoint count to the cadence — each atomic increment
// returns a distinct value, so exactly one writer per cadence window
// observes the boundary — which keeps the total charge sequence
// identical to a serial execution of the same appends.
func (n *Network) AddStorage(h HostID, delta int) {
	if d := n.durable; d != nil {
		atomic.AddInt64(&d.image[h], int64(delta))
		if n.crashed[h] {
			return // the live copy is down: the write exists only durably
		}
		if !d.paused.Load() {
			n.chargeLocal(h) // WAL append + fsync
			if r := atomic.AddInt64(&d.records[h], 1); r == int64(d.every) {
				atomic.AddInt64(&d.records[h], -int64(d.every))
				atomic.AddInt64(&d.checkpoints[h], 1)
				n.chargeLocal(h) // checkpoint snapshot + log truncation
			}
		}
	}
	n.storage[h].n.Add(int64(delta))
}

// Storage returns the storage units currently recorded at host h.
func (n *Network) Storage(h HostID) int64 { return n.storage[h].n.Load() }

// chargeLocal charges one message to host h outside any Op — host-local
// durability I/O (WAL fsyncs, checkpoint writes, replay reads) that the
// cost model bills like any other message but that belongs to no
// operation's hop count. The delivery tap fires as usual, so a wire
// transport emits a real frame for it.
func (n *Network) chargeLocal(h HostID) {
	n.messages[h].n.Add(1)
	if n.deliver != nil {
		n.deliver(h)
	}
}

// DefaultCheckpointEvery is the checkpoint cadence EnableDurability
// applies when the caller passes a non-positive value: one checkpoint
// per 64 WAL records keeps replay short without checkpointing so often
// the snapshot cost dominates the log it truncates.
const DefaultCheckpointEvery = 64

// EnableDurability turns on the per-host write-ahead-log model: from now
// on every AddStorage appends a charged WAL record at the owning host,
// checkpoints fire every `every` records (<= 0 selects
// DefaultCheckpointEvery), crashed hosts keep their durable image, and
// Restart revives them from it. The current storage of every host is
// snapshotted as its base checkpoint, so enabling is free and idempotent
// — a second call is a no-op, preserving the first cadence.
func (n *Network) EnableDurability(every int) {
	if n.durable != nil {
		return
	}
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	d := &durability{
		every:       every,
		image:       make([]int64, n.hosts),
		records:     make([]int64, n.hosts),
		checkpoints: make([]int64, n.hosts),
	}
	for i := 0; i < n.hosts; i++ {
		d.image[i] = n.storage[i].n.Load()
		d.checkpoints[i] = 1 // the base image is checkpoint zero's snapshot
	}
	n.durable = d
}

// Durable reports whether the per-host WAL model is enabled.
func (n *Network) Durable() bool { return n.durable != nil }

// PauseDurability suspends WAL-record accounting (no records, no fsync
// charges) while a structure is bulk-constructed; the durable image
// still tracks storage exactly. No-op on a non-durable network. Pair
// with ResumeDurability.
func (n *Network) PauseDurability() {
	if n.durable != nil {
		n.durable.paused.Store(true)
	}
}

// ResumeDurability ends a PauseDurability window. Hosts that logged WAL
// records before the pause fold them into a fresh checkpoint: the bulk-
// built state is snapshotted wholesale (part of construction, which
// charges through its own accounting), so replay after a later crash
// starts from the built image rather than re-walking pre-build records.
func (n *Network) ResumeDurability() {
	d := n.durable
	if d == nil {
		return
	}
	d.paused.Store(false)
	for i := range d.records {
		if atomic.LoadInt64(&d.records[i]) != 0 {
			atomic.StoreInt64(&d.records[i], 0)
			atomic.AddInt64(&d.checkpoints[i], 1)
		}
	}
}

// WALRecords returns the WAL records host h has appended since its last
// checkpoint — the replay length a Restart would pay. Zero on a
// non-durable network.
func (n *Network) WALRecords(h HostID) int64 {
	if n.durable == nil {
		return 0
	}
	return atomic.LoadInt64(&n.durable.records[h])
}

// Checkpoints returns the checkpoints taken at host h (the base image
// counts as one). Zero on a non-durable network.
func (n *Network) Checkpoints(h HostID) int64 {
	if n.durable == nil {
		return 0
	}
	return atomic.LoadInt64(&n.durable.checkpoints[h])
}

// DurableImage returns host h's durable storage image in units — what
// its disk holds, including deltas applied while it was crashed. Zero on
// a non-durable network.
func (n *Network) DurableImage(h HostID) int64 {
	if n.durable == nil {
		return 0
	}
	return atomic.LoadInt64(&n.durable.image[h])
}

// Restart revives crashed durable host h: it rejoins the live set with
// its storage restored to the durable image, paying one charged message
// for the checkpoint load plus one per WAL record replayed since that
// checkpoint. The recovered state is immediately re-checkpointed (log
// truncation is part of recovery), so a second crash right after replays
// nothing. Returns the replay message count. Restart panics on a
// non-durable network or a host that has not crashed, and must not run
// concurrently with in-flight operations (callers serialize churn).
func (n *Network) Restart(h HostID) int {
	d := n.durable
	if d == nil {
		panic(fmt.Sprintf("sim: Restart(%d) on a non-durable network", h))
	}
	if !n.Crashed(h) {
		panic(fmt.Sprintf("sim: Restart(%d): host has not crashed", h))
	}
	n.crashed[h] = false
	n.alive[h] = true
	i := sort.Search(len(n.live), func(i int) bool { return n.live[i] >= h })
	n.live = append(n.live, 0)
	copy(n.live[i+1:], n.live[i:])
	n.live[i] = h
	n.storage[h].n.Store(atomic.LoadInt64(&d.image[h]))
	replay := 1 + int(atomic.LoadInt64(&d.records[h]))
	for k := 0; k < replay; k++ {
		n.chargeLocal(h)
	}
	atomic.StoreInt64(&d.records[h], 0)
	atomic.AddInt64(&d.checkpoints[h], 1)
	return replay
}

// SetDeliver installs fn as the message-delivery tap: it is called once
// per charged message with the destination host, synchronously, from the
// goroutine running the operation. The serve daemon uses it to tally an
// operation's charges per destination host, which it then delivers to the
// destinations' processes as counted frames. Install before any traffic
// flows (the field is read without synchronization on the hot path); pass
// nil to uninstall.
func (n *Network) SetDeliver(fn func(HostID)) { n.deliver = fn }

// SetCostModel installs m as the per-link latency model: every message
// charged from now on accumulates m.Link(from, to) onto its operation's
// critical-path latency, and completed operations' latencies feed the
// Snapshot quantiles. The hop and message counters are unaffected — the
// model adds a measure, it never changes one. Install before any traffic
// flows (the field is read without synchronization on the hot path);
// pass nil to restore the default zero-latency accounting. Idempotent
// under the same model; installing a different model mid-run mixes
// regimes in the histogram, so don't.
func (n *Network) SetCostModel(m CostModel) {
	n.cost = m
	if m != nil && n.latHist == nil {
		n.latHist = make([]atomic.Int64, latBuckets)
	}
}

// CostModel returns the installed latency model, or nil for the default
// zero-latency accounting.
func (n *Network) CostModel() CostModel { return n.cost }

// recordLatency folds one completed operation's critical-path latency
// into the histogram.
func (n *Network) recordLatency(lat int64) {
	n.latHist[latBucket(lat)].Add(1)
	n.latOps.Add(1)
	n.latSum.Add(lat)
	for {
		cur := n.latMax.Load()
		if lat <= cur || n.latMax.CompareAndSwap(cur, lat) {
			return
		}
	}
}

// LatencyQuantiles returns the q-quantiles (e.g. 0.5, 0.99) of completed
// operations' critical-path latencies under the installed cost model, in
// model units, within 12.5% of exact (the histogram is log-bucketed).
// All zeros when no model is installed or no operation has completed.
func (n *Network) LatencyQuantiles(qs ...float64) []int64 {
	out := make([]int64, len(qs))
	total := n.latOps.Load()
	if n.latHist == nil || total == 0 {
		return out
	}
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		rank := int64(math.Ceil(q * float64(total)))
		if rank < 1 {
			rank = 1
		}
		var seen int64
		for b := range n.latHist {
			seen += n.latHist[b].Load()
			if seen >= rank {
				out[i] = latBucketValue(b)
				break
			}
		}
	}
	return out
}

// Messages returns the messages delivered to host h since creation.
func (n *Network) Messages(h HostID) int64 { return n.messages[h].n.Load() }

// PerHostMessages returns the per-host delivered-message counters as a
// slice indexed by HostID — the vector the sim-vs-wire parity check
// diffs bit-for-bit.
func (n *Network) PerHostMessages() []int64 {
	return n.PerHostMessagesInto(nil)
}

// PerHostMessagesInto is PerHostMessages with a caller-provided buffer:
// buf is resized (reallocating only when its capacity is short) and
// returned, so a poller at 10k hosts reuses one slice instead of
// allocating per sample.
func (n *Network) PerHostMessagesInto(buf []int64) []int64 {
	if cap(buf) < n.hosts {
		buf = make([]int64, n.hosts)
	}
	buf = buf[:n.hosts]
	for i := range buf {
		buf[i] = n.messages[i].n.Load()
	}
	return buf
}

// TotalMessages returns the number of messages delivered since creation.
func (n *Network) TotalMessages() int64 {
	var sum int64
	for i := range n.messages {
		sum += n.messages[i].n.Load()
	}
	return sum
}

// TotalOps returns the number of operations started since creation.
func (n *Network) TotalOps() int64 {
	var sum int64
	for i := range n.ops {
		sum += n.ops[i].n.Load()
	}
	return sum
}

// Op is the accounting context for a single logical operation (one query or
// one update). An operation has a current host; moving to a different host
// costs one message. Op is not safe for concurrent use; each in-flight
// operation owns its Op.
//
// Alongside the hop count, an Op accumulates critical-path latency under
// the network's CostModel: sequential Visit/Send charges add the sampled
// link cost, and charges inside a FanoutBegin/FanoutEnd window (a
// replicated write-through, where the mirrors are contacted in parallel)
// contribute only the maximum link cost of the window. With no model
// installed the latency stays zero and costs nothing to not-compute.
type Op struct {
	net  *Network
	cur  HostID
	hops int
	// lat is the critical-path latency accumulated so far (model units).
	lat int64
	// fanDepth > 0 means charges are inside a replication fan-out and
	// fold into fanMax instead of adding to lat; nested windows merge
	// into the outermost (one parallel wave).
	fanDepth int
	fanMax   int64
}

// opPool recycles Ops so the query and update hot paths allocate nothing
// per operation. Ops returned via Free are reused by any Network; Ops that
// are never freed are simply collected, so callers outside the hot paths
// need not change.
var opPool = sync.Pool{New: func() any { return new(Op) }}

// NewOp starts an operation at host start (use None when the operation has
// not yet chosen an entry host; the first Visit is then free, modelling the
// originating host beginning at its own root). The Op comes from a pool;
// call Free when the operation completes to recycle it.
func (n *Network) NewOp(start HostID) *Op {
	n.ops[int(start)+1].n.Add(1)
	op := opPool.Get().(*Op)
	op.net, op.cur, op.hops = n, start, 0
	op.lat, op.fanDepth, op.fanMax = 0, 0, 0
	if start != None {
		n.touches[start].n.Add(1)
	}
	return op
}

// Free returns the Op to the pool. The caller must not use the Op after
// Free; values needed from it (Hops, Current, Latency) must be read
// first. Free is optional — an unfreed Op is garbage-collected like any
// value — but the hot paths free every Op so steady-state operation
// allocates nothing. Under a cost model, Free also records the
// operation's critical-path latency into the network's histogram, so the
// Snapshot quantiles cover every completed operation (queries, updates,
// and churn alike).
func (o *Op) Free() {
	if o.net.cost != nil {
		o.net.recordLatency(o.lat)
	}
	o.net = nil
	opPool.Put(o)
}

// Visit moves the operation to host h. If h differs from the current host,
// one message is charged and congestion at h is bumped. The very first
// placement of an operation that started at None is free: it models the
// originating host beginning the search at its own root.
func (o *Op) Visit(h HostID) {
	if h == None || h == o.cur {
		return
	}
	if o.cur == None {
		o.cur = h
		o.net.touches[h].n.Add(1)
		return
	}
	o.charge(h)
	o.cur = h
}

func (o *Op) charge(h HostID) {
	o.hops++
	o.net.messages[h].n.Add(1)
	o.net.touches[h].n.Add(1)
	if m := o.net.cost; m != nil {
		// o.cur is still the sending host here: Visit updates cur only
		// after charging, and Send never moves the op at all.
		c := m.Link(o.cur, h)
		if o.fanDepth > 0 {
			if c > o.fanMax {
				o.fanMax = c
			}
		} else {
			o.lat += c
		}
	}
	if o.net.deliver != nil {
		o.net.deliver(h)
	}
}

// Send charges one explicit message to host h without moving the operation
// there. It models auxiliary round trips (e.g. a remote host returning
// hyperlinks rather than forwarding the query).
func (o *Op) Send(h HostID) {
	o.charge(h)
}

// FanoutBegin opens a replication fan-out window: until the matching
// FanoutEnd, charged messages contribute only the maximum sampled link
// cost to the operation's latency — the mirrors of a write-through are
// contacted in parallel, so the critical path pays for the slowest one,
// not the sum. Hop and message counters are unaffected (every send is
// still charged in full). Windows may nest; nested windows merge into
// the outermost, modeling one parallel wave.
func (o *Op) FanoutBegin() { o.fanDepth++ }

// FanoutEnd closes the window opened by the matching FanoutBegin, adding
// the window's maximum link cost to the critical path.
func (o *Op) FanoutEnd() {
	o.fanDepth--
	if o.fanDepth == 0 {
		o.lat += o.fanMax
		o.fanMax = 0
	}
}

// Hops returns the number of messages this operation has cost so far.
func (o *Op) Hops() int { return o.hops }

// Latency returns the critical-path latency this operation has
// accumulated under the network's CostModel, in model units. Zero when
// no model is installed.
func (o *Op) Latency() int64 { return o.lat }

// Current returns the host the operation is currently executing at.
func (o *Op) Current() HostID { return o.cur }

// Stats is a cross-host summary of a Network's counters. Hosts, maxima,
// and means cover the live hosts; the totals additionally include traffic
// that was delivered to hosts that have since departed.
type Stats struct {
	Hosts          int
	TotalMessages  int64
	TotalOps       int64
	MaxStorage     int64
	MeanStorage    float64
	MaxCongestion  int64
	MeanCongestion float64
	MaxMessages    int64
	MeanMessages   float64

	// Latency summary of completed operations under the installed
	// CostModel, in model units. All zeros when no model is installed
	// (the default zero-latency accounting). Quantiles are log-bucketed:
	// within 12.5% of exact. LatencyOps counts the operations recorded —
	// every Op freed since creation (or the last ResetTraffic), churn
	// included.
	LatencyOps  int64
	LatencyMean float64
	LatencyP50  int64
	LatencyP99  int64
	LatencyMax  int64
}

// Snapshot summarizes the per-host counters.
func (n *Network) Snapshot() Stats {
	s := Stats{
		Hosts:    len(n.live),
		TotalOps: n.TotalOps(),
	}
	var sumSt, sumTo, sumMs int64 // live hosts only: the load profile
	var allMs int64               // every slot: the traffic total
	for i := 0; i < n.hosts; i++ {
		ms := n.messages[i].n.Load()
		allMs += ms
		if !n.alive[i] {
			continue // departed hosts keep history but drop out of the load profile
		}
		st := n.storage[i].n.Load()
		to := n.touches[i].n.Load()
		sumSt += st
		sumTo += to
		sumMs += ms
		if st > s.MaxStorage {
			s.MaxStorage = st
		}
		if to > s.MaxCongestion {
			s.MaxCongestion = to
		}
		if ms > s.MaxMessages {
			s.MaxMessages = ms
		}
	}
	h := float64(len(n.live))
	s.TotalMessages = allMs
	s.MeanStorage = float64(sumSt) / h
	s.MeanCongestion = float64(sumTo) / h
	s.MeanMessages = float64(sumMs) / h
	if ops := n.latOps.Load(); ops > 0 {
		s.LatencyOps = ops
		s.LatencyMean = float64(n.latSum.Load()) / float64(ops)
		q := n.LatencyQuantiles(0.5, 0.99)
		s.LatencyP50, s.LatencyP99 = q[0], q[1]
		s.LatencyMax = n.latMax.Load()
	}
	return s
}

// StorageQuantiles returns the q-quantiles (e.g. 0.5, 0.99, 1.0) of the
// per-live-host storage distribution, in the order requested. The sort
// scratch is reused across calls (only the len(qs)-sized answer is
// allocated), so polling quantiles at 10k hosts does not shed a fresh
// 80KB slice per call; concurrent callers serialize on the scratch.
func (n *Network) StorageQuantiles(qs ...float64) []int64 {
	n.quantMu.Lock()
	vals := n.quantScratch[:0]
	for _, h := range n.live {
		vals = append(vals, n.storage[h].n.Load())
	}
	n.quantScratch = vals
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	out := make([]int64, len(qs))
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		idx := int(math.Ceil(q*float64(len(vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		out[i] = vals[idx]
	}
	n.quantMu.Unlock()
	return out
}

// ResetTraffic zeroes the message and congestion counters — and the
// latency histogram, when a cost model is installed — while preserving
// storage, so an experiment can measure query traffic separately from
// construction traffic.
func (n *Network) ResetTraffic() {
	for i := 0; i < n.hosts; i++ {
		n.messages[i].n.Store(0)
		n.touches[i].n.Store(0)
	}
	for i := range n.ops {
		n.ops[i].n.Store(0)
	}
	for i := range n.latHist {
		n.latHist[i].Store(0)
	}
	n.latOps.Store(0)
	n.latSum.Store(0)
	n.latMax.Store(0)
}

// Cluster executes work on per-host goroutines. Each host runs a single
// worker goroutine draining an unbounded mailbox; Do(h, fn) runs fn on
// host h's goroutine and waits for it, so all state owned by a host is
// accessed by one task at a time — the actor discipline of a
// message-passing node. RunAs(h, fn) keeps that discipline without the
// hand-off when h is idle: it claims h and runs fn on the caller's
// goroutine. Go(h, fn) is the asynchronous variant: it enqueues fn and
// returns immediately (send-and-continue message passing), which is what
// the batch query engine uses to keep every host busy.
type Cluster struct {
	net     *Network
	mailMu  sync.RWMutex // guards the mail slice header across host churn
	mail    []*mailbox
	wg      sync.WaitGroup
	stopped atomic.Bool
	// doTimeout bounds every Do rendezvous (nanoseconds; 0 = wait
	// forever). See SetDoTimeout.
	doTimeout atomic.Int64
}

type task struct {
	fn   func()
	done chan error // nil for asynchronous (send-and-continue) tasks; buffered(1)
	// cancelled, allocated only for a Do with a deadline, is set by the
	// caller when the deadline passes and read by the worker at dequeue:
	// a task whose Do gave up before it started never runs.
	cancelled *atomic.Bool
}

// donePool recycles Do's rendezvous channels. A channel goes back only
// after its one completion was received; a timed-out Do leaves its
// channel to the worker that may still send on it.
var donePool = sync.Pool{New: func() any { return make(chan error, 1) }}

// mailbox is an unbounded FIFO task queue with a single consumer, and
// its host's lock (busy). An unbounded queue models a node's inbound
// message buffer: senders never block, exactly as a send-and-continue
// message leaves the sender free.
type mailbox struct {
	mu      sync.Mutex
	queue   []task        // pending tasks are queue[head:]
	head    int           // reset with the queue when it drains, so the backing array is reused
	wake    chan struct{} // buffered(1): signals the worker that work exists
	closed  bool
	dropped bool // closed by a crash: queued work was discarded, not drained
	// started flips true when the worker goroutine is launched. Workers
	// are lazy: a 10k-host cluster whose batch only ever touches a few
	// hundred origin hosts runs a few hundred goroutines, not 10k idle
	// ones. Checked lock-free on the send fast path.
	started atomic.Bool
	// busy is raised while some goroutine executes as this host: the
	// worker around each task, or a RunAs caller around its inline fn.
	// It is the host's lock, claimed only under mu (see claim and take)
	// and released by its holder. gid is the worker's goroutine id,
	// written once before the first task; a RunAs caller records none. A
	// caller is this host's worker iff the host is busy and the ids
	// match, so an idle target settles it without the stack parse goid
	// costs. gid is atomic because busy no longer orders it: a RunAs
	// caller can raise busy while a lazily started worker writes gid.
	busy atomic.Bool
	gid  atomic.Uint64
}

// onWorker reports whether the calling goroutine is this mailbox's worker.
func (m *mailbox) onWorker() bool { return m.busy.Load() && m.gid.Load() == goid() }

// claim raises busy for an inline RunAs when the host is idle: open, no
// task executing and none queued. The queue check keeps per-sender FIFO:
// a task sent earlier and not yet popped runs first.
func (m *mailbox) claim() bool {
	m.mu.Lock()
	ok := !m.closed && !m.busy.Load() && m.head == len(m.queue)
	if ok {
		m.busy.Store(true)
	}
	m.mu.Unlock()
	return ok
}

// release ends an inline claim, waking the worker when tasks queued
// behind it (take parks while another goroutine holds the host).
func (m *mailbox) release() {
	m.mu.Lock()
	m.busy.Store(false)
	pending := m.head < len(m.queue)
	m.mu.Unlock()
	if pending {
		select {
		case m.wake <- struct{}{}:
		default:
		}
	}
}

// put enqueues t, reporting false when the mailbox is closed.
func (m *mailbox) put(t task) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	if m.head > 0 && len(m.queue) == cap(m.queue) && m.head >= len(m.queue)/2 {
		// A queue that never quite drains would otherwise grow without
		// bound: slide the pending half down instead of reallocating.
		n := copy(m.queue, m.queue[m.head:])
		clear(m.queue[n:])
		m.queue, m.head = m.queue[:n], 0
	}
	m.queue = append(m.queue, t)
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return true
}

// take pops the next task and claims the host for it in the same step,
// blocking until a task is queued and no RunAs caller holds the host. A
// task whose Do timed out while it queued is discarded here, unclaimed.
// The caller runs the task and then lowers busy. take returns ok=false
// once the mailbox is closed and fully drained.
func (m *mailbox) take() (task, bool) {
	for {
		m.mu.Lock()
		for m.head < len(m.queue) && !m.busy.Load() {
			t := m.queue[m.head]
			m.queue[m.head] = task{}
			if m.head++; m.head == len(m.queue) {
				m.queue, m.head = m.queue[:0], 0
			}
			if t.cancelled != nil && t.cancelled.Load() {
				continue // its Do timed out while it queued
			}
			m.busy.Store(true)
			m.mu.Unlock()
			return t, true
		}
		drained := m.closed && m.head == len(m.queue)
		m.mu.Unlock()
		if drained {
			return task{}, false
		}
		<-m.wake
	}
}

// close marks the mailbox closed and wakes the worker; queued tasks still
// drain before the worker exits.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// drop closes the mailbox the unclean way: queued tasks are discarded —
// a crashed node never processes its inbound buffer — and every pending
// synchronous rendezvous is failed with err so blocked Do callers fail
// fast instead of hanging on a dead host.
func (m *mailbox) drop(err error) {
	m.mu.Lock()
	q := m.queue[m.head:]
	m.queue, m.head = nil, 0
	m.closed, m.dropped = true, true
	m.mu.Unlock()
	for _, t := range q {
		if t.done != nil {
			t.done <- err
		}
	}
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// isDropped reports whether the mailbox was closed by a crash.
func (m *mailbox) isDropped() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

// Goid returns the current goroutine's id, parsed from the runtime stack
// header ("goroutine N [...]"). A transport's worker records it once at
// start, and Do compares against it — only when the target host is
// mid-task — to run same-host re-entry inline instead of deadlocking on
// a message to itself.
func Goid() uint64 { return goid() }

// goid is Goid. The parse costs microseconds and its traceback takes a
// runtime-global lock, so it stays off every path an idle target can
// settle (see mailbox.onWorker).
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, ch := range buf[len("goroutine "):n] {
		if ch < '0' || ch > '9' {
			break
		}
		id = id*10 + uint64(ch-'0')
	}
	return id
}

// Cluster is the in-process Transport implementation.
var _ Transport = (*Cluster)(nil)

// NewCluster creates a cluster over net's hosts. Worker goroutines are
// lazy: each host slot gets a mailbox up front, but its worker starts on
// the first task sent to it, so a 10k-host cluster costs 10k mailbox
// structs — not 10k goroutines — until traffic actually reaches a host.
// Call Stop when done; the Cluster owns one goroutine per host that ever
// received work until then.
func NewCluster(net *Network) *Cluster {
	c := &Cluster{
		net:  net,
		mail: make([]*mailbox, 0, net.Hosts()),
	}
	for i := 0; i < net.Hosts(); i++ {
		c.spawn(HostID(i))
		// A slot that departed before the pool started gets its mailbox
		// closed immediately, so sends to it fail exactly as they would
		// had the pool been running at departure time: dropped (typed
		// error) for crashed slots, closed (panic) for cooperative leaves.
		if !net.Alive(HostID(i)) {
			if net.Crashed(HostID(i)) {
				c.mail[i].drop(&HostDownError{Host: HostID(i)})
			} else {
				c.mail[i].close()
			}
		}
	}
	return c
}

// spawn appends a mailbox for host h; the worker goroutine starts lazily
// on first send. The caller must hold mailMu (or be the only goroutine
// with access, as in NewCluster).
func (c *Cluster) spawn(h HostID) {
	m := &mailbox{wake: make(chan struct{}, 1)}
	c.mail = append(c.mail, m)
}

// start runs a worker goroutine draining m as its host's actor. The caller
// must hold mailMu (read or write): Stop takes the write lock before
// snapshotting the mailboxes, so every worker started here is wg.Added
// before Stop can Wait.
func (c *Cluster) start(m *mailbox) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		m.gid.Store(goid())
		for {
			t, ok := m.take()
			if !ok {
				return
			}
			t.fn()
			m.busy.Store(false)
			if t.done != nil {
				t.done <- nil
			}
		}
	}()
}

// WorkersStarted reports how many worker goroutines have been launched —
// the observable half of the lazy-spawn contract (a fresh 10k-host
// cluster has zero; sending to k distinct hosts starts exactly k).
func (c *Cluster) WorkersStarted() int {
	c.mailMu.RLock()
	defer c.mailMu.RUnlock()
	started := 0
	for _, m := range c.mail {
		if m.started.Load() {
			started++
		}
	}
	return started
}

// AddHost installs mailboxes for every network host slot up to and
// including h — pairing Network.AddHost with the mailbox spin-up of the
// new host's actor (the worker goroutine itself starts lazily, on the
// host's first task). It must not be called after Stop, and like Network
// churn it must be serialized against in-flight batches by the caller.
func (c *Cluster) AddHost(h HostID) {
	if c.stopped.Load() {
		panic("sim: Cluster.AddHost after Stop")
	}
	c.mailMu.Lock()
	defer c.mailMu.Unlock()
	for HostID(len(c.mail)) <= h {
		c.spawn(HostID(len(c.mail)))
	}
}

// RemoveHost drains and closes host h's mailbox: tasks already enqueued
// still run, then the worker goroutine exits. Further sends to h panic,
// matching the network-level rule that departed hosts receive no new
// work. RemoveHost is idempotent and must be serialized against
// in-flight batches by the caller.
func (c *Cluster) RemoveHost(h HostID) {
	c.mailMu.RLock()
	m := c.mail[h]
	c.mailMu.RUnlock()
	m.close()
}

// Crash tears host h's actor down the unclean way: the mailbox is
// dropped — queued send-and-continue tasks are discarded, and every
// pending Do rendezvous fails with a HostDownError — and the worker
// goroutine exits without draining. Further Do calls to h return the
// same typed error. Like RemoveHost, Crash must be serialized against
// in-flight batches by the caller (the public wrapper holds its write
// lock across the crash).
func (c *Cluster) Crash(h HostID) {
	c.mailMu.RLock()
	m := c.mail[h]
	c.mailMu.RUnlock()
	m.drop(&HostDownError{Host: h})
}

// Restart replaces crashed host h's dropped mailbox with a fresh one and
// starts a new worker goroutine for it — the actor-model analogue of a
// process restart. Tasks discarded by the crash stay discarded; Do/Go to
// h succeed again once Restart returns. Restart panics after Stop or
// when h's mailbox was not dropped by a crash, and like all churn it
// must be serialized against in-flight batches by the caller.
func (c *Cluster) Restart(h HostID) {
	if c.stopped.Load() {
		panic("sim: Cluster.Restart after Stop")
	}
	c.mailMu.Lock()
	defer c.mailMu.Unlock()
	if !c.mail[h].isDropped() {
		panic(fmt.Sprintf("sim: Cluster.Restart(%d): host has not crashed", h))
	}
	// The fresh mailbox starts its worker lazily, like any other: the
	// restarted process spins up on its first inbound message.
	c.mail[h] = &mailbox{wake: make(chan struct{}, 1)}
}

// boxStart returns host h's mailbox, lazily launching its worker
// goroutine on the first send. The start happens while still holding the
// churn read lock, so it strictly precedes any Stop (which takes the
// write lock before waiting): a worker is never wg.Added concurrently
// with the final Wait. Closed mailboxes never start a worker — there is
// nothing to drain that put would still accept.
func (c *Cluster) boxStart(h HostID) *mailbox {
	c.mailMu.RLock()
	m := c.mail[h]
	if !m.started.Load() && !c.stopped.Load() {
		m.mu.Lock()
		if !m.started.Load() && !m.closed {
			m.started.Store(true)
			c.start(m)
		}
		m.mu.Unlock()
	}
	c.mailMu.RUnlock()
	return m
}

// Stopped reports whether Stop has been called. Callers that manage
// worker lifecycles across host churn use it to skip mailbox work on a
// stopped cluster instead of panicking.
func (c *Cluster) Stopped() bool { return c.stopped.Load() }

// Do runs fn on host h's goroutine and blocks until it completes,
// returning nil. It must not be called after Stop. When the caller is
// already executing on host h's worker goroutine, fn runs inline — a
// node processing one of its own messages — so same-host re-entry cannot
// deadlock. Cross-host re-entry cycles (host A waiting on B while B
// waits on A) remain the caller's responsibility, as in any synchronous
// message exchange.
//
// When host h has crashed — before the call, or while the task sits in
// h's mailbox — Do fails fast with a HostDownError instead of running
// fn: the in-flight operation's answer died with the host. Sends to
// cooperatively departed or stopped hosts remain panics (a programming
// error, not a failure to tolerate).
func (c *Cluster) Do(h HostID, fn func()) error {
	if c.stopped.Load() {
		panic("sim: Cluster.Do after Stop")
	}
	box := c.boxStart(h)
	if box.onWorker() {
		fn()
		return nil
	}
	d := time.Duration(c.doTimeout.Load())
	t := task{fn: fn, done: donePool.Get().(chan error)}
	if d > 0 {
		t.cancelled = new(atomic.Bool)
	}
	if !box.put(t) {
		donePool.Put(t.done)
		if box.isDropped() {
			return &HostDownError{Host: h}
		}
		panic(fmt.Sprintf("sim: Cluster.Do to stopped or departed host %d", h))
	}
	if d <= 0 {
		err := <-t.done
		donePool.Put(t.done)
		return err
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case err := <-t.done:
		donePool.Put(t.done)
		return err
	case <-timer.C:
		// A task still queued is skipped when the worker dequeues it. One
		// already dequeued is executing (or done) and is left to finish,
		// its completion landing in the buffered channel, which is
		// therefore not recycled.
		t.cancelled.Store(true)
		return &TimeoutError{Host: h, After: d}
	}
}

// RunAs runs fn as host h and blocks until it completes, like Do, but on
// the calling goroutine when it can: when h is idle — no task executing,
// none queued — RunAs claims h under its mailbox lock, runs fn inline and
// releases h, so fn still excludes every other task of h and follows
// every task a sender queued for h earlier. When h is busy, crashed or
// departed, or a SetDoTimeout deadline is set (an inline fn cannot be
// abandoned), RunAs is Do. h's worker starts on the first call either
// way, as it does for Do.
//
// fn must not call Do or RunAs for host h itself: an inline caller has
// no goroutine id on record, so such a re-entry queues behind the claim
// it is running under and deadlocks. Calls to other hosts are fine.
func (c *Cluster) RunAs(h HostID, fn func()) error {
	if c.stopped.Load() {
		panic("sim: Cluster.RunAs after Stop")
	}
	box := c.boxStart(h)
	if c.doTimeout.Load() > 0 || !box.claim() {
		return c.Do(h, fn)
	}
	defer box.release()
	fn()
	return nil
}

// SetDoTimeout bounds every subsequent Do rendezvous to d: a Do whose
// task has not completed within d returns a TimeoutError (matching
// ErrTimeout via errors.Is) instead of blocking forever on a wedged
// host. Zero or negative restores the default of waiting indefinitely.
// A task still queued when its Do times out is cancelled and never runs;
// one already executing is not interrupted — it finishes after the call
// has returned, so only the caller's wait is bounded there, the
// fail-fast a real client needs when a remote host stalls mid-request.
// Such a task must write only slots the caller reads after a successful
// Do (see the Transport contract).
func (c *Cluster) SetDoTimeout(d time.Duration) { c.doTimeout.Store(int64(d)) }

// Go enqueues fn on host h's goroutine and returns immediately without
// waiting for it to run — send-and-continue message passing. Tasks from
// one sender to one host run in FIFO order; completion is the caller's
// concern (pair with a sync.WaitGroup, as RunBatch does). Go must not be
// called after Stop, but tasks already enqueued when Stop is called are
// drained before the workers exit.
func (c *Cluster) Go(h HostID, fn func()) {
	if c.stopped.Load() {
		panic("sim: Cluster.Go after Stop")
	}
	box := c.boxStart(h)
	if !box.put(task{fn: fn}) {
		if box.isDropped() {
			// A send-and-continue task has no rendezvous to fail, so a
			// fire-and-forget send to a crashed host is a caller bug:
			// batch dispatch validates origin liveness under the lock
			// that serializes crashes.
			panic(fmt.Sprintf("sim: Cluster.Go to crashed host %d", h))
		}
		panic(fmt.Sprintf("sim: Cluster.Go to stopped or departed host %d", h))
	}
}

// RunBatch executes n operations concurrently across the cluster: the
// i-th operation runs on host origin(i)'s goroutine, and RunBatch returns
// once every operation has completed. Operations sharing an origin host
// serialize in index order; operations on distinct hosts run in parallel.
//
// Operations are grouped by origin and delivered as one message per host
// rather than one per operation, so the dispatch cost is O(distinct
// origins) and the per-operation overhead is a plain function call on the
// worker — without this, mailbox and scheduler churn swamps the
// microsecond-scale routing work and the batch stops scaling with
// GOMAXPROCS.
func (c *Cluster) RunBatch(n int, origin func(i int) HostID, run func(i int)) {
	// The per-host group table is pooled: at 10k hosts it is a 240KB
	// slice header array, and read batches recreate it per call — without
	// reuse the scale bench spends its time re-zeroing group tables.
	var groups [][]int
	if g, ok := groupPool.Get().(*[][]int); ok && cap(*g) >= c.net.Hosts() {
		groups = (*g)[:c.net.Hosts()]
	} else {
		groups = make([][]int, c.net.Hosts())
	}
	touched := make([]HostID, 0, 64)
	for i := 0; i < n; i++ {
		h := origin(i)
		if len(groups[h]) == 0 {
			touched = append(touched, h)
		}
		groups[h] = append(groups[h], i)
	}
	var wg sync.WaitGroup
	for _, h := range touched {
		idxs := groups[h]
		wg.Add(1)
		c.Go(h, func() {
			defer wg.Done()
			for _, i := range idxs {
				run(i)
			}
		})
	}
	wg.Wait()
	for _, h := range touched {
		groups[h] = groups[h][:0]
	}
	groupPool.Put(&groups)
}

// groupPool recycles RunBatch's per-host group tables. Every touched
// host's index slice is truncated before the table goes back — its
// backing array kept, so a read batch does not allocate one slice per
// origin — and "untouched" is tested by length, so a pooled table
// behaves as a fresh one.
var groupPool = sync.Pool{New: func() any { return new([][]int) }}

// Stop shuts down all host goroutines, draining already-enqueued tasks,
// and waits for the workers to exit. It does not wait for a RunAs caller
// running its fn inline; the caller must order Stop after such calls.
// The snapshot takes the write lock:
// it orders Stop after every in-flight lazy worker start (boxStart holds
// the read lock across wg.Add), so the final Wait races no Add.
func (c *Cluster) Stop() {
	if c.stopped.Swap(true) {
		return
	}
	c.mailMu.Lock()
	mail := c.mail
	c.mailMu.Unlock()
	for _, m := range mail {
		m.close()
	}
	c.wg.Wait()
}
