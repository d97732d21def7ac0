// Package serve is the skip-web daemon: one process (or in-process
// listener) per host, each holding a full deterministic replica of a
// skip-web structure and exporting its operations as named RPCs over the
// wire protocol.
//
// The parity design rests on two facts. First, construction and updates
// are deterministic given the same seed and the same operation sequence,
// so every daemon can hold a complete replica and stay bit-identical by
// applying the same updates in the same order. Second, the model's
// charges are per-destination-host and their currency is a count: when an
// operation runs at its origin daemon with emission enabled, the
// sim.Network deliver hook fires once per charged message and the daemon
// tallies it against the destination host; when the operation returns,
// each destination that was charged gets one real KMsg frame carrying its
// tally (the daemon's own host is credited directly — that message never
// left the process). Each receiving node adds the counts it is sent, so
// the per-host wire counters equal the simulator's per-host message
// counters bit for bit — the load-bearing invariant the replay harness
// diffs.
package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/wire"
	"github.com/skipwebs/skipwebs/internal/xrand"

	"encoding/binary"
	"encoding/json"
)

// Config describes one daemon: which host it is, the cluster size, and
// the structure every daemon deterministically rebuilds from the seeds.
type Config struct {
	Host      sim.HostID
	Hosts     int
	Listen    string // e.g. "127.0.0.1:0" or ":7070"
	Structure string // "onedim", "blocked", or "bucketed"
	Keys      int    // initial key count
	KeySeed   uint64 // seed for the initial key set
	Seed      uint64 // structural seed (level promotion, placement)
	Replicas  int    // replication factor (<= 1 unreplicated)
	Target    int    // bucketed: keys per bucket (0 = default 8)

	// WALDir, when non-empty, makes the daemon durable: every applied
	// update is fsynced to <WALDir>/host-<id>.wal before its RPC acks,
	// and a restarted daemon replays the log to rejoin with its replica
	// intact (see wal.go). CheckpointEvery sets the verification-
	// checkpoint cadence in records (<= 0 = sim.DefaultCheckpointEvery).
	WALDir          string
	CheckpointEvery int
}

// structure is the uniform op surface the daemon serves; all three
// uint64 skip-web cores satisfy it (the 1-d web via an adapter).
type structure interface {
	Query(q uint64, origin sim.HostID) (uint64, bool, int, error)
	Insert(k uint64, origin sim.HostID) (int, error)
	Delete(k uint64, origin sim.HostID) (int, error)
}

// onedimAdapter maps the generic web's range-result Query onto the
// (key, ok) floor surface.
type onedimAdapter struct {
	w *core.Web[*core.ListLevel, uint64, uint64]
}

func (a onedimAdapter) Query(q uint64, origin sim.HostID) (uint64, bool, int, error) {
	res, err := a.w.Query(q, origin)
	if err != nil {
		return 0, false, 0, err
	}
	g := a.w.GroundStructure()
	if g.IsHead(res.Range) {
		return 0, false, res.Hops, nil
	}
	return g.Key(res.Range), true, res.Hops, nil
}

func (a onedimAdapter) Insert(k uint64, origin sim.HostID) (int, error) {
	return a.w.Insert(k, origin)
}

func (a onedimAdapter) Delete(k uint64, origin sim.HostID) (int, error) {
	return a.w.Delete(k, origin)
}

// InitialKeys returns the deterministic initial key set for cfg — every
// daemon and the sim control derive the same set from KeySeed.
func (cfg Config) InitialKeys() []uint64 {
	rng := xrand.New(cfg.KeySeed)
	seen := make(map[uint64]bool, cfg.Keys)
	out := make([]uint64, 0, cfg.Keys)
	for len(out) < cfg.Keys {
		k := rng.Uint64n(1 << 40)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// buildStructure constructs cfg's structure over net from the
// deterministic initial key set.
func buildStructure(cfg Config, net *sim.Network, keys []uint64) (structure, error) {
	switch cfg.Structure {
	case "onedim":
		w, err := core.NewWeb[*core.ListLevel, uint64, uint64](
			core.NewListOps(), net, keys, core.Config{Seed: cfg.Seed, Replicas: cfg.Replicas})
		if err != nil {
			return nil, err
		}
		return onedimAdapter{w}, nil
	case "blocked":
		return core.NewBlockedWeb(net, keys, core.BlockedConfig{Seed: cfg.Seed, Replicas: cfg.Replicas})
	case "bucketed":
		target := cfg.Target
		if target == 0 {
			target = 8
		}
		repl := cfg.Replicas
		if repl <= 0 {
			repl = 1
		}
		return core.NewBucketWeb(net, keys, target, 0, cfg.Seed, repl)
	default:
		return nil, fmt.Errorf("serve: unknown structure %q", cfg.Structure)
	}
}

// Daemon is one running host: a wire.Node serving the structure's
// operations, a deliver hook that tallies model charges per destination,
// and one client per peer to deliver the tallies on.
type Daemon struct {
	cfg  Config
	net  *sim.Network
	st   structure
	node *wire.Node

	// peers[h] is the connection charges to host h ride on (none to the
	// daemon's own host); nil until the connect RPC (or ConnectPeers)
	// supplies the address list.
	peers []*wire.Client

	// emit, pending and acks are touched only from the node's worker
	// goroutine (handlers run serially there), so they need no lock.
	// pending[h] is what the operation in flight has charged host h and
	// not yet delivered — all zero between operations — and acks[h] the
	// id of the frame flush sent for it.
	emit    bool
	pending []uint32
	acks    []uint64

	// applied is the daemon's current key set, the digest's input.
	applied map[uint64]struct{}

	// wal is the on-disk operation log (nil without Config.WALDir);
	// recovered counts the records replayed at startup.
	wal       *walLog
	recovered int

	shutdown chan struct{} // closed by the shutdown RPC
}

// Request/reply bodies of the daemon's RPCs.
type (
	// PingReply identifies a daemon. Recovered counts the WAL records
	// it replayed at startup (0 without a WAL or on a fresh log).
	PingReply struct {
		Host      int
		Structure string
		Keys      int
		Recovered int
	}
	// ConnectArgs carries the full peer address list, indexed by host.
	ConnectArgs struct {
		Addrs []string
	}
	// FloorArgs asks for the floor (greatest key <= Q) from Origin.
	FloorArgs struct {
		Q      uint64
		Origin int
	}
	// FloorReply is a floor answer plus its model hop count.
	FloorReply struct {
		Key  uint64
		Ok   bool
		Hops int
	}
	// UpdateArgs applies an insert or delete. Emit is true only at the
	// origin daemon — the one daemon whose charges become KMsg frames;
	// the others apply the update silently to keep their replicas
	// bit-identical.
	UpdateArgs struct {
		Op     string // "insert" or "delete"
		Key    uint64
		Origin int
		Emit   bool
	}
	// UpdateReply reports the model hop count of the update.
	UpdateReply struct {
		Hops int
	}
	// StatsReply reports the daemon's charged-message counter — the
	// wire-side per-host number the parity check diffs against the sim —
	// and the number of KMsg frames those messages arrived in.
	StatsReply struct {
		Msgs   int64
		Frames int64
	}
	// DigestReply summarizes the daemon's key set; equal digests across
	// daemons certify the replicas stayed in sync.
	DigestReply struct {
		N   int
		Sum uint64
	}
)

// Start builds the replica and opens the listener. The daemon serves
// ping/connect/digest immediately; floor and update work (and emit
// charges) once peers are connected.
func Start(cfg Config) (*Daemon, error) {
	if cfg.Hosts <= 0 {
		return nil, fmt.Errorf("serve: non-positive host count %d", cfg.Hosts)
	}
	if int(cfg.Host) < 0 || int(cfg.Host) >= cfg.Hosts {
		return nil, fmt.Errorf("serve: host %d outside [0,%d)", cfg.Host, cfg.Hosts)
	}
	net := sim.NewNetwork(cfg.Hosts)
	keys := cfg.InitialKeys()
	st, err := buildStructure(cfg, net, keys)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:      cfg,
		net:      net,
		st:       st,
		pending:  make([]uint32, cfg.Hosts),
		acks:     make([]uint64, cfg.Hosts),
		applied:  make(map[uint64]struct{}, len(keys)),
		shutdown: make(chan struct{}),
	}
	for _, k := range keys {
		d.applied[k] = struct{}{}
	}
	if cfg.WALDir != "" {
		if err := d.recover(); err != nil {
			return nil, err
		}
	}
	// The hook stays installed for the daemon's lifetime; emit gates it
	// so construction and non-origin updates charge nothing.
	net.SetDeliver(func(h sim.HostID) {
		if d.emit {
			d.pending[h]++
		}
	})
	node, err := wire.NewNode(wire.NodeConfig{
		Host:   cfg.Host,
		Listen: cfg.Listen,
		Handlers: map[string]wire.Handler{
			"ping":      d.ping,
			"connect":   d.connect,
			"floor":     d.floor,
			"update":    d.update,
			"stats":     d.stats,
			"resetmsgs": d.resetMsgs,
			"digest":    d.digest,
			"shutdown":  d.shutdownRPC,
		},
	})
	if err != nil {
		return nil, err
	}
	d.node = node
	return d, nil
}

// recover opens the daemon's WAL and replays whatever a previous
// process life logged: each record re-applies its update to the freshly
// rebuilt replica (emission is off — recovery is local disk I/O, not
// cluster traffic), and the state is verified against the last
// checkpoint at the exact record it covered. Determinism makes this
// exact: seeds + the ordered update log reproduce the replica bit for
// bit.
func (d *Daemon) recover() error {
	wal, recs, err := openWAL(d.cfg.WALDir, d.cfg.Host, d.cfg.Hosts, d.cfg.CheckpointEvery)
	if err != nil {
		return err
	}
	ck, haveCk, err := wal.readCheckpoint()
	if err != nil {
		wal.close()
		return err
	}
	if haveCk && ck.Records > len(recs) {
		wal.close()
		return fmt.Errorf("serve: wal truncated: checkpoint covers %d records, log has %d", ck.Records, len(recs))
	}
	for i, rec := range recs {
		if err := d.applyRecord(rec); err != nil {
			wal.close()
			return fmt.Errorf("serve: wal replay record %d: %w", i, err)
		}
		if haveCk && i+1 == ck.Records {
			if got := d.digestNow(); got.N != ck.N || got.Sum != ck.Sum {
				wal.close()
				return fmt.Errorf("serve: wal replay diverged from checkpoint at record %d: got {%d %#x}, want {%d %#x}",
					ck.Records, got.N, got.Sum, ck.N, ck.Sum)
			}
		}
	}
	d.wal = wal
	d.recovered = len(recs)
	return nil
}

// applyRecord re-applies one logged update during recovery.
func (d *Daemon) applyRecord(rec walRecord) error {
	switch rec.Op {
	case OpInsert:
		if _, err := d.st.Insert(rec.Key, sim.HostID(rec.Origin)); err != nil {
			return err
		}
		d.applied[rec.Key] = struct{}{}
	case OpDelete:
		if _, err := d.st.Delete(rec.Key, sim.HostID(rec.Origin)); err != nil {
			return err
		}
		delete(d.applied, rec.Key)
	}
	return nil
}

// Recovered returns the number of WAL records replayed at startup.
func (d *Daemon) Recovered() int { return d.recovered }

// Addr returns the daemon's listen address.
func (d *Daemon) Addr() string { return d.node.Addr() }

// ShutdownRequested is closed when a shutdown RPC arrives; the process
// wrapper selects on it alongside OS signals.
func (d *Daemon) ShutdownRequested() <-chan struct{} { return d.shutdown }

// Close drains the daemon gracefully: queued RPCs finish, then the
// listener and peer connections close.
func (d *Daemon) Close() {
	d.node.Close()
	for _, cl := range d.peers {
		if cl != nil {
			cl.Close()
		}
	}
	d.wal.close()
}

// ConnectPeers dials every other host's address (addrs is indexed by
// host id and includes this daemon's own, which is not dialed), retrying
// each dial for up to wait.
func (d *Daemon) ConnectPeers(addrs []string, wait time.Duration) error {
	if len(addrs) != d.cfg.Hosts {
		return fmt.Errorf("serve: %d peer addrs for %d hosts", len(addrs), d.cfg.Hosts)
	}
	peers := make([]*wire.Client, len(addrs))
	for h, a := range addrs {
		if sim.HostID(h) == d.cfg.Host {
			continue
		}
		cl, err := wire.Dial(sim.HostID(h), a, wait)
		if err != nil {
			for _, p := range peers {
				if p != nil {
					p.Close()
				}
			}
			return err
		}
		peers[h] = cl
	}
	// A re-connect (after a peer restarted on a fresh socket) replaces
	// the whole set; drop the stale connections.
	for _, p := range d.peers {
		if p != nil {
			p.Close()
		}
	}
	d.peers = peers
	return nil
}

func (d *Daemon) ping(json.RawMessage) (any, error) {
	return PingReply{Host: int(d.cfg.Host), Structure: d.cfg.Structure, Keys: len(d.applied), Recovered: d.recovered}, nil
}

func (d *Daemon) connect(args json.RawMessage) (any, error) {
	var in ConnectArgs
	if err := json.Unmarshal(args, &in); err != nil {
		return nil, err
	}
	if err := d.ConnectPeers(in.Addrs, 5*time.Second); err != nil {
		return nil, err
	}
	return true, nil
}

// run executes fn with charge emission on, then delivers what it charged.
// The flush happens whether or not fn failed: the model charged those
// messages before the failure, and it leaves no tally behind for the next
// operation. fn's own error wins; failing that, the first delivery error.
func (d *Daemon) run(fn func() error) error {
	if d.peers == nil {
		return fmt.Errorf("serve: host %d has no peers connected", d.cfg.Host)
	}
	d.emit = true
	err := fn()
	d.emit = false
	ferr := d.flush()
	if err != nil {
		return err
	}
	if ferr != nil {
		return fmt.Errorf("serve: hop delivery failed: %w", ferr)
	}
	return nil
}

// flush delivers the finished operation's tallies: the daemon's own share
// straight into its node's counter, every other charged host's as one
// counted KMsg frame. All frames are written before any ack is awaited, so
// the destinations count concurrently and the operation waits about one
// round trip, not one per destination. A dead peer costs its own count
// only — the rest are still delivered — and the first error is returned.
func (d *Daemon) flush() error {
	self := d.cfg.Host
	d.node.AddMessages(int64(d.pending[self]))
	d.pending[self] = 0
	var first error
	for h, n := range d.pending {
		if n == 0 {
			continue
		}
		id, err := d.peers[h].SendMsgs(n)
		if err != nil {
			d.pending[h] = 0 // nothing to await
			if first == nil {
				first = err
			}
			continue
		}
		d.acks[h] = id
	}
	for h, n := range d.pending {
		if n == 0 {
			continue
		}
		d.pending[h] = 0
		if err := d.peers[h].AwaitAck(d.acks[h]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// checkOrigin refuses an RPC's origin outside the cluster: the engines
// index per-host state by it.
func (d *Daemon) checkOrigin(origin int) error {
	if origin < 0 || origin >= d.cfg.Hosts {
		return fmt.Errorf("serve: origin %d outside [0,%d)", origin, d.cfg.Hosts)
	}
	return nil
}

func (d *Daemon) floor(args json.RawMessage) (any, error) {
	var in FloorArgs
	if err := json.Unmarshal(args, &in); err != nil {
		return nil, err
	}
	if err := d.checkOrigin(in.Origin); err != nil {
		return nil, err
	}
	var out FloorReply
	err := d.run(func() error {
		k, ok, hops, err := d.st.Query(in.Q, sim.HostID(in.Origin))
		out = FloorReply{Key: k, Ok: ok, Hops: hops}
		return err
	})
	return out, err
}

func (d *Daemon) update(args json.RawMessage) (any, error) {
	var in UpdateArgs
	if err := json.Unmarshal(args, &in); err != nil {
		return nil, err
	}
	if err := d.checkOrigin(in.Origin); err != nil {
		return nil, err
	}
	apply := func() (int, error) {
		switch in.Op {
		case "insert":
			return d.st.Insert(in.Key, sim.HostID(in.Origin))
		case "delete":
			return d.st.Delete(in.Key, sim.HostID(in.Origin))
		default:
			return 0, fmt.Errorf("serve: unknown update op %q", in.Op)
		}
	}
	var out UpdateReply
	var doErr error
	if in.Emit {
		doErr = d.run(func() error {
			h, err := apply()
			out.Hops = h
			return err
		})
	} else {
		// Replica-sync path: apply without emitting — this daemon is not
		// the operation's origin, so its charges are not the real ones.
		h, err := apply()
		out.Hops = h
		doErr = err
	}
	if doErr != nil {
		return nil, doErr
	}
	switch in.Op {
	case "insert":
		d.applied[in.Key] = struct{}{}
	case "delete":
		delete(d.applied, in.Key)
	}
	// Write-ahead of the ack: the record is fsynced before the RPC
	// replies, so an acknowledged update survives a process kill.
	if d.wal != nil {
		op := OpInsert
		if in.Op == "delete" {
			op = OpDelete
		}
		if err := d.wal.append(walRecord{Op: op, Key: in.Key, Origin: in.Origin}); err != nil {
			return nil, err
		}
		if err := d.wal.maybeCheckpoint(d.digestNow); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (d *Daemon) stats(json.RawMessage) (any, error) {
	return StatsReply{Msgs: d.node.Messages(), Frames: d.node.Frames()}, nil
}

func (d *Daemon) resetMsgs(json.RawMessage) (any, error) {
	d.node.ResetMessages()
	return true, nil
}

func (d *Daemon) digest(json.RawMessage) (any, error) {
	return d.digestNow(), nil
}

// digestNow summarizes the current key set (also the checkpoint's and
// recovery verification's state summary).
func (d *Daemon) digestNow() DigestReply {
	keys := make([]uint64, 0, len(d.applied))
	for k := range d.applied {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return DigestReply{N: len(keys), Sum: digestKeys(keys)}
}

// digestKeys hashes a sorted key list — shared with ExpectedDigest so
// the sim control and the daemons agree byte for byte.
func digestKeys(sorted []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, k := range sorted {
		binary.BigEndian.PutUint64(buf[:], k)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func (d *Daemon) shutdownRPC(json.RawMessage) (any, error) {
	select {
	case <-d.shutdown:
	default:
		close(d.shutdown)
	}
	return true, nil
}
