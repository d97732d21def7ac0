package serve

import (
	"fmt"
	"sort"
	"time"

	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/wire"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// Op kinds in a replay workload.
const (
	OpQuery  = byte('q')
	OpInsert = byte('i')
	OpDelete = byte('d')
)

// WorkloadOp is one operation of a seeded workload: the same list drives
// the simulator control run and the daemon replay, so any divergence in
// results or per-host message counts is the transport's fault.
type WorkloadOp struct {
	Kind   byte
	Key    uint64 // query point, or the key inserted/deleted
	Origin sim.HostID
}

// NewWorkload deterministically generates ops operations for a cluster
// built from cfg: mostly floor queries with a deterministic mix of
// inserts of fresh keys and deletes of currently-present keys (the
// generator tracks the evolving key set so every update is applicable).
func NewWorkload(cfg Config, seed uint64, ops int) []WorkloadOp {
	rng := xrand.New(seed)
	keys := cfg.InitialKeys()
	present := make(map[uint64]int, len(keys)) // key -> index in keys
	for i, k := range keys {
		present[k] = i
	}
	out := make([]WorkloadOp, 0, ops)
	for len(out) < ops {
		o := sim.HostID(rng.Intn(cfg.Hosts))
		switch r := rng.Intn(10); {
		case r < 8: // floor query
			out = append(out, WorkloadOp{Kind: OpQuery, Key: rng.Uint64n(1 << 41), Origin: o})
		case r == 8: // insert a fresh key
			k := rng.Uint64n(1 << 40)
			if _, dup := present[k]; dup {
				continue
			}
			present[k] = len(keys)
			keys = append(keys, k)
			out = append(out, WorkloadOp{Kind: OpInsert, Key: k, Origin: o})
		default: // delete a present key
			if len(keys) == 0 {
				continue
			}
			i := rng.Intn(len(keys))
			k := keys[i]
			last := keys[len(keys)-1]
			keys[i] = last
			present[last] = i
			keys = keys[:len(keys)-1]
			delete(present, k)
			out = append(out, WorkloadOp{Kind: OpDelete, Key: k, Origin: o})
		}
	}
	return out
}

// RunResult is one side of the parity diff: per-host charged-message
// counts plus per-operation answers and hop counts.
type RunResult struct {
	PerHost []int64
	Floors  []FloorReply // indexed like wl; zero value for updates
	Hops    []int        // model hops per operation

	// Frames holds, per host, the KMsg frames its PerHost messages
	// arrived in (replay side only; the simulator has no frames).
	Frames []int64

	// QueryLatency holds one wall-clock sample per query (replay side
	// only): the real-socket round-trip the W1 table reports.
	QueryLatency []time.Duration
}

// RunSim executes wl on a fresh single-process simulator build of cfg —
// the control side of the parity diff. Counters are reset after
// construction so they cover exactly the workload.
func RunSim(cfg Config, wl []WorkloadOp) (RunResult, error) {
	net := sim.NewNetwork(cfg.Hosts)
	st, err := buildStructure(cfg, net, cfg.InitialKeys())
	if err != nil {
		return RunResult{}, err
	}
	net.ResetTraffic()
	res := RunResult{Floors: make([]FloorReply, len(wl)), Hops: make([]int, len(wl))}
	for i, op := range wl {
		switch op.Kind {
		case OpQuery:
			k, ok, hops, err := st.Query(op.Key, op.Origin)
			if err != nil {
				return RunResult{}, fmt.Errorf("sim op %d: %w", i, err)
			}
			res.Floors[i] = FloorReply{Key: k, Ok: ok, Hops: hops}
			res.Hops[i] = hops
		case OpInsert:
			hops, err := st.Insert(op.Key, op.Origin)
			if err != nil {
				return RunResult{}, fmt.Errorf("sim op %d: %w", i, err)
			}
			res.Hops[i] = hops
		case OpDelete:
			hops, err := st.Delete(op.Key, op.Origin)
			if err != nil {
				return RunResult{}, fmt.Errorf("sim op %d: %w", i, err)
			}
			res.Hops[i] = hops
		}
	}
	res.PerHost = net.PerHostMessages()
	return res, nil
}

// Replay drives wl against a running daemon cluster through clients
// (indexed by host). Queries go to the origin daemon only; updates are
// broadcast to every daemon in host order — emission enabled only at the
// origin — so all replicas stay bit-identical. It returns the wire-side
// RunResult with per-host counts gathered from the daemons' counters.
func Replay(clients []*wire.Client, wl []WorkloadOp) (RunResult, error) {
	for h, cl := range clients {
		if _, err := callReset(cl); err != nil {
			return RunResult{}, fmt.Errorf("reset host %d: %w", h, err)
		}
	}
	res := RunResult{Floors: make([]FloorReply, len(wl)), Hops: make([]int, len(wl))}
	for i, op := range wl {
		switch op.Kind {
		case OpQuery:
			var fr FloorReply
			start := time.Now()
			err := clients[op.Origin].Call("floor", FloorArgs{Q: op.Key, Origin: int(op.Origin)}, &fr)
			if err != nil {
				return RunResult{}, fmt.Errorf("replay op %d (floor): %w", i, err)
			}
			res.QueryLatency = append(res.QueryLatency, time.Since(start))
			res.Floors[i] = fr
			res.Hops[i] = fr.Hops
		case OpInsert, OpDelete:
			kind := "insert"
			if op.Kind == OpDelete {
				kind = "delete"
			}
			for h, cl := range clients {
				var ur UpdateReply
				args := UpdateArgs{Op: kind, Key: op.Key, Origin: int(op.Origin), Emit: sim.HostID(h) == op.Origin}
				if err := cl.Call("update", args, &ur); err != nil {
					return RunResult{}, fmt.Errorf("replay op %d (%s at host %d): %w", i, kind, h, err)
				}
				if sim.HostID(h) == op.Origin {
					res.Hops[i] = ur.Hops
				}
			}
		}
	}
	res.PerHost = make([]int64, len(clients))
	res.Frames = make([]int64, len(clients))
	for h, cl := range clients {
		var sr StatsReply
		if err := cl.Call("stats", nil, &sr); err != nil {
			return RunResult{}, fmt.Errorf("stats host %d: %w", h, err)
		}
		res.PerHost[h], res.Frames[h] = sr.Msgs, sr.Frames
	}
	return res, nil
}

func callReset(cl *wire.Client) (bool, error) {
	var ok bool
	err := cl.Call("resetmsgs", nil, &ok)
	return ok, err
}

// ExpectedDigest computes the key-set digest every daemon must report
// after wl has been fully applied to cfg's initial keys — the recovery
// smoke's oracle, derived without running any structure at all.
func ExpectedDigest(cfg Config, wl []WorkloadOp) DigestReply {
	set := make(map[uint64]struct{}, cfg.Keys)
	for _, k := range cfg.InitialKeys() {
		set[k] = struct{}{}
	}
	for _, op := range wl {
		switch op.Kind {
		case OpInsert:
			set[op.Key] = struct{}{}
		case OpDelete:
			delete(set, op.Key)
		}
	}
	keys := make([]uint64, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return DigestReply{N: len(keys), Sum: digestKeys(keys)}
}

// Digests gathers every daemon's key-set digest; mismatched digests mean
// the replicas diverged during replay.
func Digests(clients []*wire.Client) ([]DigestReply, error) {
	out := make([]DigestReply, len(clients))
	for h, cl := range clients {
		if err := cl.Call("digest", nil, &out[h]); err != nil {
			return nil, fmt.Errorf("digest host %d: %w", h, err)
		}
	}
	return out, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of the samples by
// nearest-rank; zero when there are no samples.
func Quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return s[i]
}

// BootLocal starts a cfg-shaped cluster of in-process daemons on
// loopback listeners, cross-connects them, and returns one control
// client per daemon. Callers own the returned daemons and clients.
func BootLocal(cfg Config) ([]*Daemon, []*wire.Client, error) {
	daemons := make([]*Daemon, cfg.Hosts)
	addrs := make([]string, cfg.Hosts)
	fail := func(err error) ([]*Daemon, []*wire.Client, error) {
		for _, d := range daemons {
			if d != nil {
				d.Close()
			}
		}
		return nil, nil, err
	}
	for h := 0; h < cfg.Hosts; h++ {
		c := cfg
		c.Host = sim.HostID(h)
		c.Listen = "127.0.0.1:0"
		d, err := Start(c)
		if err != nil {
			return fail(err)
		}
		daemons[h] = d
		addrs[h] = d.Addr()
	}
	clients := make([]*wire.Client, cfg.Hosts)
	for h := 0; h < cfg.Hosts; h++ {
		cl, err := wire.Dial(sim.HostID(h), addrs[h], 5*time.Second)
		if err != nil {
			return fail(err)
		}
		clients[h] = cl
		var ok bool
		if err := cl.Call("connect", ConnectArgs{Addrs: addrs}, &ok); err != nil {
			return fail(fmt.Errorf("connect host %d: %w", h, err))
		}
	}
	return daemons, clients, nil
}

// CloseLocal tears down what BootLocal built.
func CloseLocal(daemons []*Daemon, clients []*wire.Client) {
	for _, cl := range clients {
		if cl != nil {
			cl.Close()
		}
	}
	for _, d := range daemons {
		if d != nil {
			d.Close()
		}
	}
}
