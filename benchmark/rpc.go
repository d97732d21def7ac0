package main

import (
	"fmt"
	"time"

	"github.com/skipwebs/skipwebs/internal/core"
	"github.com/skipwebs/skipwebs/internal/serve"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/wire"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// The rpc workload: one client, one call in flight, against in-process
// skipweb-serve daemons on TCP loopback. The op stream is one long
// serve.NewWorkload sequence cut into passes; updates are broadcast to
// every daemon in host order with emission on at the origin only, exactly
// as serve.Replay does. Traffic crosses the host's loopback interface, not
// a real link.

func rpcConfig(sz sizing) serve.Config {
	return serve.Config{
		Hosts:     sz.Hosts,
		Structure: "blocked",
		Keys:      sz.Items,
		KeySeed:   xrand.Substream(dataSeed, 1),
		Seed:      dataSeed,
	}
}

func prepareRPC(sz sizing, seed uint64) func() (instance, error) {
	cfg := rpcConfig(sz)
	return func() (instance, error) {
		daemons, clients, err := serve.BootLocal(cfg)
		if err != nil {
			return nil, err
		}
		return &rpcInstance{cfg: cfg, seed: seed, perPass: sz.Rounds, daemons: daemons, clients: clients,
			base: make([]int64, sz.Hosts)}, nil
	}
}

type rpcInstance struct {
	cfg     serve.Config
	seed    uint64
	perPass int
	daemons []*serve.Daemon
	clients []*wire.Client

	// wl is the op stream generated so far; ops [lo, hi) are the loaded
	// pass. The structure's state depends on every op before lo, so passes
	// run strictly in order.
	wl     []serve.WorkloadOp
	lo, hi int
	// floors, hops and bad are the wire-side answers, indexed like wl.
	floors []serve.FloorReply
	hops   []int
	bad    []bool
	// base holds the per-host frame counts read before each counter reset,
	// so the end-state parity check can still cover the whole stream.
	base []int64
}

func (in *rpcInstance) items() int { return in.cfg.Keys * in.cfg.Hosts } // every daemon holds a full replica

func (in *rpcInstance) load(p int) (ops, calls int) {
	if p*in.perPass != in.hi {
		panic(fmt.Sprintf("benchmark: rpc pass %d loaded out of order", p))
	}
	in.lo, in.hi = in.hi, in.hi+in.perPass
	// NewWorkload is sequential in its seed, so a longer stream extends a
	// shorter one.
	in.wl = serve.NewWorkload(in.cfg, xrand.Substream(in.seed, 2), in.hi)
	for len(in.floors) < in.hi {
		in.floors = append(in.floors, serve.FloorReply{})
		in.hops = append(in.hops, 0)
		in.bad = append(in.bad, false)
	}
	return in.perPass, in.perPass
}

// issue performs op i as the client sees it: one floor RPC to the origin
// daemon, or one update broadcast.
func (in *rpcInstance) issue(i int) {
	op := in.wl[i]
	if op.Kind == serve.OpQuery {
		err := in.clients[op.Origin].Call("floor", serve.FloorArgs{Q: op.Key, Origin: int(op.Origin)}, &in.floors[i])
		in.hops[i], in.bad[i] = in.floors[i].Hops, err != nil
		return
	}
	kind := "insert"
	if op.Kind == serve.OpDelete {
		kind = "delete"
	}
	for h, cl := range in.clients {
		var ur serve.UpdateReply
		emit := sim.HostID(h) == op.Origin
		if err := cl.Call("update", serve.UpdateArgs{Op: kind, Key: op.Key, Origin: int(op.Origin), Emit: emit}, &ur); err != nil {
			in.bad[i] = true
		}
		if emit {
			in.hops[i] = ur.Hops
		}
	}
}

func (in *rpcInstance) run(lat []uint32) ([]uint32, time.Duration) {
	start := time.Now()
	prev := start
	for i := in.lo; i < in.hi; i++ {
		in.issue(i)
		now := time.Now()
		lat = append(lat, clampNs(now.Sub(prev)))
		prev = now
	}
	return lat, prev.Sub(start)
}

// check counts the loaded pass's failed calls; answers are compared with
// the simulator over the whole stream by finish, because the simulator's
// state, like the daemons', depends on every earlier op.
func (in *rpcInstance) check() (failed int, first error) {
	for i := in.lo; i < in.hi; i++ {
		if in.bad[i] {
			failed++
			if first == nil {
				first = fmt.Errorf("rpc op %d: call returned an error", i)
			}
		}
	}
	return failed, first
}

func (in *rpcInstance) counters() ([]int64, error) {
	out := make([]int64, len(in.clients))
	for h, cl := range in.clients {
		var sr serve.StatsReply
		if err := cl.Call("stats", nil, &sr); err != nil {
			return nil, fmt.Errorf("stats host %d: %w", h, err)
		}
		out[h] = sr.Msgs
	}
	return out, nil
}

func (in *rpcInstance) resetTraffic() error {
	cur, err := in.counters()
	if err != nil {
		return err
	}
	for h, cl := range in.clients {
		in.base[h] += cur[h]
		var ok bool
		if err := cl.Call("resetmsgs", nil, &ok); err != nil {
			return fmt.Errorf("resetmsgs host %d: %w", h, err)
		}
	}
	return nil
}

// traffic reads the daemons' frame counters: here the busiest host's share
// is taken over delivered kMsg frames, the exact per-host message count.
func (in *rpcInstance) traffic() (int64, float64, error) {
	cur, err := in.counters()
	if err != nil {
		return 0, 0, err
	}
	var total, max int64
	for _, n := range cur {
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 0, 0, nil
	}
	return total, float64(max) / float64(total), nil
}

// finish diffs the whole replayed stream against serve.RunSim: floors and
// hop counts op by op, per-host frame counters bit for bit, and every
// daemon's key-set digest against serve.ExpectedDigest.
func (in *rpcInstance) finish() []error {
	wl := in.wl[:in.hi]
	ctl, err := serve.RunSim(in.cfg, wl)
	if err != nil {
		return []error{fmt.Errorf("rpc: simulator control run: %w", err)}
	}
	var errs []error
	for i := range wl {
		if in.bad[i] {
			continue // already counted by check
		}
		if in.floors[i] != ctl.Floors[i] || in.hops[i] != ctl.Hops[i] {
			errs = append(errs, fmt.Errorf("rpc op %d: wire answered %+v in %d hops, simulator %+v in %d",
				i, in.floors[i], in.hops[i], ctl.Floors[i], ctl.Hops[i]))
		}
	}
	cur, err := in.counters()
	if err != nil {
		return append(errs, err)
	}
	for h := range cur {
		if got := in.base[h] + cur[h]; got != ctl.PerHost[h] {
			errs = append(errs, fmt.Errorf("rpc: host %d counted %d frames, the simulator charged %d messages", h, got, ctl.PerHost[h]))
		}
	}
	want := serve.ExpectedDigest(in.cfg, wl)
	digests, err := serve.Digests(in.clients)
	if err != nil {
		return append(errs, err)
	}
	for h, d := range digests {
		if d != want {
			errs = append(errs, fmt.Errorf("rpc: daemon %d digest %+v, expected %+v", h, d, want))
		}
	}
	return errs
}

// close first gives the daemons' accept loops a moment. wire.Node.Close has
// a race this benchmark cannot fix from here: a connection the accept loop
// has taken off the listener but not yet registered when teardown
// snapshots the connection set is never closed, and Close waits for its
// reader forever. The daemons dial each other at the very end of
// BootLocal, so an instance closed right after it was built — as the
// discarded set-ups are — hit it about once in thirty runs.
func (in *rpcInstance) close() {
	time.Sleep(20 * time.Millisecond)
	serve.CloseLocal(in.daemons, in.clients)
}

// trace replays the first `rounds` ops of pass 1 on each rung rpc crosses,
// once — the stream's updates are not idempotent, so there is no second
// round:
// the client call; wire — one ping per RPC the call makes; core — the
// engine direct, on a twin network advanced through the same stream; and
// sim.net — a charge replay of the op's hop count.
func (in *rpcInstance) trace(tr *tracer, rounds int) (untracedRun, error) {
	n, _ := in.load(1)
	if n > rounds {
		n = rounds
	}
	lo := in.lo
	name := func(i int) string {
		switch in.wl[i].Kind {
		case serve.OpQuery:
			return "floor"
		case serve.OpInsert:
			return "insert"
		}
		return "delete"
	}
	for i := lo; i < lo+n; i++ {
		s := tr.begin()
		in.issue(i)
		tr.end(i-lo, rungClient, "", name(i), s)
	}
	// the rest of pass 1 still has to run: the daemons' state and the
	// finish diff cover whole passes
	for i := lo + n; i < in.hi; i++ {
		in.issue(i)
	}
	var pr serve.PingReply
	for i := lo; i < lo+n; i++ {
		op := in.wl[i]
		s := tr.begin()
		if op.Kind == serve.OpQuery {
			if err := in.clients[op.Origin].Call("ping", nil, &pr); err != nil {
				return untracedRun{}, err
			}
		} else {
			for _, cl := range in.clients {
				if err := cl.Call("ping", nil, &pr); err != nil {
					return untracedRun{}, err
				}
			}
		}
		tr.end(i-lo, rungWire, rungClient, "ping", s)
	}
	twin, err := core.NewBlockedWeb(sim.NewNetwork(in.cfg.Hosts), in.cfg.InitialKeys(),
		core.BlockedConfig{Seed: in.cfg.Seed, Replicas: in.cfg.Replicas})
	if err != nil {
		return untracedRun{}, err
	}
	apply := func(op serve.WorkloadOp) error {
		var err error
		switch op.Kind {
		case serve.OpQuery:
			_, _, _, err = twin.Query(op.Key, op.Origin)
		case serve.OpInsert:
			_, err = twin.Insert(op.Key, op.Origin)
		case serve.OpDelete:
			_, err = twin.Delete(op.Key, op.Origin)
		}
		return err
	}
	for i := 0; i < lo; i++ { // advance the twin to the start of pass 1
		if err := apply(in.wl[i]); err != nil {
			return untracedRun{}, err
		}
	}
	for i := lo; i < lo+n; i++ {
		s := tr.begin()
		err := apply(in.wl[i])
		tr.end(i-lo, rungCore, rungClient, name(i), s)
		if err != nil {
			return untracedRun{}, err
		}
	}
	bare := sim.NewNetwork(in.cfg.Hosts)
	for i := lo; i < lo+n; i++ {
		s := tr.begin()
		replayCharges(bare, in.wl[i].Origin, in.hops[i])
		tr.end(i-lo, rungNet, rungCore, "charge", s)
	}

	// the base of trace.overhead_ratio: the same number of client calls
	// without spans. The stream cannot be replayed (its updates are not
	// idempotent), so this is the head of pass 2 — same mix, next ops.
	in.load(2)
	m0 := mallocs()
	start := time.Now()
	for i := in.lo; i < in.lo+n; i++ {
		in.issue(i)
	}
	untraced := untracedRun{wall: time.Since(start), ops: n, allocs: mallocs() - m0}
	for i := in.lo + n; i < in.hi; i++ {
		in.issue(i)
	}
	return untraced, nil
}
