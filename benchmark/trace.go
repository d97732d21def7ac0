package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/skipwebs/skipwebs/internal/sim"
)

// Tracing is done from the outside: the traced run replays a prefix of the
// workload's op stream once per rung of the ladder the workload crosses,
// each rung calling one layer further down on the same inputs, and records
// one span per call and rung. Spans of one call share op_id. A rung's self
// time is its duration minus the durations of the rungs directly below it.
// Spans inside the program under test are a later change.

const (
	rungClient    = "client"        // the call as the workload issues it
	rungTransport = "sim.transport" // no-op dispatch with the same origins (batch workloads)
	rungWire      = "wire"          // one ping per RPC the call makes (rpc)
	rungFront     = "front"         // the synchronous public method, op by op
	rungCore      = "core"          // the engine direct, on a twin network
	rungNet       = "sim.net"       // a charge replay of the op's hop count
)

type span struct {
	OpID int `json:"op_id"`
	// Round numbers the replays of the ladder; a call has one span per
	// rung and round.
	Round  int    `json:"round"`
	Rung   string `json:"rung"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent_rung"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	round int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) end(opID int, rung, parent, name string, start int64) {
	tr.spans = append(tr.spans, span{OpID: opID, Round: tr.round, Rung: rung, Name: name, Start: start, End: int64(time.Since(tr.t0)), Parent: parent})
}

// untracedRun is the client rung once more without spans: the base of
// trace.overhead_ratio, and where the traced run counts allocations.
// p99us is the 99th percentile call latency of the whole untraced passes
// traceLadder runs after the ladder.
type untracedRun struct {
	wall   time.Duration
	ops    int
	allocs uint64
	p99us  float64
}

// rungSummary aggregates one rung's spans.
type rungSummary struct {
	Rung   string `json:"rung"`
	Parent string `json:"parent_rung"`
	Spans  int    `json:"spans"`
	// TotalNs is the rung's total duration: the median over the ladder's
	// rounds of the round's summed spans (RoundTotalsNs).
	TotalNs       int64   `json:"total_ns"`
	RoundTotalsNs []int64 `json:"round_totals_ns"`
	P50Ns         float64 `json:"p50_ns"`
	// SelfNs is TotalNs minus the totals of the rungs whose parent this
	// is, floored at zero (parallel batch dispatch can finish a call sooner
	// than its parts replayed one after another).
	SelfNs int64 `json:"self_ns"`
}

func summarize(spans []span) []rungSummary {
	by := map[string]*rungSummary{}
	durs := map[string][]float64{}
	var order []string
	for _, s := range spans {
		r := by[s.Rung]
		if r == nil {
			r = &rungSummary{Rung: s.Rung, Parent: s.Parent}
			by[s.Rung] = r
			order = append(order, s.Rung)
		}
		r.Spans++
		for len(r.RoundTotalsNs) <= s.Round {
			r.RoundTotalsNs = append(r.RoundTotalsNs, 0)
		}
		r.RoundTotalsNs[s.Round] += s.End - s.Start
		durs[s.Rung] = append(durs[s.Rung], float64(s.End-s.Start))
	}
	for _, r := range by {
		totals := make([]float64, len(r.RoundTotalsNs))
		for i, t := range r.RoundTotalsNs {
			totals[i] = float64(t)
		}
		r.TotalNs = int64(median(totals))
	}
	out := make([]rungSummary, 0, len(order))
	for _, name := range order {
		r := by[name]
		r.P50Ns = median(durs[name])
		r.SelfNs = r.TotalNs
		for _, child := range by {
			if child.Parent == name {
				r.SelfNs -= child.TotalNs
			}
		}
		if r.SelfNs < 0 {
			r.SelfNs = 0
		}
		out = append(out, *r)
	}
	return out
}

// selfSumOverClient is the acceptance figure of the ladder: the rungs'
// self times, summed, over the client rung's total. 1 means the ladder
// accounts for the whole call.
func selfSumOverClient(rungs []rungSummary) float64 {
	var sum, client int64
	for _, r := range rungs {
		sum += r.SelfNs
		if r.Rung == rungClient {
			client = r.TotalNs
		}
	}
	if client == 0 {
		return 0
	}
	return float64(sum) / float64(client)
}

func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// replayCharges charges `hops` cross-host messages to one pooled Op on a
// bare network: what the accounting of an op with that hop count costs by
// itself.
func replayCharges(net *sim.Network, origin sim.HostID, hops int) {
	op := net.NewOp(origin)
	h := origin
	for i := 0; i < hops; i++ {
		h++
		if int(h) >= net.Hosts() {
			h = 0
		}
		op.Visit(h)
	}
	op.Free()
}

var opNames = [...]string{opFloor: "floor", opContains: "contains", opRange: "range", opInsert: "insert",
	opDelete: "delete", opLocate: "locate", opSearch: "search"}

// ladderRounds is how often the cluster workloads' ladder is replayed. Two
// replays of the same 20,000 calls differ by ±10 % on the reference box,
// which is as much as a thin layer's whole self time; a rung is summarised
// by the median of its per-round totals.
const ladderRounds = 3

// trace is the ladder of every cluster workload. Updates replay cleanly on
// each rung, and round after round, because a prefix is always whole
// rounds of the pass, and each of those ends on the key set it started
// from.
func (in *clusterInstance) trace(tr *tracer, rounds int) (untracedRun, error) {
	for _, t := range in.targets {
		if err := t.buildTwin(in.hosts); err != nil {
			return untracedRun{}, fmt.Errorf("%s twin: %w", t.label(), err)
		}
	}
	calls := in.gen(1, rounds)
	in.calls = calls
	ts := in.targets
	kindOf := func(c call) opKind { return ts[c.t].kind(int(c.lo)) }
	isWrite := func(c call) bool { k := kindOf(c); return k == opInsert || k == opDelete }
	names := make([]string, len(calls))
	for ci, c := range calls {
		names[ci] = ts[c.t].label() + "." + opNames[kindOf(c)]
		if c.batch {
			names[ci] += "-batch"
		}
	}
	// each replays a call's ops one layer down. A write batch is replayed
	// as the batch engine runs it — one goroutine per write stripe, each
	// working through its stripe's ops in input order — so that the rungs
	// below the client see the parallelism the client call had.
	byStripe := make([][][]int, len(calls))
	for ci, c := range calls {
		if in.writers > 1 && c.batch && isWrite(c) {
			byStripe[ci] = make([][]int, in.writers)
			for i := int(c.lo); i < int(c.hi); i++ {
				st := ts[c.t].stripe(i)
				byStripe[ci][st] = append(byStripe[ci][st], i)
			}
		}
	}
	each := func(ci int, f func(t target, i int)) {
		c := calls[ci]
		switch {
		case !c.batch:
			f(ts[c.t], int(c.lo))
		case byStripe[ci] == nil:
			for i := int(c.lo); i < int(c.hi); i++ {
				f(ts[c.t], i)
			}
		default:
			var wg sync.WaitGroup
			for _, idx := range byStripe[ci] {
				wg.Add(1)
				go func(idx []int) {
					defer wg.Done()
					for _, i := range idx {
						f(ts[c.t], i)
					}
				}(idx)
			}
			wg.Wait()
		}
	}
	client := func(c call) {
		if c.batch {
			ts[c.t].runBatch(int(c.lo), int(c.hi))
		} else {
			ts[c.t].run(int(c.lo))
		}
	}

	var tw *sim.Cluster // the no-op twin of the cluster's transport
	if in.transport {
		tw = sim.NewCluster(sim.NewNetwork(in.hosts))
		defer tw.Stop()
		tw.RunBatch(in.hosts, func(i int) sim.HostID { return sim.HostID(i) }, func(int) {}) // start the lazy workers
	}
	bare := sim.NewNetwork(in.hosts)
	hopAt := make([][]int32, len(ts))
	for j, t := range ts {
		hopAt[j] = make([]int32, t.len())
	}
	// descends says whether a call goes below front: always, except that a
	// cached workload's reads only do when front charged messages for them
	descends := func(c call) bool {
		return !in.cached || isWrite(c) || hopAt[c.t][int(c.lo)] > 0
	}

	runtime.GC() // the twins' construction garbage
	for round := 0; round < ladderRounds; round++ {
		tr.round = round
		for ci, c := range calls {
			s := tr.begin()
			client(c)
			tr.end(ci, rungClient, "", names[ci], s)
		}
		if failed, first := in.check(); failed > 0 {
			return untracedRun{}, fmt.Errorf("traced client rung: %d wrong answers, first: %w", failed, first)
		}

		if in.transport {
			for ci, c := range calls {
				ops := ts[c.t].(*keyed).ops[c.lo:c.hi]
				s := tr.begin()
				if isWrite(c) {
					if err := dispatchWrites(tw, ops, in.writers); err != nil {
						return untracedRun{}, err
					}
				} else {
					tw.RunBatch(len(ops), func(i int) sim.HostID { return ops[i].origin }, func(int) {})
				}
				tr.end(ci, rungTransport, rungClient, "dispatch", s)
			}
		}

		// front: the synchronous public method; its hop counts decide what
		// descends further and what sim.net replays
		for ci, c := range calls {
			s := tr.begin()
			each(ci, func(t target, i int) { t.run(i) })
			tr.end(ci, rungFront, rungClient, names[ci], s)
			hops := hopAt[c.t]
			each(ci, func(t target, i int) { hops[i] = int32(t.hops(i)) })
		}

		if round == 0 {
			// the twins were built a moment ago: give them the warm-up the
			// public structures had before recording
			for ci, c := range calls {
				if descends(c) {
					each(ci, func(t target, i int) { t.runCore(i) })
				}
			}
		}
		for ci, c := range calls {
			if !descends(c) {
				continue
			}
			s := tr.begin()
			each(ci, func(t target, i int) { t.runCore(i) })
			tr.end(ci, rungCore, rungFront, names[ci], s)
		}

		for ci, c := range calls {
			if !descends(c) {
				continue
			}
			hops := hopAt[c.t]
			s := tr.begin()
			each(ci, func(t target, i int) { replayCharges(bare, sim.HostID(i%in.hosts), int(hops[i])) })
			tr.end(ci, rungNet, rungCore, "charge", s)
		}
	}

	// the same calls once more as the client rung issued them, without
	// spans
	m0 := mallocs()
	start := time.Now()
	for _, c := range calls {
		client(c)
	}
	wall := time.Since(start)
	return untracedRun{wall: wall, ops: countOps(calls), allocs: mallocs() - m0}, nil
}

// dispatchWrites issues one no-op Do per op the way the batch engine
// dispatches a write batch: one dispatcher goroutine per write stripe, each
// working through its share of the ops in order.
func dispatchWrites(tw *sim.Cluster, ops []op, writers int) error {
	noop := func() {}
	errs := make(chan error, writers) // one send per dispatcher
	for w := 0; w < writers; w++ {
		go func(w int) {
			var first error
			for i := w; i < len(ops); i += writers {
				if err := tw.Do(ops[i].origin, noop); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}(w)
	}
	var first error
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// opIDsByRung lists, per rung, the sorted op ids that have a span on it in
// the ladder's first round.
func opIDsByRung(spans []span) map[string][]int {
	out := map[string][]int{}
	for _, s := range spans {
		if s.Round == 0 {
			out[s.Rung] = append(out[s.Rung], s.OpID)
		}
	}
	for _, ids := range out {
		sort.Ints(ids)
	}
	return out
}
