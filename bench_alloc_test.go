// Allocation benchmarks for the hot paths: the point-query descent and
// the update climb. These pin the allocation-free descent guarantees
// documented in README.md's Performance section — `go test -bench=Allocs`
// shows allocs/op alongside the paper's msgs/op metric, and CI's bench
// smoke job keeps them from regressing silently. The accounting plane of
// the wire protocol and the in-process transport's dispatch have their
// ceilings here too (TestWireAllocCeilings, TestTransportAllocCeilings).
package skipwebs

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"github.com/skipwebs/skipwebs/internal/experiments"
	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/wire"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// BenchmarkQueryAllocs measures per-query heap allocations on the point
// query descent of each structure. The Blocked and OneDim descents are
// allocation-free in steady state (pooled sim.Op, iterator-based range
// enumeration, binary-search local search); tree-backed descents allocate
// only what their answers require.
func BenchmarkQueryAllocs(b *testing.B) {
	b.Run("blocked-floor", func(b *testing.B) {
		c := NewCluster(256)
		w, err := NewBlocked(c, benchKeys(0), Options{Seed: 17})
		if err != nil {
			b.Fatal(err)
		}
		rng := xrand.New(18)
		total := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := w.Floor(rng.Uint64n(1<<40), HostID(rng.Intn(256)))
			if err != nil {
				b.Fatal(err)
			}
			total += r.Hops
		}
		b.ReportMetric(float64(total)/float64(b.N), "msgs/query")
	})
	b.Run("onedim-floor", func(b *testing.B) {
		c := NewCluster(256)
		w, err := NewOneDim(c, benchKeys(0), Options{Seed: 17})
		if err != nil {
			b.Fatal(err)
		}
		rng := xrand.New(18)
		total := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := w.Floor(rng.Uint64n(1<<40), HostID(rng.Intn(256)))
			if err != nil {
				b.Fatal(err)
			}
			total += r.Hops
		}
		b.ReportMetric(float64(total)/float64(b.N), "msgs/query")
	})
	b.Run("points-locate", func(b *testing.B) {
		c := NewCluster(256)
		rng := xrand.New(19)
		raw := experiments.UniformPoints(rng, 2, 2048, 1<<30)
		pts := make([]Point, len(raw))
		for i, p := range raw {
			pts[i] = Point(p)
		}
		w, err := NewPoints(c, 2, pts, Options{Seed: 17})
		if err != nil {
			b.Fatal(err)
		}
		// Pre-generate queries: the Point composite literal would otherwise
		// be charged to the descent.
		qs := make([]Point, 4096)
		for i := range qs {
			qs[i] = Point{uint32(rng.Uint64n(1 << 30)), uint32(rng.Uint64n(1 << 30))}
		}
		total := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loc, err := w.Locate(qs[i%len(qs)], HostID(i%256))
			if err != nil {
				b.Fatal(err)
			}
			total += loc.Hops
		}
		b.ReportMetric(float64(total)/float64(b.N), "msgs/query")
	})
	b.Run("strings-search", func(b *testing.B) {
		c := NewCluster(256)
		rng := xrand.New(20)
		keys := experiments.UniformStrings(rng, 2048, "acgt", 6, 24)
		w, err := NewStrings(c, keys, Options{Seed: 17})
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loc, err := w.Search(keys[i%len(keys)], HostID(i%256))
			if err != nil {
				b.Fatal(err)
			}
			total += loc.Hops
		}
		b.ReportMetric(float64(total)/float64(b.N), "msgs/query")
	})
}

// BenchmarkInsertAllocs measures per-update heap allocations on the
// insert climb (query descent + structural change + hyperlink rewiring).
// Updates still allocate where ownership demands it (stored hyperlink
// slices, level growth), but all per-level scratch is pooled.
func BenchmarkInsertAllocs(b *testing.B) {
	b.Run("blocked", func(b *testing.B) {
		c := NewCluster(256)
		keys := benchKeys(b.N)
		w, err := NewBlocked(c, keys[:benchN], Options{Seed: 23})
		if err != nil {
			b.Fatal(err)
		}
		rng := xrand.New(24)
		total := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h, err := w.Insert(keys[benchN+i], HostID(rng.Intn(256)))
			if err != nil {
				b.Fatal(err)
			}
			total += h
		}
		b.ReportMetric(float64(total)/float64(b.N), "msgs/insert")
	})
	b.Run("blocked-ascending", func(b *testing.B) {
		// The sorted-stream regime of the -mode=bench update row: fresh
		// keys above every stored key, the log-structured fast case.
		c := NewCluster(256)
		keys := benchKeys(0)
		w, err := NewBlocked(c, keys, Options{Seed: 23})
		if err != nil {
			b.Fatal(err)
		}
		next := uint64(1) << 41
		total := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next++
			h, err := w.Insert(next, HostID(i%256))
			if err != nil {
				b.Fatal(err)
			}
			total += h
		}
		b.ReportMetric(float64(total)/float64(b.N), "msgs/insert")
	})
	b.Run("onedim", func(b *testing.B) {
		c := NewCluster(256)
		keys := benchKeys(b.N)
		w, err := NewOneDim(c, keys[:benchN], Options{Seed: 23})
		if err != nil {
			b.Fatal(err)
		}
		rng := xrand.New(24)
		total := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h, err := w.Insert(keys[benchN+i], HostID(rng.Intn(256)))
			if err != nil {
				b.Fatal(err)
			}
			total += h
		}
		b.ReportMetric(float64(total)/float64(b.N), "msgs/insert")
	})
}

// checkAllocCeilings holds each named call to its max_allocs_per_op in
// one section of bench_baseline.json; the section and the calls must name
// the same rows.
func checkAllocCeilings(t *testing.T, section string, calls map[string]func() error) {
	t.Helper()
	raw, err := os.ReadFile("bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base map[string]json.RawMessage
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("bench_baseline.json: %v", err)
	}
	var ceilings []struct {
		Name   string  `json:"name"`
		Allocs float64 `json:"max_allocs_per_op"`
	}
	if err := json.Unmarshal(base[section], &ceilings); err != nil {
		t.Fatalf("bench_baseline.json %s: %v", section, err)
	}
	if len(ceilings) != len(calls) {
		t.Fatalf("bench_baseline.json has %d %s, this test measures %d", len(ceilings), section, len(calls))
	}
	for _, c := range ceilings {
		call, ok := calls[c.Name]
		if !ok {
			t.Fatalf("%s row %q names nothing this test measures", section, c.Name)
		}
		got := testing.AllocsPerRun(200, func() {
			if err := call(); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
		})
		if got > c.Allocs {
			t.Errorf("%s: %.0f allocs/op exceeds ceiling %.0f", c.Name, got, c.Allocs)
		}
	}
}

// TestWireAllocCeilings holds the wire protocol's accounting exchanges to
// the wire_ceilings of bench_baseline.json: one Client.Hop, and one
// counted exchange (SendMsgs + AwaitAck) — the frame a daemon sends per
// charged host per operation. Both sides of the socket are in this
// process, so a count covers the client's write and read and the node's
// read, count and ack.
func TestWireAllocCeilings(t *testing.T) {
	n, err := wire.NewNode(wire.NodeConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Drop()
	cl, err := wire.Dial(0, n.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	checkAllocCeilings(t, "wire_ceilings", map[string]func() error{
		"wire/hop": cl.Hop,
		"wire/counted-exchange": func() error {
			id, err := cl.SendMsgs(9)
			if err != nil {
				return err
			}
			return cl.AwaitAck(id)
		},
	})
	if got := n.Messages(); got == 0 {
		t.Fatal("the measured exchanges charged nothing")
	}
}

// TestTransportAllocCeilings holds the in-process transport's dispatch to
// the transport_ceilings of bench_baseline.json: one Do rendezvous, one
// RunAs to an idle host (what a write-batch op pays when its origin is
// free; a busy origin pays the Do), and one RunBatch over eight origins
// (what a read batch pays per call, worker side included).
func TestTransportAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; the ceilings are for the plain build")
	}
	const hosts = 8
	cl := sim.NewCluster(sim.NewNetwork(hosts))
	defer cl.Stop()
	everyHost := func(i int) sim.HostID { return sim.HostID(i) }
	noop := func() {}
	cl.RunBatch(hosts, everyHost, func(int) {}) // start the lazy workers
	next := 0
	checkAllocCeilings(t, "transport_ceilings", map[string]func() error{
		"sim/do": func() error {
			next++
			return cl.Do(sim.HostID(next%hosts), noop)
		},
		"sim/runas": func() error {
			next++
			return cl.RunAs(sim.HostID(next%hosts), noop)
		},
		"sim/runbatch-per-host": func() error {
			cl.RunBatch(hosts, everyHost, func(int) {})
			return nil
		},
	})
}
