package skipwebs

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// TestWireClusterMatchesSim is the public acceptance property of the
// transport abstraction: the same seeded workload on a simulator-backed
// cluster and a TCP-loopback-backed cluster returns identical answers
// with identical accounting. The model charges (messages, hops,
// congestion) live in the Network layer and the Transport only carries
// dispatch, so Stats must be bit-identical across transports.
func TestWireClusterMatchesSim(t *testing.T) {
	const hosts, n, ops = 16, 512, 600
	keys := distinctKeys(xrand.New(7), n)

	cSim := NewCluster(hosts)
	defer cSim.Close()
	wSim, err := NewBlocked(cSim, keys, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cWire, err := NewWireCluster(hosts)
	if err != nil {
		t.Fatalf("NewWireCluster: %v", err)
	}
	defer cWire.Close()
	wWire, err := NewBlocked(cWire, keys, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	rng := xrand.New(3)
	qs := make([]uint64, ops)
	origins := make([]HostID, ops)
	for i := range qs {
		qs[i] = rng.Uint64n(1 << 41)
		origins[i] = HostID(rng.Intn(hosts))
	}

	cSim.ResetTraffic()
	cWire.ResetTraffic()
	want, err := wSim.FloorBatch(qs, origins)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wWire.FloorBatch(qs, origins)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("op %d: wire %+v, sim %+v", i, got[i], want[i])
		}
	}
	if ss, ws := cSim.Stats(), cWire.Stats(); ss != ws {
		t.Fatalf("accounting diverged across transports:\n sim  %+v\n wire %+v", ss, ws)
	}
}

// bothTransports builds a 4-host cluster on each transport.
var bothTransports = map[string]func(t *testing.T) *Cluster{
	"sim": func(t *testing.T) *Cluster { return NewCluster(4) },
	"wire": func(t *testing.T) *Cluster {
		c, err := NewWireCluster(4)
		if err != nil {
			t.Fatalf("NewWireCluster: %v", err)
		}
		return c
	},
}

// TestSetDoTimeoutPublic pins the public per-call deadline: a stalled
// host surfaces the typed, errors.Is-matchable timeout through the
// re-exported error values, on both transports.
func TestSetDoTimeoutPublic(t *testing.T) {
	for name, newCluster := range bothTransports {
		t.Run(name, func(t *testing.T) {
			c := newCluster(t)
			// Deadline set before the worker pool spins up must still
			// apply to the lazily-started transport.
			c.SetDoTimeout(75 * time.Millisecond)
			tr := c.cluster()
			block := make(chan struct{})
			entered := make(chan struct{})
			tr.Go(1, func() { close(entered); <-block })
			<-entered

			err := tr.Do(1, func() {})
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("Do on wedged host: got %v, want ErrTimeout", err)
			}
			var te *TimeoutError
			if !errors.As(err, &te) || te.Host != 1 {
				t.Fatalf("timeout error carries wrong host: %v", err)
			}
			close(block)
			c.Close()
		})
	}
}

// TestTimedOutWriteNeverRuns pins what a deadline means for a write: an
// insert whose dispatch timed out behind a wedged origin reports
// ErrTimeout and is not applied — not then, and not once the origin
// unwedges, when it would run after the call returned, outside the
// cluster lock, writing results the caller already owns.
func TestTimedOutWriteNeverRuns(t *testing.T) {
	for name, newCluster := range bothTransports {
		t.Run(name, func(t *testing.T) {
			c := newCluster(t)
			defer c.Close()
			w, err := NewBlocked(c, distinctKeys(xrand.New(1), 64), Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			const key = 12345
			if found, _, err := w.Contains(key, 0); err != nil || found {
				t.Fatalf("Contains before the insert: %v, %v", found, err)
			}
			c.SetDoTimeout(50 * time.Millisecond)
			tr := c.cluster()
			block := make(chan struct{})
			entered := make(chan struct{})
			tr.Go(3, func() { close(entered); <-block })
			<-entered

			if _, err := w.InsertBatch([]uint64{key}, []HostID{3}); !errors.Is(err, ErrTimeout) {
				t.Fatalf("InsertBatch from a wedged origin: got %v, want ErrTimeout", err)
			}
			c.SetDoTimeout(0)
			close(block)
			// FIFO per sender: when this returns host 3 is past the insert.
			if err := tr.Do(3, func() {}); err != nil {
				t.Fatalf("Do after unwedging: %v", err)
			}
			if found, _, err := w.Contains(key, 0); err != nil || found {
				t.Fatalf("the timed-out insert was applied after its call returned (found %v, err %v)", found, err)
			}
		})
	}
}

// TestStartedWriteTimeoutKeepsResults pins the other half of a write
// deadline: an insert that had already started when its dispatch timed
// out is not interrupted and finishes after InsertBatch has returned,
// but it must not write the hop count or the error the batch returned.
// The insert stalls inside the message-delivery tap, on its first
// charged message; once the deadline has fired it is released and the
// origin drained, and the batch's results must still read as a timeout.
func TestStartedWriteTimeoutKeepsResults(t *testing.T) {
	for name, newCluster := range bothTransports {
		t.Run(name, func(t *testing.T) {
			c := newCluster(t)
			defer c.Close()
			w, err := NewBlocked(c, distinctKeys(xrand.New(1), 64), Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			c.SetDoTimeout(50 * time.Millisecond)
			tr := c.cluster()
			stall := make(chan struct{})
			var once sync.Once
			c.net.SetDeliver(func(sim.HostID) { once.Do(func() { <-stall }) })

			hops, err := w.InsertBatch([]uint64{12345}, []HostID{3})
			var te *TimeoutError
			if !errors.As(err, &te) || te.Host != 3 {
				t.Fatalf("InsertBatch stalled mid-insert: got %v, want a TimeoutError for host 3", err)
			}
			close(stall)
			c.SetDoTimeout(0)
			// FIFO per sender: when this returns host 3 is past the insert.
			if err := tr.Do(3, func() {}); err != nil {
				t.Fatalf("Do after releasing the stall: %v", err)
			}
			c.net.SetDeliver(nil)
			if hops[0] != 0 {
				t.Fatalf("the late insert wrote hops[0] = %d after InsertBatch returned", hops[0])
			}
		})
	}
}
