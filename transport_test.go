package skipwebs

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/skipwebs/skipwebs/internal/sim"
	"github.com/skipwebs/skipwebs/internal/xrand"
)

// TestSetDoTimeoutPublic pins the public per-call deadline: a stalled
// host surfaces the typed, errors.Is-matchable timeout through the
// re-exported error values.
func TestSetDoTimeoutPublic(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		c := NewCluster(4)
		// Deadline set before the worker pool spins up must still
		// apply to the lazily-started worker pool.
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

// TestTimedOutWriteNeverRuns pins what a deadline means for a write: an
// insert whose dispatch timed out behind a wedged origin reports
// ErrTimeout and is not applied — not then, and not once the origin
// unwedges, when it would run after the call returned, outside the
// cluster lock, writing results the caller already owns.
func TestTimedOutWriteNeverRuns(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		c := NewCluster(4)
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

// TestStartedWriteTimeoutKeepsResults pins the other half of a write
// deadline: an insert that had already started when its dispatch timed
// out is not interrupted and finishes after InsertBatch has returned,
// but it must not write the hop count or the error the batch returned.
// The insert stalls inside the message-delivery tap, on its first
// charged message; once the deadline has fired it is released and the
// origin drained, and the batch's results must still read as a timeout.
func TestStartedWriteTimeoutKeepsResults(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		c := NewCluster(4)
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
