package wire

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/skipwebs/skipwebs/internal/sim"
)

// The transport-conformance suite: one table of behavioral cases run
// against BOTH implementations of sim.Transport — the in-process
// simulator cluster and the loopback TCP transport. Any divergence in
// the host-execution contract (ordering, re-entry, crash semantics,
// drain, timeout) fails here before it can skew an experiment.

const confHosts = 4

func implementations(t *testing.T) map[string]func() sim.Transport {
	return map[string]func() sim.Transport{
		"sim": func() sim.Transport {
			return sim.NewCluster(sim.NewNetwork(confHosts))
		},
		"wire": func() sim.Transport {
			tr, err := NewLoopback(confHosts)
			if err != nil {
				t.Fatalf("NewLoopback: %v", err)
			}
			return tr
		},
	}
}

func forEachTransport(t *testing.T, run func(t *testing.T, tr sim.Transport)) {
	for name, mk := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			defer tr.Stop()
			run(t, tr)
		})
	}
}

func TestConformanceDoRuns(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr sim.Transport) {
		var ran atomic.Bool
		if err := tr.Do(1, func() { ran.Store(true) }); err != nil {
			t.Fatalf("Do: %v", err)
		}
		if !ran.Load() {
			t.Fatal("Do returned before fn ran")
		}
	})
}

func TestConformanceFIFOPerSender(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr sim.Transport) {
		var mu sync.Mutex
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			tr.Go(2, func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
		// A sync Do from the same sender lands behind the Gos.
		if err := tr.Do(2, func() {}); err != nil {
			t.Fatalf("Do: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(order) != 10 {
			t.Fatalf("got %d tasks, want 10", len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("order[%d] = %d; tasks reordered: %v", i, v, order)
			}
		}
	})
}

func TestConformanceSameHostInlineReentry(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr sim.Transport) {
		var inner atomic.Bool
		err := tr.Do(3, func() {
			// From host 3's worker, Do(3, ...) must run inline — a
			// dispatch would deadlock the single worker against itself.
			if err := tr.Do(3, func() { inner.Store(true) }); err != nil {
				t.Errorf("inner Do: %v", err)
			}
		})
		if err != nil {
			t.Fatalf("outer Do: %v", err)
		}
		if !inner.Load() {
			t.Fatal("inline re-entry did not run")
		}
	})
}

// TestConformanceNestedReentry pins inline re-entry two levels deep, and
// on the fresh worker (fresh goroutine id) a Restart gives a crashed host.
func TestConformanceNestedReentry(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr sim.Transport) {
		nested := func() (depth int) {
			err := tr.Do(3, func() {
				depth++
				if err := tr.Do(3, func() {
					depth++
					if err := tr.Do(3, func() { depth++ }); err != nil {
						t.Errorf("innermost Do: %v", err)
					}
				}); err != nil {
					t.Errorf("inner Do: %v", err)
				}
			})
			if err != nil {
				t.Fatalf("outer Do: %v", err)
			}
			return depth
		}
		if got := nested(); got != 3 {
			t.Fatalf("nested re-entry ran %d of 3 levels", got)
		}
		tr.Crash(3)
		tr.Restart(3)
		if got := nested(); got != 3 {
			t.Fatalf("after restart: nested re-entry ran %d of 3 levels", got)
		}
	})
}

// TestConformanceBusyHostQueuesOutsiders pins the other side of re-entry:
// a Do aimed at a host whose worker is mid-task, from a goroutine that is
// not that worker, must not be mistaken for re-entry — it queues behind
// the running task, FIFO with its sender's earlier sends.
func TestConformanceBusyHostQueuesOutsiders(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr sim.Transport) {
		block := make(chan struct{})
		entered := make(chan struct{})
		var midTask atomic.Bool
		tr.Go(1, func() {
			midTask.Store(true)
			close(entered)
			<-block
			midTask.Store(false)
		})
		<-entered

		var order []int // touched only by host 1's tasks, then read after the Do returns
		step := func(i int) func() {
			return func() {
				if midTask.Load() {
					t.Errorf("task %d ran while host 1's worker was mid-task", i)
				}
				order = append(order, i)
			}
		}
		sent := make(chan error, 1)
		go func() {
			tr.Go(1, step(1))
			sent <- tr.Do(1, step(2))
		}()
		select {
		case err := <-sent:
			t.Fatalf("Do on a busy host returned (%v) before the running task finished", err)
		case <-time.After(50 * time.Millisecond):
		}
		close(block)
		if err := <-sent; err != nil {
			t.Fatalf("Do: %v", err)
		}
		if len(order) != 2 || order[0] != 1 || order[1] != 2 {
			t.Fatalf("tasks behind a busy worker ran as %v, want [1 2]", order)
		}
	})
}

// TestConformanceMutualExclusion is the actor contract under load: many
// senders, every task re-entering its own host once, and a plain counter
// per host that only that host's worker may touch. Exact totals mean no
// task ever ran beside another of its host; -race sees the rest.
func TestConformanceMutualExclusion(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr sim.Transport) {
		const senders, perSender = 8, 2000
		var counts [confHosts]int
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					h := sim.HostID((g + i) % confHosts)
					err := tr.Do(h, func() {
						counts[h]++
						if err := tr.Do(h, func() { counts[h]++ }); err != nil {
							t.Errorf("nested Do(%d): %v", h, err)
						}
					})
					if err != nil {
						t.Errorf("Do(%d): %v", h, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for h, got := range counts {
			if want := 2 * senders * perSender / confHosts; got != want {
				t.Fatalf("host %d counted %d, want %d", h, got, want)
			}
		}
	})
}

func TestConformanceCrashFailsFast(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr sim.Transport) {
		// Wedge host 1's worker so the victim Do queues behind it.
		block := make(chan struct{})
		entered := make(chan struct{})
		tr.Go(1, func() {
			close(entered)
			<-block
		})
		<-entered

		victim := make(chan error, 1)
		go func() {
			victim <- tr.Do(1, func() {})
		}()
		// Give the victim time to enqueue behind the blocker.
		time.Sleep(50 * time.Millisecond)
		tr.Crash(1)

		select {
		case err := <-victim:
			if !errors.Is(err, sim.ErrHostDown) {
				t.Fatalf("queued Do after crash: got %v, want ErrHostDown", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued Do did not fail fast after crash")
		}
		// A fresh Do against the crashed host fails immediately too.
		if err := tr.Do(1, func() {}); !errors.Is(err, sim.ErrHostDown) {
			t.Fatalf("post-crash Do: got %v, want ErrHostDown", err)
		}
		close(block)
	})
}

func TestConformanceDoTimeout(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr sim.Transport) {
		// A deliberately stalled handler wedges host 2's worker.
		block := make(chan struct{})
		entered := make(chan struct{})
		tr.Go(2, func() {
			close(entered)
			<-block
		})
		<-entered

		tr.SetDoTimeout(100 * time.Millisecond)
		start := time.Now()
		err := tr.Do(2, func() {})
		if !errors.Is(err, sim.ErrTimeout) {
			t.Fatalf("Do on wedged host: got %v, want ErrTimeout", err)
		}
		var te *sim.TimeoutError
		if !errors.As(err, &te) || te.Host != 2 {
			t.Fatalf("timeout error carries wrong host: %v", err)
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("timeout took %v, want ~100ms", elapsed)
		}
		// Clearing the timeout restores wait-forever for healthy hosts.
		tr.SetDoTimeout(0)
		if err := tr.Do(3, func() {}); err != nil {
			t.Fatalf("Do after clearing timeout: %v", err)
		}
		close(block)
	})
}

// TestConformanceTimedOutTaskIsCancelled pins what a deadline does to the
// task: one still queued when its Do times out never runs, even after
// the host unwedges.
func TestConformanceTimedOutTaskIsCancelled(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr sim.Transport) {
		block := make(chan struct{})
		entered := make(chan struct{})
		tr.Go(2, func() {
			close(entered)
			<-block
		})
		<-entered

		tr.SetDoTimeout(50 * time.Millisecond)
		var ran atomic.Bool
		if err := tr.Do(2, func() { ran.Store(true) }); !errors.Is(err, sim.ErrTimeout) {
			t.Fatalf("Do on wedged host: got %v, want ErrTimeout", err)
		}
		tr.SetDoTimeout(0)
		close(block)
		// FIFO per sender: once this Do returns, host 2 has dequeued the
		// timed-out task.
		if err := tr.Do(2, func() {}); err != nil {
			t.Fatalf("Do after unwedging: %v", err)
		}
		if ran.Load() {
			t.Fatal("a task whose Do had timed out ran once the host unwedged")
		}
	})
}

func TestConformanceDrainOnStop(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr sim.Transport) {
		var ran atomic.Int64
		for h := 0; h < confHosts; h++ {
			for i := 0; i < 25; i++ {
				tr.Go(sim.HostID(h), func() { ran.Add(1) })
			}
		}
		tr.Stop()
		if got := ran.Load(); got != 100 {
			t.Fatalf("Stop drained %d of 100 queued tasks", got)
		}
		if !tr.Stopped() {
			t.Fatal("Stopped() false after Stop")
		}
	})
}

func TestConformanceRunBatch(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr sim.Transport) {
		const n = 40
		ran := make([]atomic.Bool, n)
		var mu sync.Mutex
		perOrigin := make(map[sim.HostID][]int)
		tr.RunBatch(n,
			func(i int) sim.HostID { return sim.HostID(i % confHosts) },
			func(i int) {
				ran[i].Store(true)
				h := sim.HostID(i % confHosts)
				mu.Lock()
				perOrigin[h] = append(perOrigin[h], i)
				mu.Unlock()
			})
		for i := range ran {
			if !ran[i].Load() {
				t.Fatalf("RunBatch skipped operation %d", i)
			}
		}
		// Within one origin, operations run in submission order.
		for h, idxs := range perOrigin {
			for j := 1; j < len(idxs); j++ {
				if idxs[j] < idxs[j-1] {
					t.Fatalf("origin %d reordered: %v", h, idxs)
				}
			}
		}
	})
}

func TestConformanceRemoveHostDrains(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr sim.Transport) {
		var ran atomic.Int64
		for i := 0; i < 50; i++ {
			tr.Go(3, func() { ran.Add(1) })
		}
		tr.RemoveHost(3)
		tr.Stop()
		if got := ran.Load(); got != 50 {
			t.Fatalf("RemoveHost drained %d of 50 queued tasks", got)
		}
	})
}

// TestConformanceRestartRevives pins the crash/restart cycle on both
// transports: a crashed host fails fast, a restarted one executes work
// again (the wire side re-spawns a real node + connection), and the
// cycle can repeat.
func TestConformanceRestartRevives(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr sim.Transport) {
		for round := 0; round < 2; round++ {
			tr.Crash(2)
			if err := tr.Do(2, func() {}); !errors.Is(err, sim.ErrHostDown) {
				t.Fatalf("round %d: Do on crashed host: got %v, want ErrHostDown", round, err)
			}
			tr.Restart(2)
			var ran atomic.Bool
			if err := tr.Do(2, func() { ran.Store(true) }); err != nil {
				t.Fatalf("round %d: Do after restart: %v", round, err)
			}
			if !ran.Load() {
				t.Fatalf("round %d: restarted host did not execute", round)
			}
		}
		// The revived host still serializes: two async tasks run in order.
		var order []int
		var mu sync.Mutex
		done := make(chan struct{})
		tr.Go(2, func() { mu.Lock(); order = append(order, 1); mu.Unlock() })
		tr.Go(2, func() { mu.Lock(); order = append(order, 2); mu.Unlock(); close(done) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("restarted host stalled")
		}
		mu.Lock()
		defer mu.Unlock()
		if len(order) != 2 || order[0] != 1 || order[1] != 2 {
			t.Fatalf("restarted host ran out of order: %v", order)
		}
	})
}

// TestConformanceRestartPanicsOnLiveHost pins Restart's precondition on
// both transports.
func TestConformanceRestartPanicsOnLiveHost(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr sim.Transport) {
		defer func() {
			if recover() == nil {
				t.Fatal("Restart of a live host did not panic")
			}
		}()
		tr.Restart(1)
	})
}
