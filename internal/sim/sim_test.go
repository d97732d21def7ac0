package sim

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewNetworkPanicsOnZeroHosts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewNetwork(0) did not panic")
		}
	}()
	NewNetwork(0)
}

func TestOpHopAccounting(t *testing.T) {
	n := NewNetwork(4)
	op := n.NewOp(0)
	op.Visit(0) // same host: free
	if op.Hops() != 0 {
		t.Fatalf("same-host visit charged: %d", op.Hops())
	}
	op.Visit(1)
	op.Visit(1)
	op.Visit(2)
	op.Visit(3)
	if op.Hops() != 3 {
		t.Fatalf("hops = %d, want 3", op.Hops())
	}
	if n.TotalMessages() != 3 {
		t.Fatalf("total messages = %d, want 3", n.TotalMessages())
	}
}

func TestOpStartAtNoneFirstVisitFree(t *testing.T) {
	n := NewNetwork(4)
	op := n.NewOp(None)
	op.Visit(2)
	if op.Hops() != 0 {
		t.Fatalf("first placement charged: %d hops", op.Hops())
	}
	op.Visit(3)
	if op.Hops() != 1 {
		t.Fatalf("hops = %d, want 1", op.Hops())
	}
	if op.Current() != 3 {
		t.Fatalf("current = %d, want 3", op.Current())
	}
}

func TestVisitNoneIsNoop(t *testing.T) {
	n := NewNetwork(2)
	op := n.NewOp(0)
	op.Visit(None)
	if op.Hops() != 0 || op.Current() != 0 {
		t.Fatal("Visit(None) changed state")
	}
}

func TestSendChargesWithoutMoving(t *testing.T) {
	n := NewNetwork(3)
	op := n.NewOp(0)
	op.Send(2)
	if op.Hops() != 1 {
		t.Fatalf("hops = %d, want 1", op.Hops())
	}
	if op.Current() != 0 {
		t.Fatalf("Send moved the op to %d", op.Current())
	}
}

func TestStorageAccounting(t *testing.T) {
	n := NewNetwork(3)
	n.AddStorage(0, 10)
	n.AddStorage(1, 4)
	n.AddStorage(0, -3)
	if got := n.Storage(0); got != 7 {
		t.Fatalf("storage(0) = %d, want 7", got)
	}
	s := n.Snapshot()
	if s.MaxStorage != 7 {
		t.Fatalf("max storage = %d, want 7", s.MaxStorage)
	}
	wantMean := (7.0 + 4.0 + 0.0) / 3.0
	if s.MeanStorage != wantMean {
		t.Fatalf("mean storage = %v, want %v", s.MeanStorage, wantMean)
	}
}

func TestSnapshotCongestion(t *testing.T) {
	n := NewNetwork(2)
	op := n.NewOp(0)
	op.Visit(1)
	op.Visit(0)
	op.Visit(1)
	s := n.Snapshot()
	if s.TotalOps != 1 {
		t.Fatalf("total ops = %d", s.TotalOps)
	}
	// Host 1 was touched twice (two arrivals), host 0 twice (start + return).
	if s.MaxCongestion != 2 {
		t.Fatalf("max congestion = %d, want 2", s.MaxCongestion)
	}
}

func TestResetTrafficPreservesStorage(t *testing.T) {
	n := NewNetwork(2)
	n.AddStorage(1, 9)
	op := n.NewOp(0)
	op.Visit(1)
	n.ResetTraffic()
	if n.TotalMessages() != 0 || n.TotalOps() != 0 {
		t.Fatal("traffic not reset")
	}
	if n.Storage(1) != 9 {
		t.Fatal("storage was reset")
	}
}

func TestStorageQuantiles(t *testing.T) {
	n := NewNetwork(4)
	for i, v := range []int{1, 2, 3, 4} {
		n.AddStorage(HostID(i), v)
	}
	qs := n.StorageQuantiles(0.25, 0.5, 1.0)
	if qs[0] != 1 || qs[1] != 2 || qs[2] != 4 {
		t.Fatalf("quantiles = %v, want [1 2 4]", qs)
	}
}

func TestClusterSerializesPerHost(t *testing.T) {
	n := NewNetwork(4)
	c := NewCluster(n)
	defer c.Stop()

	// Many goroutines increment an unguarded counter on host 0; the actor
	// discipline must serialize them (run with -race to verify).
	counter := 0
	var wg sync.WaitGroup
	const workers, each = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Do(0, func() { counter++ })
			}
		}()
	}
	wg.Wait()
	if counter != workers*each {
		t.Fatalf("counter = %d, want %d", counter, workers*each)
	}
}

func TestClusterCrossHostWork(t *testing.T) {
	n := NewNetwork(8)
	c := NewCluster(n)
	defer c.Stop()

	results := make([]int, 8)
	var wg sync.WaitGroup
	for h := 0; h < 8; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			c.Do(HostID(h), func() { results[h] = h * h })
		}(h)
	}
	wg.Wait()
	for h := 0; h < 8; h++ {
		if results[h] != h*h {
			t.Fatalf("host %d result %d", h, results[h])
		}
	}
}

func TestClusterDoSameHostReentry(t *testing.T) {
	// Regression: Do(h, fn) where fn calls Do(h, ...) used to deadlock
	// (the worker waited on a message to itself). Re-entry must run inline
	// on the worker goroutine.
	n := NewNetwork(2)
	c := NewCluster(n)
	defer c.Stop()

	ran := 0
	c.Do(0, func() {
		ran++
		c.Do(0, func() {
			ran++
			c.Do(0, func() { ran++ }) // nested twice for good measure
		})
	})
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}

	// Cross-host nesting from a worker goroutine must still work: host 0's
	// worker synchronously asks host 1 for a value.
	got := 0
	c.Do(0, func() {
		c.Do(1, func() { got = 41 })
		got++
	})
	if got != 42 {
		t.Fatalf("cross-host nested Do got %d, want 42", got)
	}
}

func TestClusterGoAsyncCompletes(t *testing.T) {
	n := NewNetwork(4)
	c := NewCluster(n)
	defer c.Stop()

	var wg sync.WaitGroup
	counters := make([]int, 4)
	const each = 500
	for h := 0; h < 4; h++ {
		for i := 0; i < each; i++ {
			wg.Add(1)
			h := h
			c.Go(HostID(h), func() {
				defer wg.Done()
				counters[h]++ // unguarded: the per-host worker serializes
			})
		}
	}
	wg.Wait()
	for h, got := range counters {
		if got != each {
			t.Fatalf("host %d counter = %d, want %d", h, got, each)
		}
	}
}

func TestClusterStopDrainsAsyncTasks(t *testing.T) {
	n := NewNetwork(2)
	c := NewCluster(n)
	count := 0
	for i := 0; i < 100; i++ {
		c.Go(0, func() { count++ })
	}
	c.Stop() // must drain all 100 enqueued tasks before workers exit
	if count != 100 {
		t.Fatalf("drained %d tasks, want 100", count)
	}
}

func TestClusterGoAfterStopPanics(t *testing.T) {
	c := NewCluster(NewNetwork(1))
	c.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("Go after Stop did not panic")
		}
	}()
	c.Go(0, func() {})
}

func TestClusterRunBatch(t *testing.T) {
	n := NewNetwork(8)
	c := NewCluster(n)
	defer c.Stop()

	const ops = 400
	results := make([]int, ops)
	c.RunBatch(ops,
		func(i int) HostID { return HostID(i % 8) },
		func(i int) { results[i] = i * i })
	for i, r := range results {
		if r != i*i {
			t.Fatalf("op %d result %d, want %d", i, r, i*i)
		}
	}
}

func TestClusterStopIdempotent(t *testing.T) {
	c := NewCluster(NewNetwork(2))
	c.Stop()
	c.Stop() // must not panic or deadlock
}

func TestClusterDoAfterStopPanics(t *testing.T) {
	c := NewCluster(NewNetwork(1))
	c.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("Do after Stop did not panic")
		}
	}()
	c.Do(0, func() {})
}

func TestNetworkChurnLiveTracking(t *testing.T) {
	n := NewNetwork(4)
	if n.LiveHosts() != 4 || n.Hosts() != 4 {
		t.Fatalf("fresh network: live=%d slots=%d", n.LiveHosts(), n.Hosts())
	}
	h := n.AddHost()
	if h != 4 || n.LiveHosts() != 5 || n.Hosts() != 5 {
		t.Fatalf("AddHost: id=%d live=%d slots=%d", h, n.LiveHosts(), n.Hosts())
	}
	n.RemoveHost(2)
	if n.Alive(2) {
		t.Fatal("removed host still alive")
	}
	if n.LiveHosts() != 4 || n.Hosts() != 5 {
		t.Fatalf("after remove: live=%d slots=%d", n.LiveHosts(), n.Hosts())
	}
	want := []HostID{0, 1, 3, 4}
	for i, w := range want {
		if got := n.LiveAt(i); got != w {
			t.Fatalf("LiveAt(%d) = %d, want %d", i, got, w)
		}
	}
	// NextLive wraps cyclically and skips the departed host.
	if got := n.NextLive(1); got != 3 {
		t.Fatalf("NextLive(1) = %d, want 3", got)
	}
	if got := n.NextLive(4); got != 0 {
		t.Fatalf("NextLive(4) = %d, want 0", got)
	}
	// Ids are never reused: a new joiner gets a fresh slot.
	if h2 := n.AddHost(); h2 != 5 {
		t.Fatalf("AddHost after removal = %d, want 5", h2)
	}
}

func TestNetworkRemoveHostPanics(t *testing.T) {
	n := NewNetwork(2)
	n.RemoveHost(0)
	for name, f := range map[string]func(){
		"remove departed":  func() { n.RemoveHost(0) },
		"remove last live": func() { n.RemoveHost(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestOpSurvivesHostRemoval covers the churn edge case of removing the
// host an operation is currently visiting: the departed slot keeps its
// counters, so the op finishes its route and every hop stays counted.
func TestOpSurvivesHostRemoval(t *testing.T) {
	n := NewNetwork(4)
	op := n.NewOp(0)
	op.Visit(2) // op is now parked on host 2
	n.RemoveHost(2)
	op.Visit(3) // move off the departed host: still one charged message
	op.Send(2)  // a straggler message to the departed slot stays counted
	if op.Hops() != 3 {
		t.Fatalf("hops = %d, want 3", op.Hops())
	}
	if n.TotalMessages() != 3 {
		t.Fatalf("total messages = %d, want 3 (history must include departed hosts)", n.TotalMessages())
	}
	s := n.Snapshot()
	if s.Hosts != 3 {
		t.Fatalf("snapshot hosts = %d, want 3 live", s.Hosts)
	}
}

func TestStorageQuantilesSkipDepartedHosts(t *testing.T) {
	n := NewNetwork(4)
	for h := 0; h < 4; h++ {
		n.AddStorage(HostID(h), (h+1)*10)
	}
	n.AddStorage(3, -40) // host 3 drained by migration...
	n.RemoveHost(3)      // ...and departed
	qs := n.StorageQuantiles(0.5, 1.0)
	if qs[0] != 20 || qs[1] != 30 {
		t.Fatalf("quantiles = %v, want [20 30] over live hosts only", qs)
	}
}

// TestClusterHostChurn exercises mailbox spin-up for a joiner and
// drain-on-departure for a leaver.
func TestClusterHostChurn(t *testing.T) {
	n := NewNetwork(2)
	c := NewCluster(n)
	defer c.Stop()
	h := n.AddHost()
	c.AddHost(h)
	ran := false
	c.Do(h, func() { ran = true })
	if !ran {
		t.Fatal("task on joined host did not run")
	}
	// Tasks enqueued before departure drain; sends after it panic.
	var mu sync.Mutex
	count := 0
	for i := 0; i < 8; i++ {
		c.Go(1, func() { mu.Lock(); count++; mu.Unlock() })
	}
	n.RemoveHost(1)
	c.RemoveHost(1)
	c.Do(0, func() {}) // other hosts unaffected
	deadline := make(chan struct{})
	go func() {
		for {
			mu.Lock()
			done := count == 8
			mu.Unlock()
			if done {
				close(deadline)
				return
			}
		}
	}()
	<-deadline
	defer func() {
		if recover() == nil {
			t.Fatal("Go to departed host did not panic")
		}
	}()
	c.Go(1, func() {})
}

func TestSnapshotMeansCoverLiveHostsOnly(t *testing.T) {
	n := NewNetwork(4)
	op := n.NewOp(0)
	for i := 0; i < 100; i++ {
		op.Send(3) // host 3 receives heavy traffic...
	}
	op.Send(1)
	op.Send(2)
	n.RemoveHost(3) // ...then departs
	s := n.Snapshot()
	if s.TotalMessages != 102 {
		t.Fatalf("total = %d, want 102 (history includes departed hosts)", s.TotalMessages)
	}
	if s.MeanMessages != 2.0/3.0 {
		t.Fatalf("mean messages = %v, want 2/3 (live hosts only)", s.MeanMessages)
	}
	if s.MaxMessages != 1 {
		t.Fatalf("max messages = %d, want 1 (live hosts only)", s.MaxMessages)
	}
}

func TestClusterStartedAfterDepartureClosesDeadMailboxes(t *testing.T) {
	n := NewNetwork(3)
	n.RemoveHost(1) // departs before the worker pool starts
	c := NewCluster(n)
	defer c.Stop()
	c.Do(0, func() {}) // live hosts work
	c.Do(2, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Go to pre-departed host did not panic")
		}
	}()
	c.Go(1, func() {})
}

// TestNetworkCrashLosesStorageAndLiveSlot pins the unclean-departure
// semantics: the crashed host leaves the live set, joins the crashed
// set, and its storage counter — the data that died with it — drops to
// zero, while message history is retained like any departed slot.
func TestNetworkCrashLosesStorageAndLiveSlot(t *testing.T) {
	n := NewNetwork(3)
	n.AddStorage(1, 25)
	op := n.NewOp(0)
	op.Send(1)
	n.Crash(1)
	if n.Alive(1) || !n.Crashed(1) {
		t.Fatalf("crashed host: alive=%v crashed=%v", n.Alive(1), n.Crashed(1))
	}
	if n.Crashed(0) || n.Crashed(2) {
		t.Fatal("live hosts marked crashed")
	}
	if n.LiveHosts() != 2 {
		t.Fatalf("live hosts = %d, want 2", n.LiveHosts())
	}
	if st := n.Storage(1); st != 0 {
		t.Fatalf("crashed host storage = %d, want 0 (data lost)", st)
	}
	if n.TotalMessages() != 1 {
		t.Fatal("message history of crashed host must be retained")
	}
	// A cooperative leave, by contrast, is not a crash.
	n.RemoveHost(2)
	if n.Crashed(2) {
		t.Fatal("RemoveHost marked the host crashed")
	}
}

func TestNetworkCrashPanics(t *testing.T) {
	n := NewNetwork(2)
	n.Crash(0)
	for name, f := range map[string]func(){
		"crash crashed host": func() { n.Crash(0) },
		"crash last live":    func() { n.Crash(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestClusterCrashFailsPendingAndFutureDo pins the fail-fast contract:
// a crash drops the mailbox, so tasks already queued behind a blocker
// are discarded with a typed HostDownError, and later Do calls fail the
// same way instead of panicking or hanging.
func TestClusterCrashFailsPendingAndFutureDo(t *testing.T) {
	n := NewNetwork(2)
	c := NewCluster(n)
	defer c.Stop()
	block := make(chan struct{})
	entered := make(chan struct{})
	c.Go(1, func() { close(entered); <-block })
	<-entered // worker 1 is busy; everything below queues behind it
	pending := make(chan error, 1)
	go func() { pending <- c.Do(1, func() { t.Error("dropped task ran") }) }()
	// Wait until the pending rendezvous is actually in the mailbox.
	for {
		c.mailMu.RLock()
		m := c.mail[1]
		c.mailMu.RUnlock()
		m.mu.Lock()
		queued := len(m.queue) > 0
		m.mu.Unlock()
		if queued {
			break
		}
	}
	n.Crash(1)
	c.Crash(1)
	close(block)
	err := <-pending
	var down *HostDownError
	if !errors.As(err, &down) || down.Host != 1 {
		t.Fatalf("pending Do returned %v, want HostDownError{1}", err)
	}
	if !errors.Is(err, ErrHostDown) {
		t.Fatal("HostDownError must match errors.Is(err, ErrHostDown)")
	}
	if err := c.Do(1, func() {}); !errors.Is(err, ErrHostDown) {
		t.Fatalf("Do to crashed host returned %v, want ErrHostDown", err)
	}
	if err := c.Do(0, func() {}); err != nil {
		t.Fatalf("Do to live host after crash: %v", err)
	}
}

// TestClusterStartedAfterCrashDropsDeadMailboxes mirrors the departed-
// slot test for crashes: a pool started after the crash must hand out
// the typed error, not a panic.
func TestClusterStartedAfterCrashDropsDeadMailboxes(t *testing.T) {
	n := NewNetwork(3)
	n.Crash(1)
	c := NewCluster(n)
	defer c.Stop()
	if err := c.Do(0, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := c.Do(1, func() {}); !errors.Is(err, ErrHostDown) {
		t.Fatalf("Do to pre-crashed host returned %v, want ErrHostDown", err)
	}
}

// TestClusterDoTimeout pins the typed per-call deadline: a deliberately
// stalled handler wedges a host's worker, and a Do with SetDoTimeout
// configured must return a TimeoutError instead of blocking forever.
func TestClusterDoTimeout(t *testing.T) {
	n := NewNetwork(2)
	c := NewCluster(n)
	defer c.Stop()
	block := make(chan struct{})
	entered := make(chan struct{})
	c.Go(1, func() { close(entered); <-block })
	<-entered // host 1's worker is now wedged

	c.SetDoTimeout(50 * time.Millisecond)
	err := c.Do(1, func() {})
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("Do on wedged host returned %v, want TimeoutError", err)
	}
	if te.Host != 1 || te.After != 50*time.Millisecond {
		t.Fatalf("TimeoutError fields = %+v", te)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatal("TimeoutError must match errors.Is(err, ErrTimeout)")
	}
	if !te.Timeout() {
		t.Fatal("TimeoutError.Timeout() must report true")
	}

	// Live hosts are unaffected, and clearing the deadline restores the
	// wait-forever default.
	if err := c.Do(0, func() {}); err != nil {
		t.Fatalf("Do on live host under deadline: %v", err)
	}
	c.SetDoTimeout(0)
	close(block)
	if err := c.Do(1, func() {}); err != nil {
		t.Fatalf("Do after unwedging: %v", err)
	}
}

// TestMailboxBacklogStaysBounded pins the queue's reuse of its backing
// array: a mailbox that always holds a small backlog — so the drained
// reset never happens — must slide its pending tasks down, not grow by
// one slot per task ever sent, and must still hand tasks out in order.
// take claims the host for the task it pops, so the loop lowers busy
// after each task, as the worker does.
func TestMailboxBacklogStaysBounded(t *testing.T) {
	m := &mailbox{wake: make(chan struct{}, 1)}
	next, got := 0, -1
	put := func() {
		i := next
		next++
		if !m.put(task{fn: func() { got = i }}) {
			t.Fatal("put on an open mailbox failed")
		}
	}
	put()
	put()
	for want := 0; want < 10000; want++ {
		put()
		tk, ok := m.take()
		if !ok {
			t.Fatal("take on a non-empty mailbox failed")
		}
		if tk.fn(); got != want {
			t.Fatalf("took task %d, want %d", got, want)
		}
		m.busy.Store(false)
	}
	if c := cap(m.queue); c > 16 {
		t.Fatalf("a backlog of 2 grew the queue to %d slots", c)
	}
}

// TestClusterRunAsFollowsQueuedTask pins per-sender FIFO across Go and
// RunAs: a task the sender queued for h earlier runs before the sender's
// RunAs(h, fn), even though no task is executing on h. h's worker is held
// before it can pop — marked started but not yet launched — which holds
// open the window between one task's release and the worker's next pop.
func TestClusterRunAsFollowsQueuedTask(t *testing.T) {
	c := NewCluster(NewNetwork(2))
	defer c.Stop()
	m := c.mail[1]
	m.started.Store(true)
	var order []string
	done := make(chan error, 1)
	go func() {
		c.Go(1, func() { order = append(order, "T") })
		done <- c.RunAs(1, func() { order = append(order, "fn") })
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.mu.Lock()
		queued := len(m.queue) - m.head
		m.mu.Unlock()
		if queued == 2 {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("RunAs returned (%v) while T was still queued; ran %v", err, order)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d tasks queued, want T and the RunAs fallback", queued)
		}
		runtime.Gosched()
	}
	c.mailMu.RLock()
	c.start(m)
	c.mailMu.RUnlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "T" || order[1] != "fn" {
		t.Fatalf("ran %v, want [T fn]", order)
	}
}

// TestClusterRunAsExcludesDoAndGo mixes RunAs, Do and Go from many
// senders over 4 hosts, each bumping an unguarded per-host counter: the
// mailbox lock must serialize inline and worker-run tasks alike, so every
// total is exact (and -race sees no conflicting access).
func TestClusterRunAsExcludesDoAndGo(t *testing.T) {
	const hosts, senders, each = 4, 8, 400
	c := NewCluster(NewNetwork(hosts))
	defer c.Stop()
	counts := make([]int, hosts)
	want := make([]int, hosts)
	var wg, async sync.WaitGroup
	for s := 0; s < senders; s++ {
		for i := 0; i < each; i++ {
			want[(s+i)%hosts]++
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h := HostID((s + i) % hosts)
				bump := func() { counts[h]++ }
				switch (s*each + i) % 3 {
				case 0:
					if err := c.RunAs(h, bump); err != nil {
						t.Error(err)
					}
				case 1:
					if err := c.Do(h, bump); err != nil {
						t.Error(err)
					}
				default:
					async.Add(1)
					c.Go(h, func() { bump(); async.Done() })
				}
			}
		}(s)
	}
	wg.Wait()
	async.Wait()
	for h := range counts {
		if counts[h] != want[h] {
			t.Errorf("host %d counted %d, want %d", h, counts[h], want[h])
		}
	}
}

// TestClusterRunAsWaitsOrTimesOut pins RunAs on a busy host: with no
// deadline it waits for the running task, and with one it is Do — a
// TimeoutError, and its fn never runs.
func TestClusterRunAsWaitsOrTimesOut(t *testing.T) {
	c := NewCluster(NewNetwork(2))
	defer c.Stop()
	wedge := func() (release func()) {
		block, entered := make(chan struct{}), make(chan struct{})
		c.Go(1, func() { close(entered); <-block })
		<-entered
		return func() { close(block) }
	}

	release := wedge()
	ran := false
	returned := make(chan error, 1)
	go func() { returned <- c.RunAs(1, func() { ran = true }) }()
	select {
	case err := <-returned:
		t.Fatalf("RunAs on a busy host returned (%v) before the running task finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-returned; err != nil || !ran {
		t.Fatalf("RunAs after the host freed: err %v, ran %v", err, ran)
	}

	release = wedge()
	c.SetDoTimeout(50 * time.Millisecond)
	var late atomic.Bool
	err := c.RunAs(1, func() { late.Store(true) })
	var te *TimeoutError
	if !errors.As(err, &te) || te.Host != 1 {
		t.Fatalf("RunAs on a wedged host under a deadline returned %v, want TimeoutError{1}", err)
	}
	// Under a deadline an idle host runs fn on its worker, not inline.
	if err := c.RunAs(0, func() {
		if !c.mail[0].onWorker() {
			t.Error("RunAs under a deadline ran inline")
		}
	}); err != nil {
		t.Fatal(err)
	}
	release()
	c.SetDoTimeout(0)
	if err := c.Do(1, func() {}); err != nil { // queued behind the cancelled task
		t.Fatal(err)
	}
	if late.Load() {
		t.Fatal("a timed-out RunAs ran its fn")
	}
}

// TestClusterRunAsCrashedHost: RunAs to a crashed host fails fast with
// the typed error and never runs fn.
func TestClusterRunAsCrashedHost(t *testing.T) {
	n := NewNetwork(2)
	c := NewCluster(n)
	defer c.Stop()
	if err := c.RunAs(1, func() {}); err != nil {
		t.Fatal(err)
	}
	n.Crash(1)
	c.Crash(1)
	err := c.RunAs(1, func() { t.Error("fn ran on a crashed host") })
	var down *HostDownError
	if !errors.As(err, &down) || down.Host != 1 {
		t.Fatalf("RunAs to a crashed host returned %v, want HostDownError{1}", err)
	}
}

// TestClusterRunAsStartsWorkersLazily: RunAs to an idle host runs fn on
// the calling goroutine, and still starts the host's worker, so k hosts
// reached by RunAs alone start exactly k workers.
func TestClusterRunAsStartsWorkersLazily(t *testing.T) {
	c := NewCluster(NewNetwork(64))
	defer c.Stop()
	const k = 5
	caller := goid()
	for round := 0; round < 2; round++ {
		for h := 0; h < k; h++ {
			if err := c.RunAs(HostID(h*7), func() {
				if goid() != caller {
					t.Error("RunAs to an idle host left the calling goroutine")
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := c.WorkersStarted(); got != k {
		t.Fatalf("WorkersStarted = %d after RunAs to %d hosts, want %d", got, k, k)
	}
}
