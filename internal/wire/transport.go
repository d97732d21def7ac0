package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/skipwebs/skipwebs/internal/sim"
)

// Loopback is the TCP implementation of the host-execution contract
// (sim.Transport): one Node per host listening on a loopback socket, and
// every Do/Go dispatch crossing the wire as a KTask frame to the target
// host's listener. Closures never serialize — a frame carries only the
// task id, resolved against the in-process registry by the receiving
// node — so scheduling, FIFO ordering, crash semantics, and drain all
// ride real sockets while the work itself stays a function call, exactly
// the contract the simulator provides in-process.
//
// Semantics match sim.Cluster case for case (the conformance suite in
// conformance_test.go pins both): same-host re-entry runs inline, Do on
// a crashed host fails fast with a HostDownError, Do with SetDoTimeout
// set returns a TimeoutError when the host wedges, RemoveHost drains,
// Crash discards, Stop drains everything. Dispatch frames are never
// counted as model messages — as in the simulator, only Op.Visit/Op.Send
// charge — so message accounting is transport-invariant by construction.
type Loopback struct {
	mu    sync.RWMutex // guards nodes/conns/state across host churn
	nodes []*Node
	conns []*tconn
	state []hostState

	tasks   sync.Map // task id -> func(): the closure registry
	pending sync.Map // task id -> *doWait: sync rendezvous in flight
	nextID  atomic.Uint64
	stopped atomic.Bool

	doTimeout atomic.Int64 // ns; 0 = wait forever
}

type hostState int32

const (
	hostLive hostState = iota
	hostRemoved
	hostCrashed
)

// doWait is one blocked Do rendezvous.
type doWait struct {
	host sim.HostID
	ch   chan error // buffered(1); delivered at most once via LoadAndDelete
}

// tconn is the transport's connection to one node: frames are written
// under wmu (FIFO per host), and a reader goroutine dispatches KDone
// frames back to the pending rendezvous.
type tconn struct {
	host sim.HostID
	c    net.Conn
	wmu  sync.Mutex
}

// Loopback is the wire implementation of the host-execution contract.
var _ sim.Transport = (*Loopback)(nil)

// NewLoopback starts h hosts, each a Node on a 127.0.0.1:0 listener,
// and dials one connection per host. Call Stop to release the sockets.
func NewLoopback(h int) (*Loopback, error) {
	if h <= 0 {
		return nil, fmt.Errorf("wire: NewLoopback with non-positive host count %d", h)
	}
	t := &Loopback{}
	for i := 0; i < h; i++ {
		if err := t.spawn(sim.HostID(i)); err != nil {
			t.Stop()
			return nil, err
		}
	}
	return t, nil
}

// spawn starts host h's node and dials it. Caller holds mu (or is the
// only goroutine with access).
func (t *Loopback) spawn(h sim.HostID) error {
	n, err := NewNode(NodeConfig{
		Host:     h,
		Listen:   "127.0.0.1:0",
		Resolver: t.resolve,
	})
	if err != nil {
		return err
	}
	c, err := net.DialTimeout("tcp", n.Addr(), 5*time.Second)
	if err != nil {
		n.Close()
		return err
	}
	tc := &tconn{host: h, c: c}
	t.nodes = append(t.nodes, n)
	t.conns = append(t.conns, tc)
	t.state = append(t.state, hostLive)
	go t.readConn(tc)
	return nil
}

// resolve pops a task from the registry (tasks run at most once).
func (t *Loopback) resolve(id uint64) (func(), bool) {
	v, ok := t.tasks.LoadAndDelete(id)
	if !ok {
		return nil, false
	}
	return v.(func()), true
}

// readConn dispatches completion frames for host tc.host. When the
// connection dies — the host crashed — every rendezvous still pending
// against that host fails fast with the typed host-down error.
func (t *Loopback) readConn(tc *tconn) {
	r := bufio.NewReader(tc.c)
	for {
		kind, id, body, err := readFrame(r)
		if err != nil {
			t.failPending(tc.host, &sim.HostDownError{Host: tc.host})
			return
		}
		if kind != kDone {
			continue // acks of other planes are not expected on this conn
		}
		v, ok := t.pending.LoadAndDelete(id)
		if !ok {
			continue // rendezvous abandoned (timeout); drop the late reply
		}
		w := v.(*doWait)
		switch {
		case len(body) == 0 || body[0] == statusOK:
			w.ch <- nil
		case body[0] == statusHostDown:
			w.ch <- &sim.HostDownError{Host: tc.host}
		default:
			w.ch <- fmt.Errorf("wire: task failed: %s", body[1:])
		}
	}
}

// failPending fails every pending rendezvous against host h with err.
func (t *Loopback) failPending(h sim.HostID, err error) {
	t.pending.Range(func(k, v any) bool {
		w := v.(*doWait)
		if w.host != h {
			return true
		}
		if _, ok := t.pending.LoadAndDelete(k); ok {
			w.ch <- err
		}
		return true
	})
}

// conn returns host h's node, connection and state under the churn lock.
func (t *Loopback) conn(h sim.HostID) (*Node, *tconn, hostState) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nodes[h], t.conns[h], t.state[h]
}

// Do runs fn on host h's worker and blocks until it completes. See the
// sim.Transport contract: same-host re-entry runs inline, a crashed
// host yields a HostDownError, a wedged host yields a TimeoutError when
// SetDoTimeout is configured, and departed or stopped hosts panic.
func (t *Loopback) Do(h sim.HostID, fn func()) error {
	if t.stopped.Load() {
		panic("wire: Loopback.Do after Stop")
	}
	n, tc, st := t.conn(h)
	if n.onWorker() {
		fn()
		return nil
	}
	switch st {
	case hostCrashed:
		return &sim.HostDownError{Host: h}
	case hostRemoved:
		panic(fmt.Sprintf("wire: Loopback.Do to departed host %d", h))
	}
	id := t.nextID.Add(1)
	w := &doWait{host: h, ch: make(chan error, 1)}
	t.tasks.Store(id, fn)
	t.pending.Store(id, w)
	tc.wmu.Lock()
	err := writeFrame(tc.c, kTask, id, []byte{1})
	tc.wmu.Unlock()
	if err != nil {
		// The connection died under us: the host crashed between the
		// state check and the write.
		t.tasks.Delete(id)
		t.pending.Delete(id)
		return &sim.HostDownError{Host: h}
	}
	d := time.Duration(t.doTimeout.Load())
	var expired <-chan time.Time // nil (never ready) without a deadline
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case err = <-w.ch:
	case <-expired:
		// Abandon the rendezvous: a late completion finds no pending
		// entry and is dropped.
		t.pending.Delete(id)
		err = &sim.TimeoutError{Host: h, After: d}
	}
	if err != nil {
		// Withdraw the task. One still queued behind a wedged worker is
		// refused by the node's resolver at dequeue and never runs; one
		// already started keeps running, and one a crash discarded must
		// not stay registered.
		t.tasks.Delete(id)
	}
	return err
}

// Go enqueues fn on host h's worker and returns immediately —
// send-and-continue dispatch over the wire. Panics on crashed,
// departed, or stopped hosts, like the in-process transport.
func (t *Loopback) Go(h sim.HostID, fn func()) {
	if t.stopped.Load() {
		panic("wire: Loopback.Go after Stop")
	}
	_, tc, st := t.conn(h)
	switch st {
	case hostCrashed:
		panic(fmt.Sprintf("wire: Loopback.Go to crashed host %d", h))
	case hostRemoved:
		panic(fmt.Sprintf("wire: Loopback.Go to departed host %d", h))
	}
	id := t.nextID.Add(1)
	t.tasks.Store(id, fn)
	tc.wmu.Lock()
	err := writeFrame(tc.c, kTask, id, []byte{0})
	tc.wmu.Unlock()
	if err != nil {
		t.tasks.Delete(id)
		panic(fmt.Sprintf("wire: Loopback.Go to crashed host %d", h))
	}
}

// RunBatch executes n operations across the cluster, operation i on host
// origin(i)'s worker, grouped into one dispatch per distinct origin —
// the same fan-out discipline (and therefore the same FIFO-per-origin
// ordering) as the in-process transport.
func (t *Loopback) RunBatch(n int, origin func(i int) sim.HostID, run func(i int)) {
	t.mu.RLock()
	hosts := len(t.nodes)
	t.mu.RUnlock()
	groups := make([][]int, hosts)
	for i := 0; i < n; i++ {
		h := origin(i)
		groups[h] = append(groups[h], i)
	}
	var wg sync.WaitGroup
	for h, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		idxs := idxs
		wg.Add(1)
		t.Go(sim.HostID(h), func() {
			defer wg.Done()
			for _, i := range idxs {
				run(i)
			}
		})
	}
	wg.Wait()
}

// SetDoTimeout bounds every subsequent Do rendezvous to d; zero or
// negative restores waiting forever. See sim.Cluster.SetDoTimeout.
func (t *Loopback) SetDoTimeout(d time.Duration) { t.doTimeout.Store(int64(d)) }

// AddHost starts nodes for every host slot up to and including h — the
// wire counterpart of mailbox spin-up on join. It panics if a listener
// cannot be opened (resource exhaustion, not a tolerated failure).
func (t *Loopback) AddHost(h sim.HostID) {
	if t.stopped.Load() {
		panic("wire: Loopback.AddHost after Stop")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for sim.HostID(len(t.nodes)) <= h {
		if err := t.spawn(sim.HostID(len(t.nodes))); err != nil {
			panic(fmt.Sprintf("wire: AddHost(%d): %v", h, err))
		}
	}
}

// RemoveHost drains host h cooperatively: a KClose frame rides the same
// connection as any already-dispatched tasks (FIFO), so everything sent
// before the departure still runs; then the worker exits. Further sends
// to h panic.
func (t *Loopback) RemoveHost(h sim.HostID) {
	t.mu.Lock()
	tc := t.conns[h]
	if t.state[h] == hostLive {
		t.state[h] = hostRemoved
	}
	t.mu.Unlock()
	tc.wmu.Lock()
	writeFrame(tc.c, kClose, 0, nil)
	tc.wmu.Unlock()
}

// Crash tears host h down the unclean way: its node drops (queued tasks
// discarded, listener and connections closed), and every pending Do
// rendezvous against h fails fast with a HostDownError. Further Do
// calls return the same typed error.
func (t *Loopback) Crash(h sim.HostID) {
	t.mu.Lock()
	n := t.nodes[h]
	t.state[h] = hostCrashed
	t.mu.Unlock()
	n.Drop()
	// The dropped connection's reader also fails pending rendezvous on
	// EOF; doing it here as well closes the race where the drop happens
	// between a Do's state check and its frame write.
	t.failPending(h, &sim.HostDownError{Host: h})
}

// Restart revives crashed host h: a brand-new node (fresh listener,
// fresh worker — the wire analogue of restarting the process) takes over
// slot h and the transport dials it, after which Do/Go to h succeed
// again. Tasks discarded by the crash stay discarded. Restart panics
// after Stop, when h was not crashed, or when the new listener cannot be
// opened (resource exhaustion, not a tolerated failure).
func (t *Loopback) Restart(h sim.HostID) {
	if t.stopped.Load() {
		panic("wire: Loopback.Restart after Stop")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state[h] != hostCrashed {
		panic(fmt.Sprintf("wire: Loopback.Restart(%d): host has not crashed", h))
	}
	n, err := NewNode(NodeConfig{
		Host:     h,
		Listen:   "127.0.0.1:0",
		Resolver: t.resolve,
	})
	if err != nil {
		panic(fmt.Sprintf("wire: Restart(%d): %v", h, err))
	}
	c, err := net.DialTimeout("tcp", n.Addr(), 5*time.Second)
	if err != nil {
		n.Close()
		panic(fmt.Sprintf("wire: Restart(%d): dial: %v", h, err))
	}
	t.conns[h].c.Close() // the dead node's dialer socket, if not already gone
	tc := &tconn{host: h, c: c}
	t.nodes[h] = n
	t.conns[h] = tc
	t.state[h] = hostLive
	go t.readConn(tc)
}

// Stopped reports whether Stop has been called.
func (t *Loopback) Stopped() bool { return t.stopped.Load() }

// WorkersStarted reports the number of live nodes. The wire transport
// spawns eagerly — every host gets a listener and a worker at AddHost
// time — so unlike the in-process cluster's lazy count this equals the
// number of hosts that have joined and not been removed or crashed.
func (t *Loopback) WorkersStarted() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, s := range t.state {
		if s == hostLive {
			n++
		}
	}
	return n
}

// Stop shuts every host down, draining already-dispatched tasks first
// (the KClose frame is FIFO with them), waits for the workers to exit,
// and releases every socket.
func (t *Loopback) Stop() {
	if t.stopped.Swap(true) {
		return
	}
	t.mu.Lock()
	nodes := append([]*Node(nil), t.nodes...)
	conns := append([]*tconn(nil), t.conns...)
	state := append([]hostState(nil), t.state...)
	t.mu.Unlock()
	for i, tc := range conns {
		if state[i] == hostLive {
			tc.wmu.Lock()
			writeFrame(tc.c, kClose, 0, nil)
			tc.wmu.Unlock()
		}
	}
	for i, n := range nodes {
		if state[i] == hostCrashed {
			continue // Drop already tore this node down
		}
		<-n.Done()
		n.Close()
	}
	for _, tc := range conns {
		tc.c.Close()
	}
}
