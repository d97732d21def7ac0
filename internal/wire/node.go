package wire

import (
	"bufio"
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"

	"github.com/skipwebs/skipwebs/internal/sim"
)

// Handler is one registered RPC of a Node: the unit a host exports to
// the network. The skipweb-serve daemon registers its shard's operations
// (floor, insert, delete, ...) as handlers; args and the result are JSON.
type Handler func(args json.RawMessage) (any, error)

// Node is one host's endpoint on the wire: a TCP listener whose inbound
// frames feed a single worker goroutine draining an unbounded mailbox —
// the same actor discipline as a sim.Cluster host, with the mailbox fed
// by sockets instead of method calls. Charged model messages (the counts
// KMsg frames carry) are summed per node and acknowledged by the
// connection reader without involving the worker, so accounting never
// deadlocks behind a busy actor.
type Node struct {
	host sim.HostID
	ln   net.Listener

	// resolver maps a KTask id to its closure — the in-process task
	// registry of the loopback Transport. Nil for a serve daemon, which
	// dispatches named handlers only.
	resolver func(id uint64) (func(), bool)
	// handlers are the named RPCs this host serves (KCall frames).
	handlers map[string]Handler
	// busy is raised by the worker around each task and gid is the
	// worker's goroutine id (sim.Goid), written once before the first
	// task; see onWorker.
	busy atomic.Bool
	gid  uint64

	msgs   atomic.Int64 // charged messages: the counts of received KMsg frames plus AddMessages
	frames atomic.Int64 // KMsg frames received

	mu      sync.Mutex
	queue   []ntask
	wake    chan struct{}
	closed  bool
	dropped bool
	// tearing is set once teardown has begun: a connection Accept hands
	// back after that point is closed instead of served, because teardown
	// has already taken its snapshot of conns and would never close it.
	tearing bool
	conns   map[net.Conn]struct{}

	done     chan struct{} // closed when the worker exits
	acceptWg sync.WaitGroup
}

// ntask is one mailbox entry: the work plus its completion reply.
type ntask struct {
	run   func()
	reply func() // nil for send-and-continue tasks
}

// NodeConfig configures a Node.
type NodeConfig struct {
	Host     sim.HostID
	Listen   string // e.g. "127.0.0.1:0"
	Resolver func(id uint64) (func(), bool)
	Handlers map[string]Handler
}

// NewNode opens the listener and starts the accept loop and the worker
// goroutine. Call Close (graceful drain) or Drop (crash) when done.
func NewNode(cfg NodeConfig) (*Node, error) {
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	n := &Node{
		host:     cfg.Host,
		ln:       ln,
		resolver: cfg.Resolver,
		handlers: cfg.Handlers,
		wake:     make(chan struct{}, 1),
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	go n.worker()
	n.acceptWg.Add(1)
	go n.accept()
	return n, nil
}

// Host returns the node's host id.
func (n *Node) Host() sim.HostID { return n.host }

// Addr returns the listener's address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Messages returns the number of charged model messages delivered to
// this node — the wire-side counterpart of sim.Network.Messages(host).
func (n *Node) Messages() int64 { return n.msgs.Load() }

// Frames returns the number of KMsg frames that carried those messages
// here: what the accounting plane cost in socket exchanges, where
// Messages is what it counted.
func (n *Node) Frames() int64 { return n.frames.Load() }

// AddMessages charges count messages to this node with no frame at all:
// a message whose sender and destination are the same host never
// crosses a socket.
func (n *Node) AddMessages(count int64) { n.msgs.Add(count) }

// ResetMessages zeroes the charged-message and frame counters, mirroring
// sim.Network.ResetTraffic for the replay harness.
func (n *Node) ResetMessages() {
	n.msgs.Store(0)
	n.frames.Store(0)
}

// Done is closed when the worker goroutine has exited (mailbox drained
// after Close, or discarded after Drop).
func (n *Node) Done() <-chan struct{} { return n.done }

// onWorker reports whether the calling goroutine is this node's worker —
// how a transport detects same-host re-entry. Only a worker that is
// mid-task can be the caller, so an idle node answers without the stack
// parse sim.Goid costs.
func (n *Node) onWorker() bool { return n.busy.Load() && n.gid == sim.Goid() }

// put enqueues t, reporting false when the mailbox is closed.
func (n *Node) put(t ntask) bool {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return false
	}
	n.queue = append(n.queue, t)
	n.mu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
	return true
}

// worker drains the mailbox serially — all host state is touched from
// exactly this goroutine, the actor discipline of a message-passing node.
func (n *Node) worker() {
	defer close(n.done)
	n.gid = sim.Goid()
	for {
		n.mu.Lock()
		if len(n.queue) > 0 {
			t := n.queue[0]
			n.queue[0] = ntask{}
			n.queue = n.queue[1:]
			n.mu.Unlock()
			n.busy.Store(true)
			t.run()
			n.busy.Store(false)
			if t.reply != nil {
				t.reply()
			}
			continue
		}
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return
		}
		<-n.wake
	}
}

// accept hands each inbound connection to a reader goroutine.
func (n *Node) accept() {
	defer n.acceptWg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed by Close/Drop
		}
		n.mu.Lock()
		if n.dropped || n.tearing {
			n.mu.Unlock()
			c.Close()
			continue
		}
		n.conns[c] = struct{}{}
		n.mu.Unlock()
		n.acceptWg.Add(1)
		go n.serveConn(c)
	}
}

// serveConn reads frames off one connection. KMsg is counted and acked
// inline (the accounting plane never waits on the worker); dispatch
// frames enqueue on the mailbox and reply from the worker when done. A
// frame that does not parse is a protocol error and drops the connection.
func (n *Node) serveConn(c net.Conn) {
	defer n.acceptWg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.conns, c)
		n.mu.Unlock()
		c.Close()
	}()
	var wmu sync.Mutex // serializes reader acks with worker replies
	var fw frameWriter // every write on c goes through it, under wmu
	r := bufio.NewReader(c)
	for {
		kind, id, body, err := readFrame(r)
		if err != nil {
			return
		}
		switch kind {
		case kMsg:
			count, err := msgCount(body)
			if err != nil {
				return
			}
			n.msgs.Add(count)
			n.frames.Add(1)
			wmu.Lock()
			err = fw.write(c, kAck, id, nil)
			wmu.Unlock()
			if err != nil {
				return
			}
		case kTask:
			isSync := len(body) > 0 && body[0] != 0
			// The id is resolved on the worker, at dequeue: a task whose
			// sender withdrew it from the registry while it queued (a Do
			// that timed out) never runs. An unknown task — or no resolver
			// — fails a waiting sync sender rather than leave it hanging.
			status, msg := statusError, []byte("wire: unknown task")
			t := ntask{run: func() {
				if n.resolver == nil {
					return
				}
				if fn, ok := n.resolver(id); ok {
					fn()
					status, msg = statusOK, nil
				}
			}}
			if isSync {
				t.reply = func() {
					wmu.Lock()
					defer wmu.Unlock()
					fw.write(c, kDone, id, statusBody(status, msg))
				}
			}
			if !n.put(t) {
				if isSync {
					wmu.Lock()
					fw.write(c, kDone, id, statusBody(statusHostDown, nil))
					wmu.Unlock()
				}
			}
		case kCall:
			method, args, err := splitCallBody(body)
			reply := func(status byte, rest []byte) {
				wmu.Lock()
				defer wmu.Unlock()
				fw.write(c, kReply, id, statusBody(status, rest))
			}
			if err != nil {
				reply(statusError, []byte(err.Error()))
				continue
			}
			h, ok := n.handlers[method]
			if !ok {
				reply(statusError, []byte("wire: unknown method "+method))
				continue
			}
			// args aliases the read buffer and the handler runs later, on
			// the worker.
			argsCopy := json.RawMessage(append([]byte(nil), args...))
			var res any
			var herr error
			t := ntask{
				run:   func() { res, herr = h(argsCopy) },
				reply: func() { replyResult(reply, res, herr) },
			}
			if !n.put(t) {
				reply(statusHostDown, nil)
			}
		case kClose:
			n.closeMailbox()
		default:
			return // protocol error: drop the connection
		}
	}
}

// replyResult encodes a handler outcome as a KReply body.
func replyResult(reply func(status byte, rest []byte), res any, herr error) {
	if herr != nil {
		reply(statusError, []byte(herr.Error()))
		return
	}
	b, err := json.Marshal(res)
	if err != nil {
		reply(statusError, []byte("wire: marshal reply: "+err.Error()))
		return
	}
	reply(statusOK, b)
}

// closeMailbox marks the mailbox closed and wakes the worker; queued
// tasks still drain before the worker exits.
func (n *Node) closeMailbox() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// Close shuts the node down gracefully: the mailbox stops accepting new
// tasks, already-enqueued tasks drain, the worker exits, and the
// listener and connections close. Note tasks still in flight on a
// socket when Close is called are not drained — senders that need the
// drain guarantee send a KClose frame (FIFO with their tasks) before
// calling Close, as the loopback Transport does.
func (n *Node) Close() {
	n.closeMailbox()
	<-n.done
	n.teardown()
}

// Drop tears the node down the unclean way — a crash: queued tasks are
// discarded, connections close immediately (failing senders' pending
// rendezvous), and the counter state is left as it was at death.
func (n *Node) Drop() {
	n.mu.Lock()
	n.dropped = true
	n.closed = true
	n.queue = nil
	n.mu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
	n.teardown()
}

// teardown closes the listener and all connections and waits for the
// accept and reader goroutines.
func (n *Node) teardown() {
	n.ln.Close()
	n.mu.Lock()
	n.tearing = true
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	n.acceptWg.Wait()
}
