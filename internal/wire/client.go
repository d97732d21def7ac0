package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/skipwebs/skipwebs/internal/sim"
)

// Client is the thin dialer side of the wire protocol: one connection to
// one node, used for named calls (KCall/KReply) and for delivering
// charged model messages (KMsg/KAck). Each Client serializes its
// exchanges under a mutex — request, then matching reply — which keeps
// the protocol trivially in order; callers that want concurrency open
// more clients. The one exchange that comes apart is the counted
// message: SendMsgs writes, AwaitAck reads, so a caller charging several
// hosts writes to all of them before it waits on any.
type Client struct {
	host sim.HostID

	mu     sync.Mutex
	c      net.Conn
	r      *bufio.Reader
	w      frameWriter
	nextID atomic.Uint64

	// timeout bounds each dial and each reply wait; 0 means forever.
	timeout time.Duration
}

// Dial connects to a node at addr, retrying for up to wait (so a client
// can start before its daemon finishes binding). A zero wait tries once.
func Dial(host sim.HostID, addr string, wait time.Duration) (*Client, error) {
	deadline := time.Now().Add(wait)
	var (
		c   net.Conn
		err error
	)
	for {
		c, err = net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return &Client{host: host, c: c, r: bufio.NewReader(c)}, nil
}

// SetTimeout bounds every subsequent exchange (write + reply wait) to d;
// zero or negative restores waiting forever. A deadline expiry surfaces
// as a sim.TimeoutError, the same typed error the in-process transport
// returns for a wedged host.
func (cl *Client) SetTimeout(d time.Duration) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if d < 0 {
		d = 0
	}
	cl.timeout = d
}

// Host returns the host id this client is connected to.
func (cl *Client) Host() sim.HostID { return cl.host }

// Close closes the connection.
func (cl *Client) Close() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.c.Close()
}

// send arms the exchange's deadline and writes one frame, returning the
// id its reply will echo. Caller holds cl.mu.
func (cl *Client) send(kind byte, body []byte) (uint64, error) {
	id := cl.nextID.Add(1)
	if cl.timeout > 0 {
		cl.c.SetDeadline(time.Now().Add(cl.timeout))
	} else {
		cl.c.SetDeadline(time.Time{})
	}
	if err := cl.w.write(cl.c, kind, id, body); err != nil {
		return id, cl.wrapErr(err)
	}
	return id, nil
}

// await reads up to the reply of kind want that echoes id, under the
// deadline send armed. The body follows readFrame's rule: use it before
// the next read. Caller holds cl.mu.
func (cl *Client) await(id uint64, want byte) ([]byte, error) {
	for {
		k, rid, body, err := readFrame(cl.r)
		if err != nil {
			return nil, cl.wrapErr(err)
		}
		if k != want || rid != id {
			// A stale reply from an abandoned exchange; skip it.
			continue
		}
		return body, nil
	}
}

// exchange is one send and the await of its reply. Caller holds cl.mu.
func (cl *Client) exchange(kind byte, body []byte, want byte) ([]byte, error) {
	id, err := cl.send(kind, body)
	if err != nil {
		return nil, err
	}
	return cl.await(id, want)
}

// wrapErr maps a connection error to the transport's typed errors:
// deadline expiry becomes a sim.TimeoutError, anything else (the daemon
// died, the socket reset) a sim.HostDownError.
func (cl *Client) wrapErr(err error) error {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return &sim.TimeoutError{Host: cl.host, After: cl.timeout}
	}
	return &sim.HostDownError{Host: cl.host}
}

// Hop delivers one charged model message: a KMsg frame, acknowledged by
// the receiving node with KAck after it bumps its per-host counter. This
// is the wire realization of one inter-host hop in the paper's cost
// model.
func (cl *Client) Hop() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	_, err := cl.exchange(kMsg, nil, kAck)
	return err
}

// SendMsgs writes one KMsg frame charging count (> 0) messages to the
// node and returns without waiting for the KAck; pass the returned id to
// AwaitAck. The pair is one exchange: no other exchange may run on this
// client between the two calls, or its reply loop would discard the ack.
func (cl *Client) SendMsgs(count uint32) (uint64, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var body [4]byte
	return cl.send(kMsg, countBody(body[:0], count))
}

// AwaitAck waits for the KAck of the SendMsgs that returned id: once it
// returns nil the node has added the count to its counter.
func (cl *Client) AwaitAck(id uint64) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	_, err := cl.await(id, kAck)
	return err
}

// Call invokes the named handler on the node with args marshalled to
// JSON, unmarshalling the reply into reply (which may be nil to discard
// it). A handler error comes back as an error with the handler's text; a
// closed mailbox comes back as a sim.HostDownError.
func (cl *Client) Call(method string, args any, reply any) error {
	ab, err := json.Marshal(args)
	if err != nil {
		return fmt.Errorf("wire: marshal %s args: %w", method, err)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	body, err := cl.exchange(kCall, callBody(method, ab), kReply)
	if err != nil {
		return err
	}
	if len(body) == 0 {
		return fmt.Errorf("wire: %s: empty reply", method)
	}
	switch body[0] {
	case statusOK:
		if reply == nil {
			return nil
		}
		return json.Unmarshal(body[1:], reply)
	case statusHostDown:
		return &sim.HostDownError{Host: cl.host}
	default:
		return fmt.Errorf("wire: %s: %s", method, body[1:])
	}
}
