package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/skipwebs/skipwebs/internal/sim"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		kind byte
		id   uint64
		body []byte
	}{
		{kMsg, 1, nil},
		{kMsg, 2, countBody(nil, 13)},
		{kAck, 1 << 40, nil},
		{kTask, 7, []byte{1}},
		{kDone, 7, statusBody(statusOK, nil)},
		{kCall, 9, callBody("floor", []byte(`{"q":42}`))},
		{kReply, 9, statusBody(statusError, []byte("boom"))},
		{kClose, 0, nil},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		if err := writeFrame(&buf, c.kind, c.id, c.body); err != nil {
			t.Fatalf("writeFrame(%d): %v", c.kind, err)
		}
	}
	r := bufio.NewReader(&buf)
	for _, c := range cases {
		kind, id, body, err := readFrame(r)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if kind != c.kind || id != c.id || !bytes.Equal(body, c.body) {
			t.Fatalf("round trip: got (%d,%d,%q), want (%d,%d,%q)",
				kind, id, body, c.kind, c.id, c.body)
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	if err := writeFrame(&bytes.Buffer{}, kMsg, 0, make([]byte, maxFrame)); err == nil {
		t.Fatal("oversize frame accepted")
	}
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, _, err := readFrame(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversize length accepted on read")
	}
}

func TestCallBodyRoundTrip(t *testing.T) {
	method, args, err := splitCallBody(callBody("insert", []byte(`{"k":1}`)))
	if err != nil {
		t.Fatalf("splitCallBody: %v", err)
	}
	if method != "insert" || string(args) != `{"k":1}` {
		t.Fatalf("got (%q, %q)", method, args)
	}
	if _, _, err := splitCallBody([]byte{0}); err == nil {
		t.Fatal("short body accepted")
	}
	if _, _, err := splitCallBody([]byte{0, 9, 'x'}); err == nil {
		t.Fatal("truncated method accepted")
	}
}

// TestClientNodeRPC exercises the named-call plane end to end: a node
// with handlers, a dialed client, JSON args and replies, handler errors,
// unknown methods, and the KMsg accounting plane.
func TestClientNodeRPC(t *testing.T) {
	n, err := NewNode(NodeConfig{
		Host:   2,
		Listen: "127.0.0.1:0",
		Handlers: map[string]Handler{
			"add": func(args json.RawMessage) (any, error) {
				var in struct{ A, B int }
				if err := json.Unmarshal(args, &in); err != nil {
					return nil, err
				}
				return in.A + in.B, nil
			},
			"fail": func(args json.RawMessage) (any, error) {
				return nil, errors.New("deliberate")
			},
		},
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Drop()

	cl, err := Dial(2, n.Addr(), time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	var sum int
	if err := cl.Call("add", map[string]int{"A": 2, "B": 40}, &sum); err != nil {
		t.Fatalf("Call(add): %v", err)
	}
	if sum != 42 {
		t.Fatalf("add = %d, want 42", sum)
	}
	if err := cl.Call("fail", nil, nil); err == nil || !strings.Contains(err.Error(), "deliberate") {
		t.Fatalf("Call(fail): got %v, want handler error", err)
	}
	if err := cl.Call("nope", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("Call(nope): got %v, want unknown method", err)
	}

	// The accounting plane: each Hop bumps the node's charged counter.
	for i := 0; i < 5; i++ {
		if err := cl.Hop(); err != nil {
			t.Fatalf("Hop: %v", err)
		}
	}
	if got := n.Messages(); got != 5 {
		t.Fatalf("node counted %d messages, want 5", got)
	}
	// A counted frame charges what it carries, in one exchange; written
	// to before waited on, two of them are still acked by id, and the
	// first ack — never awaited — is skipped as stale.
	first, err := cl.SendMsgs(7)
	if err != nil {
		t.Fatalf("SendMsgs: %v", err)
	}
	second, err := cl.SendMsgs(1 << 20)
	if err != nil {
		t.Fatalf("SendMsgs: %v", err)
	}
	if first == second {
		t.Fatalf("two frames share id %d", first)
	}
	if err := cl.AwaitAck(second); err != nil {
		t.Fatalf("AwaitAck: %v", err)
	}
	n.AddMessages(3) // the same-host charge: no frame
	if got, want := n.Messages(), int64(5+7+1<<20+3); got != want {
		t.Fatalf("node counted %d messages, want %d", got, want)
	}
	if got := n.Frames(); got != 7 {
		t.Fatalf("node counted %d frames, want 7 (5 hops + 2 counted)", got)
	}
	n.ResetMessages()
	if got := n.Messages() + n.Frames(); got != 0 {
		t.Fatalf("reset left %d messages + frames", got)
	}

	// A count the format forbids drops the connection uncounted.
	cl.mu.Lock()
	_, err = cl.exchange(kMsg, countBody(nil, 0), kAck)
	cl.mu.Unlock()
	var down *sim.HostDownError
	if !errors.As(err, &down) {
		t.Fatalf("zero-count frame: got %v, want the connection dropped", err)
	}
	if got := n.Messages() + n.Frames(); got != 0 {
		t.Fatalf("zero-count frame moved the counters by %d", got)
	}
}

// TestClientTimeout pins the typed timeout on the client plane: a
// deliberately stalled handler must surface sim.ErrTimeout to a dialer
// with a deadline, not hang it.
func TestClientTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	n, err := NewNode(NodeConfig{
		Host:   0,
		Listen: "127.0.0.1:0",
		Handlers: map[string]Handler{
			"stall": func(args json.RawMessage) (any, error) {
				<-block
				return nil, nil
			},
		},
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Drop()

	cl, err := Dial(0, n.Addr(), time.Second)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	cl.SetTimeout(100 * time.Millisecond)
	err = cl.Call("stall", nil, nil)
	if !errors.Is(err, sim.ErrTimeout) {
		t.Fatalf("stalled call: got %v, want ErrTimeout", err)
	}
}
