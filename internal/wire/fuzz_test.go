package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// frameBytes is one serialized frame whose length field may lie: length
// < 0 writes the true length.
func frameBytes(kind byte, id uint64, body []byte, length int) []byte {
	b := appendFrame(nil, kind, id, body)
	if length >= 0 {
		binary.BigEndian.PutUint32(b, uint32(length))
	}
	return b
}

// chargedBy is the fuzz target's model of Node.serveConn, written against
// the frame format rather than the decoder: how many messages a byte
// stream charges before the node drops the connection (or the stream
// ends).
func chargedBy(data []byte) int64 {
	var charged int64
	for {
		if len(data) < 4 {
			return charged
		}
		n := int(binary.BigEndian.Uint32(data))
		if n < headerLen || n > maxFrame || len(data) < 4+n {
			return charged
		}
		kind, body := data[4], data[4+headerLen:4+n]
		data = data[4+n:]
		switch kind {
		case kMsg:
			switch {
			case len(body) == 0:
				charged++
			case len(body) == 4 && binary.BigEndian.Uint32(body) > 0:
				charged += int64(binary.BigEndian.Uint32(body))
			default:
				return charged
			}
		case kTask, kCall, kClose:
		default:
			return charged
		}
	}
}

// FuzzReadFrame throws arbitrary bytes at the two places they cross the
// trust boundary. The decoder — readFrame, then splitCallBody or msgCount
// on what it returns — must reject or accept without panicking, and must
// read the same frames whether a body fits the read buffer (aliased) or
// not (allocated). And a live Node fed the same bytes over a socket must
// move its charged-message counter by exactly the counts the well-formed
// KMsg frames before the first protocol error carry, and its frame counter
// by no more than that.
func FuzzReadFrame(f *testing.F) {
	count := func(n uint32) []byte { return countBody(nil, n) }
	for _, seed := range [][]byte{
		nil,
		{0, 0},                                   // short read inside the length
		frameBytes(kMsg, 1, nil, -1)[:7],         // short read inside the header
		frameBytes(kMsg, 1, nil, headerLen-1),    // length < header
		frameBytes(kMsg, 1, nil, 0),              // length 0
		frameBytes(kMsg, 1, nil, maxFrame+1),     // length > 16 MiB
		frameBytes(kCall, 1, nil, maxFrame),      // the largest length, torn
		frameBytes(kMsg, 1, nil, -1),             // one message
		frameBytes(kMsg, 2, count(13), -1),       // a counted frame
		frameBytes(kMsg, 3, []byte{1}, -1),       // 1-byte count
		frameBytes(kMsg, 4, []byte{0, 0, 1}, -1), // 3-byte count
		frameBytes(kMsg, 5, make([]byte, 5), -1), // 5-byte count
		frameBytes(kMsg, 6, count(0), -1),        // count 0
		frameBytes(kMsg, 7, count(0xFFFFFFFF), -1),
		append(frameBytes(kMsg, 8, count(3), -1), frameBytes(kMsg, 9, nil, -1)...),
		append(frameBytes(kMsg, 10, count(2), -1), frameBytes(kAck, 10, nil, -1)...), // a reply kind drops the conn
		frameBytes(kCall, 11, callBody("floor", []byte(`{"Q":1}`)), -1),
		frameBytes(kCall, 12, []byte{0}, -1),               // call body shorter than its length field
		frameBytes(kCall, 13, []byte{0xFF, 0xFF, 'x'}, -1), // method length past the body
		frameBytes(kCall, 14, make([]byte, 8<<10), -1),     // a body larger than the read buffer
		frameBytes(kTask, 15, []byte{1}, -1),               // sync task nobody registered
		append(frameBytes(kClose, 0, nil, -1), frameBytes(kMsg, 16, nil, -1)...),
	} {
		f.Add(seed)
	}

	n, err := NewNode(NodeConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		f.Fatalf("NewNode: %v", err)
	}
	f.Cleanup(n.Drop)

	f.Fuzz(func(t *testing.T, data []byte) {
		type frame struct {
			kind byte
			id   uint64
			body []byte
		}
		decode := func(r *bufio.Reader) (frames []frame) {
			for {
				kind, id, body, err := readFrame(r)
				if err != nil {
					return frames
				}
				switch kind {
				case kCall:
					if method, args, err := splitCallBody(body); err == nil && 2+len(method)+len(args) != len(body) {
						t.Fatalf("splitCallBody(%d bytes) = %d-byte method + %d-byte args", len(body), len(method), len(args))
					}
				case kMsg:
					if c, err := msgCount(body); err == nil && c < 1 {
						t.Fatalf("msgCount(%x) = %d", body, c)
					}
				}
				frames = append(frames, frame{kind, id, append([]byte(nil), body...)})
			}
		}
		aliased := decode(bufio.NewReader(bytes.NewReader(data)))
		copied := decode(bufio.NewReaderSize(bytes.NewReader(data), 16)) // 16 is bufio's minimum: only body-less frames fit
		if len(aliased) != len(copied) {
			t.Fatalf("read %d frames through a large buffer, %d through a small one", len(aliased), len(copied))
		}
		for i := range aliased {
			if a, c := aliased[i], copied[i]; a.kind != c.kind || a.id != c.id || !bytes.Equal(a.body, c.body) {
				t.Fatalf("frame %d: large buffer read (%d,%d,%x), small buffer (%d,%d,%x)", i, a.kind, a.id, a.body, c.kind, c.id, c.body)
			}
		}

		msgs, frames := n.Messages(), n.Frames()
		c, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		// Write, half-close, then drain replies to EOF: the node closes its
		// side only once it has read everything or given up on the stream.
		// A write or read cut short by the node dropping the connection is
		// the expected outcome of a protocol error, not a failure.
		written := make(chan struct{})
		go func() {
			defer close(written)
			c.Write(data)
			c.(*net.TCPConn).CloseWrite()
		}()
		io.Copy(io.Discard, c)
		<-written
		want := chargedBy(data)
		if got := n.Messages() - msgs; got != want {
			t.Fatalf("node charged %d messages, the stream carries %d", got, want)
		}
		if got := n.Frames() - frames; got < 0 || got > want {
			t.Fatalf("node counted %d frames for %d messages", got, want)
		}
	})
}
