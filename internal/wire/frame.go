// Package wire is the TCP transport layer: the second implementation of
// the host-execution contract (sim.Transport) and the substrate of the
// skipweb-serve daemon.
//
// Everything rides one frame format — length-prefixed, fixed header,
// kind-tagged:
//
//	uint32 big-endian payload length
//	payload: 1 byte kind | 8 byte big-endian id | body
//
// Frame kinds split into two planes:
//
//   - The accounting plane: a KMsg frame carries a count of charged model
//     messages. The paper's cost model charges every inter-host hop as a
//     message, and its currency is the count, not the envelope: one KMsg
//     frame delivered to a host's listener charges that host the count it
//     carries (an empty body is a count of one), which the receiving Node
//     adds to its counter and acknowledges with KAck. Per-host charged
//     counts are the wire-side numbers the sim-vs-wire parity check diffs
//     bit-for-bit against sim.Network's per-host message counters.
//   - The dispatch plane: KTask/KDone carry closure dispatch for the
//     loopback Transport, KCall/KReply carry named RPCs for the serve
//     daemon, and KClose requests a graceful drain. Dispatch frames are
//     transport envelope and are never counted — mirroring the simulator,
//     where Do/Go dispatch is free and only Op.Visit/Op.Send charge.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Frame kinds. The zero value is invalid so a torn read fails loudly.
const (
	kMsg   = byte(1) // charged model messages; body empty (one) or a u32 count; receiver adds it and KAcks
	kAck   = byte(2) // acknowledgement of a KMsg (id echoed)
	kTask  = byte(3) // closure-dispatch task; body: 1 sync flag byte
	kDone  = byte(4) // sync task completion; body: 1 status byte + error text
	kCall  = byte(5) // named call; body: u16 method length + method + JSON args
	kReply = byte(6) // call reply; body: 1 status byte + JSON result or error text
	kClose = byte(7) // graceful drain request; no body, no reply
)

// KDone/KReply status codes.
const (
	statusOK       = byte(0)
	statusHostDown = byte(1)
	statusError    = byte(2)
)

// maxFrame bounds a frame's payload; anything larger is a protocol error
// (range results over loopback stay far below this).
const maxFrame = 16 << 20

// headerLen is the payload header: kind byte + 8-byte id.
const headerLen = 1 + 8

// appendFrame serializes one frame into buf, which frameWriter reuses
// from frame to frame.
func appendFrame(buf []byte, kind byte, id uint64, body []byte) []byte {
	n := headerLen + len(body)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint64(buf, id)
	return append(buf, body...)
}

// writeFrame writes one frame as a single Write call; the caller holds
// the connection's write lock so concurrent frames never interleave.
func writeFrame(w io.Writer, kind byte, id uint64, body []byte) error {
	var fw frameWriter
	return fw.write(w, kind, id, body)
}

// frameWriter is writeFrame with a buffer kept between frames, for a
// connection that writes many: the owner serializes its writes, so one
// buffer per connection suffices.
type frameWriter struct {
	buf []byte
}

func (fw *frameWriter) write(w io.Writer, kind byte, id uint64, body []byte) error {
	if len(body) > maxFrame-headerLen {
		return fmt.Errorf("wire: frame body %d bytes exceeds limit", len(body))
	}
	fw.buf = appendFrame(fw.buf[:0], kind, id, body)
	_, err := w.Write(fw.buf)
	return err
}

// readFrame reads one frame. A body that fits r's buffer aliases it and
// is valid only until the next read from r — a body-less frame (every
// KAck) or a small one (a counted KMsg, most replies) costs no
// allocation; a larger body is a fresh slice. Callers that keep body
// bytes past the next read copy them.
func readFrame(r *bufio.Reader) (kind byte, id uint64, body []byte, err error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return 0, 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n < headerLen || n > maxFrame {
		return 0, 0, nil, fmt.Errorf("wire: bad frame length %d", n)
	}
	if 4+n <= r.Size() {
		frame, err := r.Peek(4 + n)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("wire: torn frame: %w", err)
		}
		// Discard only advances past the peeked bytes; they stay in
		// place until the next read refills the buffer.
		r.Discard(4 + n)
		return frame[4], binary.BigEndian.Uint64(frame[5:13]), frame[4+headerLen:], nil
	}
	frame, err := r.Peek(4 + headerLen)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("wire: torn frame: %w", err)
	}
	kind, id = frame[4], binary.BigEndian.Uint64(frame[5:13])
	r.Discard(4 + headerLen)
	body = make([]byte, n-headerLen)
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, 0, nil, fmt.Errorf("wire: torn frame: %w", err)
	}
	return kind, id, body, nil
}

// countBody encodes a counted KMsg body.
func countBody(buf []byte, count uint32) []byte {
	return binary.BigEndian.AppendUint32(buf, count)
}

// msgCount decodes a KMsg body: empty is one charged message, four bytes
// a big-endian count. Any other length, or a zero count — a frame that
// charges nothing is never sent — is a protocol error.
func msgCount(body []byte) (int64, error) {
	switch len(body) {
	case 0:
		return 1, nil
	case 4:
		if n := binary.BigEndian.Uint32(body); n > 0 {
			return int64(n), nil
		}
		return 0, fmt.Errorf("wire: message frame with a zero count")
	}
	return 0, fmt.Errorf("wire: message frame with a %d-byte count", len(body))
}

// callBody encodes a KCall body: u16 method length + method + args.
func callBody(method string, args []byte) []byte {
	b := make([]byte, 0, 2+len(method)+len(args))
	b = binary.BigEndian.AppendUint16(b, uint16(len(method)))
	b = append(b, method...)
	return append(b, args...)
}

// splitCallBody decodes a KCall body.
func splitCallBody(body []byte) (method string, args []byte, err error) {
	if len(body) < 2 {
		return "", nil, fmt.Errorf("wire: short call body")
	}
	n := int(binary.BigEndian.Uint16(body))
	if len(body) < 2+n {
		return "", nil, fmt.Errorf("wire: call body shorter than method length %d", n)
	}
	return string(body[2 : 2+n]), body[2+n:], nil
}

// statusBody encodes a KDone/KReply body.
func statusBody(status byte, rest []byte) []byte {
	b := make([]byte, 0, 1+len(rest))
	b = append(b, status)
	return append(b, rest...)
}
