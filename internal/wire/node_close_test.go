package wire

import (
	"net"
	"testing"
	"time"
)

// TestNodeCloseWhileDialing is the regression for a Close that never
// returned: a connection Accept handed back after teardown had taken its
// snapshot of the open connections was registered and served but never
// closed, so the wait for the reader goroutines blocked forever. A dialer
// hammers the listener and keeps every connection it gets open — only the
// node can end them — while the node closes.
func TestNodeCloseWhileDialing(t *testing.T) {
	for round := 0; round < 200; round++ {
		n, err := NewNode(NodeConfig{Host: 0, Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		addr := n.Addr()
		first := make(chan struct{})
		stop := make(chan struct{})
		dialed := make(chan []net.Conn)
		go func() {
			var conns []net.Conn
			for {
				select {
				case <-stop:
					dialed <- conns
					return
				default:
				}
				c, err := net.Dial("tcp", addr)
				if err != nil {
					continue // listener already closed
				}
				if conns = append(conns, c); len(conns) == 1 {
					close(first)
				}
			}
		}()
		<-first
		closed := make(chan struct{})
		go func() {
			n.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Close did not return with a dial in flight", round)
		}
		close(stop)
		for _, c := range <-dialed {
			c.Close()
		}
	}
}
