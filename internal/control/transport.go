package control

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/protocol"
)

// Conn is one side of a bidirectional control-message link. The
// protocol Codec over any net.Conn satisfies the Send/Recv half; the
// in-process loopback passes the same *protocol.Message values through
// channels. Close unblocks the peer's pending Recv with an error.
type Conn interface {
	Send(*protocol.Message) error
	Recv() (*protocol.Message, error)
	Close() error
}

// errClosed is returned by loopback operations after either endpoint
// closed the pair.
var errClosed = fmt.Errorf("control: transport closed")

// chanConn is the loopback transport: a buffered channel pair carrying
// message pointers. Both endpoints share one done channel (and the
// once guarding it), so closing either side releases both directions.
type chanConn struct {
	out  chan *protocol.Message
	in   chan *protocol.Message
	done chan struct{}
	once *sync.Once
}

func (c *chanConn) Send(m *protocol.Message) error {
	select {
	case c.out <- m:
		return nil
	case <-c.done:
		return errClosed
	}
}

func (c *chanConn) Recv() (*protocol.Message, error) {
	select {
	case m := <-c.in:
		return m, nil
	case <-c.done:
		// Drain anything already queued before reporting closure, so a
		// shutdown cannot drop a round's trailing messages.
		select {
		case m := <-c.in:
			return m, nil
		default:
			return nil, errClosed
		}
	}
}

func (c *chanConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// loopbackBuffer sizes each loopback direction: deep enough that a
// full round (per-task reports, command, transfers, ack, resume) never
// context-switches on queue capacity for ordinary stages.
const loopbackBuffer = 64

// NewLoopbackPair returns two connected in-process Conns: messages
// Sent on one arrive at the other's Recv as the same pointer values,
// with no serialization. It is the control plane's default transport.
func NewLoopbackPair() (Conn, Conn) {
	ab := make(chan *protocol.Message, loopbackBuffer)
	ba := make(chan *protocol.Message, loopbackBuffer)
	done := make(chan struct{})
	once := new(sync.Once)
	return &chanConn{out: ab, in: ba, done: done, once: once},
		&chanConn{out: ba, in: ab, done: done, once: once}
}

// pipeConn frames messages with the protocol Codec over a real
// byte-stream connection — the wire transport.
type pipeConn struct {
	*protocol.Codec
	c net.Conn
}

func (p *pipeConn) Close() error { return p.c.Close() }

// NewWirePair returns two Conns speaking the protocol wire over an
// in-memory synchronous pipe — every message is fully encoded and
// decoded, exactly as it would be across a process boundary. The
// control loop is pinned to behave identically over NewLoopbackPair
// and NewWirePair; a real deployment substitutes its own net.Conn via
// WrapConn.
func NewWirePair() (Conn, Conn) {
	a, b := net.Pipe()
	return WrapConn(a), WrapConn(b)
}

// WrapConn frames control messages over an established network
// connection with the protocol Codec.
func WrapConn(c net.Conn) Conn {
	return &pipeConn{Codec: protocol.NewCodec(c), c: c}
}
