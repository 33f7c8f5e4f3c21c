package rpc

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// stuckConn is a net.Conn whose Write blocks until the conn is closed,
// signalling each entry on writing: a peer that has stopped reading, with
// the write-side syscall observable from the test.
type stuckConn struct {
	net.Conn
	writing chan struct{}
	closed  chan struct{}
	once    sync.Once
}

func newStuckConn() (*stuckConn, net.Conn) {
	c1, c2 := net.Pipe()
	return &stuckConn{Conn: c1, writing: make(chan struct{}, 16), closed: make(chan struct{})}, c2
}

func (c *stuckConn) Write(p []byte) (int, error) {
	c.writing <- struct{}{}
	<-c.closed
	return 0, net.ErrClosed
}

func (c *stuckConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestLinkBackpressure pins the write queue's bound: while a combiner is
// stuck mid-write, senders queue up to maxQueued bytes and return at once,
// the next sender blocks, and shutdown releases it with ErrLinkClosed.
func TestLinkBackpressure(t *testing.T) {
	conn, peer := newStuckConn()
	defer peer.Close()
	l := newLink(conn, nil, linkHooks{flushGrace: -1})
	defer l.close()
	<-conn.writing // the hello's combiner is now inside Write

	f := frame{Kind: frameResponse, ID: 1, Results: []any{strings.Repeat("x", 16<<10)}}
	enc, err := wire.AppendFrame(nil, &f, l.table)
	if err != nil {
		t.Fatal(err)
	}
	// Each send appends while the queue holds fewer than maxQueued bytes.
	fits := (maxQueued + len(enc) - 1) / len(enc)
	for i := 0; i < fits; i++ {
		if err := l.send(&f); err != nil {
			t.Fatalf("send %d of %d under the bound: %v", i+1, fits, err)
		}
	}

	blocked := make(chan error, 1)
	go func() { blocked <- l.send(&f) }()
	select {
	case err := <-blocked:
		t.Fatalf("send past maxQueued returned %v while the combiner was mid-write; want it blocked", err)
	case <-time.After(100 * time.Millisecond):
	}
	select {
	case <-conn.writing:
		t.Fatal("a second write started while the first was still in flight")
	default:
	}

	l.shutdown(ErrLinkClosed)
	select {
	case err := <-blocked:
		if !errors.Is(err, ErrLinkClosed) {
			t.Fatalf("released sender got %v, want ErrLinkClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not release the blocked sender")
	}
}
