package netfault

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"smartbadge/internal/leaktest"
)

// startBackend runs a plain echo server and returns its address; it serves
// until the test ends.
func startBackend(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("backend listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	return l.Addr().String()
}

// startProxy wires a proxy with the given plan in front of target and
// returns its dial address plus a cancel that waits for Run to return and
// then for every goroutine the proxy started to exit.
func startProxy(t *testing.T, target string, plan Plan) (*Proxy, string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p, err := NewProxy(l, target, plan)
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ret := make(chan error, 1)
	go func() { ret <- p.Run(ctx) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			select {
			case err := <-ret:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("Run returned %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("proxy Run did not return after cancel")
			}
			leaktest.Check(t, "netfault.(*Proxy)")
		})
	}
	t.Cleanup(stop)
	return p, l.Addr().String(), stop
}

// roundTrip writes msg through addr and reads len(msg) bytes back.
func roundTrip(t *testing.T, addr string, msg []byte) ([]byte, error) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if _, err := c.Write(msg); err != nil {
		return nil, err
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		return buf, err
	}
	return buf, nil
}

func TestProxyPassesCleanConnsThrough(t *testing.T) {
	backend := startBackend(t)
	// Op 3 never arrives: both conns below are clean.
	p, addr, _ := startProxy(t, backend, Plan{Kind: RST, Op: 3, Seed: 7})
	for i := 0; i < 2; i++ {
		msg := []byte("fleet request payload")
		got, err := roundTrip(t, addr, msg)
		if err != nil {
			t.Fatalf("round trip %d: %v", i+1, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round trip %d corrupted: %q", i+1, got)
		}
	}
	if p.Fired() {
		t.Fatal("Fired() = true before the Op-th conn")
	}
	if p.Conns() != 2 {
		t.Fatalf("Conns() = %d, want 2", p.Conns())
	}
}

func TestProxyInjectsThenRecovers(t *testing.T) {
	backend := startBackend(t)
	p, addr, _ := startProxy(t, backend, Plan{Kind: Truncate, Op: 1, Seed: 7})

	// Conn 1: the echo comes back truncated (cut <= 256 < payload).
	msg := bytes.Repeat([]byte("a"), 1024)
	got, err := roundTrip(t, addr, msg)
	if err == nil && bytes.Equal(got, msg) {
		t.Fatal("faulted conn delivered the full payload")
	}
	if !p.Fired() {
		t.Fatal("Fired() = false after the Op-th conn")
	}

	// Conn 2: clean again — the fault is one-shot.
	got, err = roundTrip(t, addr, msg)
	if err != nil {
		t.Fatalf("post-fault round trip: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("post-fault round trip corrupted")
	}
}

func TestProxyRefuseSeversClient(t *testing.T) {
	backend := startBackend(t)
	_, addr, _ := startProxy(t, backend, Plan{Kind: Refuse, Op: 1, Seed: 7})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return // kernel surfaced the severed conn at dial time: also a pass
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := c.Read(make([]byte, 8)); err == nil {
		t.Fatalf("read on refused conn returned %d bytes, want failure", n)
	}
}

func TestProxyRunStopsOnCancel(t *testing.T) {
	backend := startBackend(t)
	_, addr, stop := startProxy(t, backend, Plan{Kind: Latency, Op: 1, Seed: 7, MaxDelay: time.Millisecond})
	// One conn through, then cancel with nothing in flight.
	if _, err := roundTrip(t, addr, []byte("ping-pong")); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	stop() // asserts Run returns context.Canceled promptly

	// The listener is down: new dials must fail.
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("dial succeeded after the proxy stopped")
	}
}

func TestProxyCancelTearsDownInFlightConn(t *testing.T) {
	backend := startBackend(t)
	_, addr, stop := startProxy(t, backend, Plan{Kind: Latency, Op: 9, Seed: 7})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	// Complete one echo so the splice is known to be pumping, leave the
	// connection open, then cancel the proxy mid-splice.
	msg := []byte("held open")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, make([]byte, len(msg))); err != nil {
		t.Fatalf("echo before cancel: %v", err)
	}
	stop()
	// The splice closed our leg: reads drain anything buffered, then fail.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, c); err == nil {
		// A clean EOF is fine too: the conn is gone either way.
		return
	}
}
