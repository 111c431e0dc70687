package main

import (
	"bytes"
	"io"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"smartbadge/internal/leaktest"
)

func TestRunRequiresTarget(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-kind", "latency"}, &out, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "-target is required") {
		t.Fatalf("run without -target = %v", err)
	}
}

func TestRunRejectsUnknownKind(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-target", "127.0.0.1:1", "-kind", "meteor"}, &out, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("run with bad kind = %v", err)
	}
}

// startEcho serves echo connections until the test ends.
func startEcho(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("echo listen: %v", err)
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

func TestProxyLifecycle(t *testing.T) {
	backend := startEcho(t)
	var out bytes.Buffer
	ready := make(chan string, 1)
	sigs := make(chan os.Signal, 1)
	ret := make(chan error, 1)
	go func() {
		ret <- run([]string{
			"-listen", "127.0.0.1:0",
			"-target", backend,
			"-kind", "latency",
			"-op", "1",
			"-seed", "7",
			"-max-delay", "2ms",
		}, &out, ready, sigs)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-ret:
		t.Fatalf("run exited before ready: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("proxy never became ready")
	}

	// A round trip through the armed (latency) connection stays intact.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	msg := []byte("through the chaos proxy")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("echo = %q, want %q", buf, msg)
	}
	c.Close()

	sigs <- syscall.SIGTERM
	select {
	case err := <-ret:
		if err != nil {
			t.Fatalf("run returned %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("proxy did not stop on SIGTERM\n%s", out.String())
	}
	// Both the signal watcher and every proxy goroutine have exited.
	leaktest.Check(t, "main.run", "netfault.(*Proxy)")
	for _, want := range []string{"netchaos: proxying", "terminated received", "stopped after 1 connection(s)", "fault fired: true"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}
