// Package leaktest is the goroutine-join check the concurrency tests share:
// once the code under test says it has stopped, no goroutine may still be
// running (or have been started by) one of its functions.
package leaktest

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Check fails t unless, within two seconds, no goroutine other than the
// caller's has a stack that mentions one of frags, e.g. "netfault.(*Proxy)".
// It polls because a goroutine that has signalled completion may still be
// unwinding when its joiner returns.
func Check(t testing.TB, frags ...string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		left := running(frags)
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) matching %q outlived their joiner:\n\n%s",
				len(left), frags, strings.Join(left, "\n\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// running returns every goroutine stack but the caller's that mentions one
// of frags.
func running(frags []string) []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var left []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] { // [0] is the caller
		for _, f := range frags {
			if strings.Contains(g, f) {
				left = append(left, g)
				break
			}
		}
	}
	return left
}
