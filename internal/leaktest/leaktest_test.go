package leaktest

import (
	"testing"
	"time"
)

func parked(release <-chan struct{}) { <-release }

// TestCheckWaitsForJoin: a parked goroutine is reported while it runs, and
// Check passes once it has been released.
func TestCheckWaitsForJoin(t *testing.T) {
	release := make(chan struct{})
	go parked(release)
	deadline := time.Now().Add(2 * time.Second)
	for len(running([]string{"leaktest.parked"})) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("parked goroutine never showed up in the stack dump")
		}
		time.Sleep(time.Millisecond)
	}
	if n := len(running([]string{"no.such.function"})); n != 0 {
		t.Fatalf("unrelated fragment matched %d goroutine(s)", n)
	}
	close(release)
	Check(t, "leaktest.parked")
}
