package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"smartbadge/internal/leaktest"
)

func TestUsageWithoutSubcommand(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out, nil, nil); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("err = %v, want usage error", err)
	}
	if err := run([]string{"dance"}, &out, nil, nil); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

// TestServeLifecycle boots the daemon on an ephemeral port, exercises a
// request and /healthz, then delivers SIGTERM and asserts a clean drain.
func TestServeLifecycle(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 1)
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-addr", "127.0.0.1:0", "-thr-cache", "off"}, &out, ready, sigs)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	fresp, err := http.Post(base+"/v1/fleet", "application/json",
		strings.NewReader(`{"badges":2,"seed":7,"apps":["mp3"],"policies":["expavg"],"dpms":["none"]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("fleet = %d: %s", fresp.StatusCode, body)
	}

	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	// The signal watcher that ran the drain has exited too.
	leaktest.Check(t, "main.run")
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("no drain confirmation in output:\n%s", out.String())
	}
}

// TestIdempotencyReplayOverHTTP: the acceptance criterion end to end — a
// repeated keyed POST performs zero additional simulations, visible both
// in the identical bytes and in the /metrics counters.
func TestIdempotencyReplayOverHTTP(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 1)
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-addr", "127.0.0.1:0", "-thr-cache", "off", "-idem-entries", "8"}, &out, ready, sigs)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	defer func() {
		sigs <- syscall.SIGTERM
		<-done
	}()

	const body = `{"badges":2,"seed":7,"apps":["mp3"],"policies":["expavg"],"dpms":["none"]}`
	post := func() string {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/fleet", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", "smoke-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fleet = %d: %s", resp.StatusCode, b)
		}
		return string(b)
	}
	first, second := post(), post()
	if first != second {
		t.Fatal("replayed body differs from the original")
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{`"server.engine.fleet_runs": 1`, `"server.idem.replay": 1`} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}
