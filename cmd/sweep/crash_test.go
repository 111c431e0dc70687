package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"smartbadge/internal/ckpt"
)

// fleetCrashConfig is the shared shape of the crash/resume tests: small
// enough to be cheap, big enough that a kill after 2 appends leaves real
// work for the resume.
func fleetCrashConfig(ckptDir string, killAfter int) sweepConfig {
	return sweepConfig{
		what:          "fleet",
		seed:          5,
		workers:       2,
		fleetN:        5,
		thrCache:      "off",
		ckptDir:       ckptDir,
		ckptKillAfter: killAfter,
	}
}

// TestCrashHelper is the child half of TestCrashResumeByteIdentical: it
// re-runs this test binary as a fleet sweep that the checkpoint chaos knob
// hard-kills (real os.Exit path, exit status 3). Skipped unless the parent
// set the handshake env var.
func TestCrashHelper(t *testing.T) {
	if os.Getenv("SWEEP_CRASH_HELPER") != "1" {
		t.Skip("helper process for TestCrashResumeByteIdentical")
	}
	killAfter, err := strconv.Atoi(os.Getenv("SWEEP_KILL_AFTER"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad SWEEP_KILL_AFTER:", err)
		os.Exit(1)
	}
	if err := run(context.Background(), io.Discard, fleetCrashConfig(os.Getenv("SWEEP_CKPT_DIR"), killAfter)); err != nil {
		fmt.Fprintln(os.Stderr, "helper run:", err)
		os.Exit(1)
	}
	// Reaching here means the kill never fired; exit 0 tells the parent.
}

// TestCrashResumeByteIdentical is the tentpole acceptance criterion end to
// end: a fleet sweep killed mid-run by the chaos knob (a real os.Exit, not
// a simulated one) and resumed with the same flags over the same -ckpt
// directory emits stdout byte-identical to a run that was never killed.
func TestCrashResumeByteIdentical(t *testing.T) {
	var uninterrupted bytes.Buffer
	if err := run(context.Background(), &uninterrupted, fleetCrashConfig("", 0)); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	const killAfter = 2
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"SWEEP_CRASH_HELPER=1",
		"SWEEP_CKPT_DIR="+dir,
		"SWEEP_KILL_AFTER="+strconv.Itoa(killAfter),
	)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != ckpt.KillExitCode {
		t.Fatalf("helper exited err=%v (want exit status %d); output:\n%s", err, ckpt.KillExitCode, out)
	}

	// The dead process left exactly killAfter fsynced records behind.
	st, err := ckpt.Open(dir, mustHash(t), 5, ckpt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != killAfter {
		t.Errorf("journal holds %d records after the kill, want %d", got, killAfter)
	}
	st.Close()

	var resumed bytes.Buffer
	if err := run(context.Background(), &resumed, fleetCrashConfig(dir, 0)); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != uninterrupted.String() {
		t.Errorf("resumed stdout differs from uninterrupted run:\n--- resumed\n%s--- uninterrupted\n%s",
			resumed.String(), uninterrupted.String())
	}
}

// TestResumeRefusesOtherConfig: pointing -ckpt at a checkpoint taken with
// a different seed must fail loudly, not silently mix two runs.
func TestResumeRefusesOtherConfig(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := run(context.Background(), io.Discard, fleetCrashConfig(dir, 0)); err != nil {
		t.Fatal(err)
	}
	other := fleetCrashConfig(dir, 0)
	other.seed = 6
	err := run(context.Background(), io.Discard, other)
	if !errors.Is(err, ckpt.ErrResumeMismatch) {
		t.Fatalf("err = %v, want ErrResumeMismatch", err)
	}
}

// mustHash computes the checkpoint key the crash config uses, so the test
// can open the journal the way the sweep does.
func mustHash(t *testing.T) string {
	t.Helper()
	sc := fleetCrashConfig("", 0)
	h, err := fleetConfigOf(sc).Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}
