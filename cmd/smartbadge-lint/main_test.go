package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartbadge/internal/analysis"
)

// TestRepositoryIsLintClean runs the full analyzer suite over the module,
// so `go test ./...` enforces the same invariants CI's dedicated lint step
// does. A finding here means a determinism, unit-safety, context-flow or
// lock-discipline regression (or a missing //lint:allow with its recorded
// reason).
func TestRepositoryIsLintClean(t *testing.T) {
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := analysis.Run(pkgs, Analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestSuiteRoster pins the analyzer set and its reporting order, so a new
// analyzer cannot be added to internal/analysis without being wired into
// the gate.
func TestSuiteRoster(t *testing.T) {
	want := []string{"detcheck", "unitcheck", "ctxflow", "lockcheck"}
	if len(Analyzers) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(Analyzers), len(want))
	}
	for i, a := range Analyzers {
		if a.Name != want[i] {
			t.Errorf("Analyzers[%d] = %s, want %s", i, a.Name, want[i])
		}
	}
}

// writeViolatingModule creates a throwaway module containing one
// deterministic package with a wall-clock read, returning its root.
func writeViolatingModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	simDir := filepath.Join(dir, "sim")
	if err := os.MkdirAll(simDir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package sim\n\nimport \"time\"\n\nfunc Clock() time.Time { return time.Now() }\n"
	if err := os.WriteFile(filepath.Join(simDir, "sim.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLintMainJSON drives the command entry point in -json mode against a
// module with a known violation: exit code 1, one record per finding, and
// the documented {analyzer, file, line, message} shape.
func TestLintMainJSON(t *testing.T) {
	dir := writeViolatingModule(t)
	var out, errOut bytes.Buffer
	code := lintMain(dir, []string{"./..."}, true, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d JSON records, want 1:\n%s", len(lines), out.String())
	}
	var rec struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v\n%s", err, lines[0])
	}
	if rec.Analyzer != "detcheck" {
		t.Errorf("analyzer = %q, want detcheck", rec.Analyzer)
	}
	if !strings.HasSuffix(rec.File, "sim.go") || rec.Line != 5 {
		t.Errorf("position = %s:%d, want .../sim.go:5", rec.File, rec.Line)
	}
	if !strings.Contains(rec.Message, "time.Now") {
		t.Errorf("message %q does not name time.Now", rec.Message)
	}
}

// TestLintMainHumanReadable pins the non-JSON rendering and exit code on
// the same violating module.
func TestLintMainHumanReadable(t *testing.T) {
	dir := writeViolatingModule(t)
	var out, errOut bytes.Buffer
	code := lintMain(dir, []string{"./..."}, false, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(out.String(), "[detcheck]") || !strings.Contains(out.String(), "time.Now") {
		t.Errorf("human output missing analyzer tag or message:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "1 finding(s)") {
		t.Errorf("stderr summary missing:\n%s", errOut.String())
	}
}

// TestLintMainLoadFailure pins exit code 2 when the loader cannot resolve
// the pattern (here: a directory that is not a module).
func TestLintMainLoadFailure(t *testing.T) {
	var out, errOut bytes.Buffer
	code := lintMain(t.TempDir(), []string{"./..."}, false, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "smartbadge-lint:") {
		t.Errorf("stderr missing error prefix:\n%s", errOut.String())
	}
}
