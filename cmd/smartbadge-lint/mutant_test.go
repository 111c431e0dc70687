package main

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMutantsAreReported proves that every surviving analyzer still bites.
// Each case seeds one realistic regression into a copy of the module and
// requires the suite to exit 1 with findings from that analyzer in that
// file only. An anchor must occur exactly once, so a refactor that moves
// the guarded code fails here instead of silently testing nothing. The
// cases share one copy, restoring each file afterwards, so the go command's
// build cache serves every package a mutant does not touch.
func TestMutantsAreReported(t *testing.T) {
	dir := copyModule(t, "../..")
	for _, m := range []struct {
		name, analyzer, file, anchor, edit string
	}{
		{
			name: "fan-out swaps ctx for a root context", analyzer: "ctxflow", file: "internal/fleet/fleet.go",
			anchor: "parallel.ForEach(ctx, w, w,",
			edit:   "parallel.ForEach(context.Background(), w, w,",
		},
		{
			name: "context-free shim over RunCtx", analyzer: "ctxflow", file: "internal/fleet/fleet.go",
			anchor: "func RunCtx(",
			edit:   "func Run(cfg Config) (*Report, error) { return RunCtx(context.Background(), cfg) }\n\nfunc RunCtx(",
		},
		{
			name: "fault cut offset from the wall clock", analyzer: "detcheck", file: "internal/faults/netfault/netfault.go",
			anchor: "1 + rng.Intn(cutWindow)",
			edit:   "1 + int(time.Now().UnixNano()%cutWindow)",
		},
		{
			name: "inline watts to milliwatts", analyzer: "unitcheck", file: "internal/device/device.go",
			anchor: "units.WToMW(c.PowerW[Active])",
			edit:   "c.PowerW[Active] * 1000",
		},
		{
			name: "single-flight join under the cache lock", analyzer: "lockcheck", file: "internal/thrcache/thrcache.go",
			anchor: "c.stats.Shared++\n\t\tc.mu.Unlock()\n\t\t<-fl.done\n",
			edit:   "c.stats.Shared++\n\t\t<-fl.done\n\t\tc.mu.Unlock()\n",
		},
	} {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(dir, filepath.FromSlash(m.file))
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(src, []byte(m.anchor)); n != 1 {
				t.Fatalf("anchor %q occurs %d times in %s, want exactly once", m.anchor, n, m.file)
			}
			mutant := bytes.Replace(src, []byte(m.anchor), []byte(m.edit), 1)
			if err := os.WriteFile(path, mutant, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				if err := os.WriteFile(path, src, 0o644); err != nil {
					t.Fatal(err)
				}
			})
			var out, errOut bytes.Buffer
			if code := lintMain(dir, []string{"./..."}, true, &out, &errOut); code != 1 {
				t.Fatalf("exit code = %d, want 1\n%s%s", code, out.String(), errOut.String())
			}
			dec := json.NewDecoder(&out)
			for {
				var f jsonFinding
				if err := dec.Decode(&f); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				t.Logf("%s:%d [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
				if f.Analyzer != m.analyzer || !strings.HasSuffix(filepath.ToSlash(f.File), "/"+m.file) {
					t.Errorf("the finding above is not a %s finding in %s", m.analyzer, m.file)
				}
			}
		})
	}
}

// copyModule copies go.mod and every non-test .go file of the module at
// root into a temporary directory, skipping testdata, hidden directories
// and nested modules, and returns the copy's root.
func copyModule(t *testing.T, root string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
	return dst
}
