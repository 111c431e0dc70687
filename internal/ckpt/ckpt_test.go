package ckpt_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"smartbadge/internal/ckpt"
	"smartbadge/internal/faults/fsfault"
)

func payload(i int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"index":%d,"energy":%d.5}`, i, i))
}

func mustOpen(t *testing.T, dir, hash string, n int, opts ckpt.Options) *ckpt.Store {
	t.Helper()
	s, err := ckpt.Open(dir, hash, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAppendResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "cafe", 5, ckpt.Options{})
	for _, i := range []int{0, 3, 1} {
		if err := s.Append(i, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, "cafe", 5, ckpt.Options{})
	defer r.Close()
	st := r.Stats()
	if st.Restored != 3 || st.Dropped != 0 || st.Healed {
		t.Errorf("stats = %+v, want 3 restored, nothing dropped/healed", st)
	}
	for _, i := range []int{0, 1, 3} {
		got, ok := r.Get(i)
		if !ok || string(got) != string(payload(i)) {
			t.Errorf("Get(%d) = %q, %t", i, got, ok)
		}
	}
	if _, ok := r.Get(2); ok {
		t.Error("Get(2) returned a record that was never appended")
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
}

// TestTornTailTruncated plants a torn final record by hand and asserts Open
// drops exactly it, keeps the good prefix, and heals the file so the next
// Open is clean.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "cafe", 4, ckpt.Options{})
	for i := 0; i < 3; i++ {
		if err := s.Append(i, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	jpath := filepath.Join(dir, "journal.jsonl")
	good, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// A record torn mid-write: valid prefix of a line, no newline.
	torn := append(append([]byte(nil), good...), []byte(`{"i":3,"sha":"ab12`)...)
	if err := os.WriteFile(jpath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, "cafe", 4, ckpt.Options{})
	r.Close()
	st := r.Stats()
	if st.Restored != 3 || st.Dropped != 1 || !st.Healed {
		t.Errorf("stats = %+v, want 3 restored, 1 dropped, healed", st)
	}
	healed, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if string(healed) != string(good) {
		t.Errorf("healed journal differs from the last good state:\n%q\nvs\n%q", healed, good)
	}
	r2 := mustOpen(t, dir, "cafe", 4, ckpt.Options{})
	r2.Close()
	if st := r2.Stats(); st.Dropped != 0 || st.Healed {
		t.Errorf("second open after heal found damage: %+v", st)
	}
}

// TestResumeMismatchRefused: a different config hash, record count or
// format version must refuse to resume, and so must a journal whose
// manifest is corrupt or missing.
func TestResumeMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "cafe", 4, ckpt.Options{})
	s.Append(0, payload(0))
	s.Close()

	if _, err := ckpt.Open(dir, "d00d", 4, ckpt.Options{}); !errors.Is(err, ckpt.ErrResumeMismatch) {
		t.Errorf("hash mismatch: err = %v, want ErrResumeMismatch", err)
	}
	if _, err := ckpt.Open(dir, "cafe", 5, ckpt.Options{}); !errors.Is(err, ckpt.ErrResumeMismatch) {
		t.Errorf("record-count mismatch: err = %v, want ErrResumeMismatch", err)
	}
	// Version skew: rewrite the manifest with a future version.
	mpath := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(mpath, []byte(`{"version":99,"config_hash":"cafe","records":4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Open(dir, "cafe", 4, ckpt.Options{}); !errors.Is(err, ckpt.ErrResumeMismatch) {
		t.Errorf("version skew: err = %v, want ErrResumeMismatch", err)
	}
	// Corrupt manifest next to an existing journal: provenance unknowable.
	if err := os.WriteFile(mpath, []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Open(dir, "cafe", 4, ckpt.Options{}); !errors.Is(err, ckpt.ErrResumeMismatch) {
		t.Errorf("corrupt manifest with journal: err = %v, want ErrResumeMismatch", err)
	}
	// Missing manifest next to an existing journal: another run must not
	// adopt the journal's records as its own.
	if err := os.Remove(mpath); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Open(dir, "d00d", 4, ckpt.Options{}); !errors.Is(err, ckpt.ErrResumeMismatch) {
		t.Errorf("missing manifest with journal: err = %v, want ErrResumeMismatch", err)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := ckpt.Open("", "cafe", 1, ckpt.Options{}); err == nil {
		t.Error("empty dir accepted")
	}
	if _, err := ckpt.Open(t.TempDir(), "", 1, ckpt.Options{}); err == nil {
		t.Error("empty hash accepted")
	}
	if _, err := ckpt.Open(t.TempDir(), "cafe", 0, ckpt.Options{}); err == nil {
		t.Error("zero records accepted")
	}
}

// TestAppendAfterCloseCounted: a closed store counts the failure instead
// of crashing or corrupting anything.
func TestAppendAfterCloseCounted(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "cafe", 2, ckpt.Options{})
	s.Close()
	if err := s.Append(0, payload(0)); err == nil {
		t.Error("append after close succeeded")
	}
	if st := s.Stats(); st.AppendFailures != 1 {
		t.Errorf("AppendFailures = %d, want 1", st.AppendFailures)
	}
}

// TestKillAfterAppends pins the chaos knob: the kill fires immediately
// after the N-th fsynced append, and the journal at that moment holds
// exactly N records.
func TestKillAfterAppends(t *testing.T) {
	dir := t.TempDir()
	var killedAt []int
	restore := ckpt.SetExitForTest(func(code int) {
		if code != ckpt.KillExitCode {
			t.Errorf("exit code %d, want %d", code, ckpt.KillExitCode)
		}
		killedAt = append(killedAt, code)
	})
	defer restore()

	s := mustOpen(t, dir, "cafe", 5, ckpt.Options{KillAfterAppends: 2})
	s.Append(0, payload(0))
	if len(killedAt) != 0 {
		t.Fatal("killed before the armed append")
	}
	s.Append(1, payload(1))
	if len(killedAt) != 1 {
		t.Fatal("kill did not fire on the armed append")
	}
	s.Close()

	r := mustOpen(t, dir, "cafe", 5, ckpt.Options{})
	defer r.Close()
	if r.Len() != 2 {
		t.Errorf("journal holds %d records at the kill point, want 2", r.Len())
	}
}

// --- fault plans -----------------------------------------------------------

// TestENOSPCPlanDegradesGracefully: a full disk mid-append loses only the
// failing records; the journal stays parseable and a resume recomputes the
// gap — no data loss, no corruption.
func TestENOSPCPlanDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	// The manifest costs one write, so write #4 is the third append.
	chaos := fsfault.Chaos(fsfault.OS(), fsfault.Plan{Kind: fsfault.ENOSPC, Op: 4, Seed: 3})
	s := mustOpen(t, dir, "cafe", 6, ckpt.Options{FS: chaos})
	var failures int
	for i := 0; i < 6; i++ {
		if err := s.Append(i, payload(i)); err != nil {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("append %d: err = %v, want ENOSPC", i, err)
			}
			failures++
		}
	}
	s.Close()
	if failures == 0 {
		t.Fatal("ENOSPC plan never fired")
	}
	if st := s.Stats(); st.AppendFailures != failures {
		t.Errorf("AppendFailures = %d, want %d", st.AppendFailures, failures)
	}

	r := mustOpen(t, dir, "cafe", 6, ckpt.Options{})
	defer r.Close()
	st := r.Stats()
	if st.Restored+failures < 6-1 { // the torn append may or may not parse; everything else must
		t.Errorf("restored %d with %d failures, lost more than the failing records", st.Restored, failures)
	}
	for i := 0; i < st.Restored; i++ {
		if raw, ok := r.Get(i); ok && string(raw) != string(payload(i)) {
			t.Errorf("record %d corrupted: %q", i, raw)
		}
	}
}

// TestTornWritePlanHealsOnReopen: the process dies mid-append; reopening
// with a healthy filesystem restores every fully-fsynced record and drops
// the torn tail.
func TestTornWritePlanHealsOnReopen(t *testing.T) {
	dir := t.TempDir()
	// The manifest costs one write, so write #5 is the fourth append.
	chaos := fsfault.Chaos(fsfault.OS(), fsfault.Plan{Kind: fsfault.TornWrite, Op: 5, Seed: 5})
	s := mustOpen(t, dir, "cafe", 6, ckpt.Options{FS: chaos})
	for i := 0; i < 6; i++ {
		if err := s.Append(i, payload(i)); err != nil {
			break // the process is "dead" from here on
		}
	}
	// No Close: the process died.

	r := mustOpen(t, dir, "cafe", 6, ckpt.Options{})
	defer r.Close()
	st := r.Stats()
	if st.Restored != 3 {
		t.Errorf("restored %d records, want the 3 appended before the torn one", st.Restored)
	}
	for i := 0; i < 3; i++ {
		raw, ok := r.Get(i)
		if !ok || string(raw) != string(payload(i)) {
			t.Errorf("record %d = %q, %t after heal", i, raw, ok)
		}
	}
	// Resume finishes the run; a further reopen sees everything.
	for i := 3; i < 6; i++ {
		if err := r.Append(i, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	full := mustOpen(t, dir, "cafe", 6, ckpt.Options{})
	defer full.Close()
	if full.Len() != 6 {
		t.Errorf("after resume the journal holds %d records, want 6", full.Len())
	}
}

// TestCrashBeforeRenamePlan: dying between the manifest temp-write and its
// rename publishes nothing; the next Open starts the run fresh and leaves
// no orphan behind the published state.
func TestCrashBeforeRenamePlan(t *testing.T) {
	dir := t.TempDir()
	chaos := fsfault.Chaos(fsfault.OS(), fsfault.Plan{Kind: fsfault.CrashBeforeRename, Op: 1, Seed: 7})
	if _, err := ckpt.Open(dir, "cafe", 4, ckpt.Options{FS: chaos}); err == nil {
		t.Fatal("Open succeeded despite dying before the manifest rename")
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !os.IsNotExist(err) {
		t.Errorf("manifest published despite crash-before-rename: %v", err)
	}

	s := mustOpen(t, dir, "cafe", 4, ckpt.Options{})
	for i := 0; i < 4; i++ {
		if err := s.Append(i, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	r := mustOpen(t, dir, "cafe", 4, ckpt.Options{})
	defer r.Close()
	if r.Len() != 4 || r.Stats().Dropped != 0 {
		t.Errorf("fresh run after crash restored %d/4, stats %+v", r.Len(), r.Stats())
	}
}

// TestBitRotPlanDropsOnlyTheRottedRecord: one flipped bit in the journal
// read fails exactly one record's checksum; the rest are restored and the
// journal is healed.
func TestBitRotPlanDropsOnlyTheRottedRecord(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "cafe", 6, ckpt.Options{})
	for i := 0; i < 6; i++ {
		if err := s.Append(i, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Open #2 reads manifest then journal: arm the rot on the journal read.
	chaos := fsfault.Chaos(fsfault.OS(), fsfault.Plan{Kind: fsfault.BitRot, Op: 2, Seed: 9})
	r, err := ckpt.Open(dir, "cafe", 6, ckpt.Options{FS: chaos})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	st := r.Stats()
	// One flipped bit damages at most one line (it may also land in a
	// structural byte and split/merge lines; never more than two records).
	if st.Dropped < 1 || st.Dropped > 2 {
		t.Errorf("dropped %d records from one flipped bit, want 1 or 2", st.Dropped)
	}
	if !st.Healed {
		t.Error("rotted journal was not healed")
	}
	if st.Restored+st.Dropped < 5 {
		t.Errorf("restored %d + dropped %d, lost records beyond the rot", st.Restored, st.Dropped)
	}
	for i := 0; i < 6; i++ {
		if raw, ok := r.Get(i); ok && string(raw) != string(payload(i)) {
			t.Errorf("restored record %d corrupted: %q", i, raw)
		}
	}
	// The healed journal is fully verifiable.
	clean := mustOpen(t, dir, "cafe", 6, ckpt.Options{})
	defer clean.Close()
	if cst := clean.Stats(); cst.Dropped != 0 || cst.Healed {
		t.Errorf("journal still damaged after heal: %+v", cst)
	}
}

// TestJournalLineShape pins the on-disk format: one JSON object per line
// with i/sha/data fields — the contract the heal scanner relies on.
func TestJournalLineShape(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "cafe", 2, ckpt.Options{})
	s.Append(1, payload(1))
	s.Close()
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSuffix(string(data), "\n")
	if strings.Contains(line, "\n") {
		t.Fatalf("record spans multiple lines: %q", line)
	}
	var rec struct {
		I    int             `json:"i"`
		SHA  string          `json:"sha"`
		Data json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.I != 1 || len(rec.SHA) != 64 || string(rec.Data) != string(payload(1)) {
		t.Errorf("record = %+v", rec)
	}
}

// TestAppendNormalisesPayload: the journal writes a payload compacted and
// HTML-escaped, so the checksum must cover those bytes, not the ones
// passed in, or the record is dropped as rotted on the next Open.
func TestAppendNormalisesPayload(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "cafe", 2, ckpt.Options{})
	want := []string{`{"a":1}`, `"\u003ca\u0026b\u003e"`}
	for i, p := range []string{`{"a": 1}`, `"<a&b>"`} {
		if err := s.Append(i, json.RawMessage(p)); err != nil {
			t.Fatal(err)
		}
		if got, _ := s.Get(i); string(got) != want[i] {
			t.Errorf("Get(%d) after Append = %s, want %s", i, got, want[i])
		}
	}
	s.Close()

	r := mustOpen(t, dir, "cafe", 2, ckpt.Options{})
	defer r.Close()
	if st := r.Stats(); st.Restored != 2 || st.Dropped != 0 || st.Healed {
		t.Errorf("stats = %+v, want 2 restored, nothing dropped/healed", st)
	}
	for i := range want {
		if got, ok := r.Get(i); !ok || string(got) != want[i] {
			t.Errorf("Get(%d) after reopen = %s, %t, want %s", i, got, ok, want[i])
		}
	}
}

// FuzzJournalReplay puts arbitrary bytes in the journal behind a valid
// manifest. Open must not panic, must restore only valid JSON, and must
// leave a journal that reopens to the same records byte for byte with
// nothing dropped or healed.
func FuzzJournalReplay(f *testing.F) {
	const records = 4
	seedDir := f.TempDir()
	s, err := ckpt.Open(seedDir, "cafe", records, ckpt.Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i, p := range []string{`{"index":0}`, `{"a": 1}`, `"<a&b>"`} {
		if err := s.Append(i, json.RawMessage(p)); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	manifest, err := os.ReadFile(filepath.Join(seedDir, "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(seedDir, "journal.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-7])
	f.Add(append(append([]byte{}, good...), good...))
	f.Add([]byte("not json\n\n{}\n"))
	f.Add([]byte{})

	// One directory serves every execution: both files are rewritten each
	// time, and Open leaves nothing else behind.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, journal []byte) {
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		first := mustOpen(t, dir, "cafe", records, ckpt.Options{})
		first.Close()
		for i := range records {
			if raw, ok := first.Get(i); ok && !json.Valid(raw) {
				t.Errorf("record %d restored as invalid JSON %q", i, raw)
			}
		}
		again := mustOpen(t, dir, "cafe", records, ckpt.Options{})
		again.Close()
		if st := again.Stats(); st.Dropped != 0 || st.Healed || st.Restored != first.Stats().Restored {
			t.Errorf("reopen stats %+v after first open %+v", st, first.Stats())
		}
		for i := range records {
			a, aok := first.Get(i)
			b, bok := again.Get(i)
			if aok != bok || string(a) != string(b) {
				t.Errorf("record %d: first open %q (%t), reopen %q (%t)", i, a, aok, b, bok)
			}
		}
	})
}
