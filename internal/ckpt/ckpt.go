// Package ckpt is the crash-safe checkpoint/resume store for long fleet
// and sweep runs: an append-only JSONL journal of completed per-record
// results, each line carrying its own SHA-256 checksum, fronted by an
// atomically published manifest that pins the run's canonical config hash.
//
// The design goal is provable recovery on the repository's bit-determinism
// substrate: a run killed at any point and resumed from its checkpoint
// directory must produce a report byte-identical to an uninterrupted run.
// That reduces to three invariants:
//
//  1. Only completed, checksummed results enter the journal, and each
//     append is a single write followed by fsync — so after a crash the
//     journal is a sequence of good records plus at most a torn tail.
//  2. Open verifies every record's checksum and index, drops anything
//     torn or rotted (healing the file by an atomic rewrite of the good
//     records), and never lets a damaged record reach the caller — a
//     dropped record is merely recomputed, which the determinism contract
//     makes byte-identical to the lost original.
//  3. The manifest names the exact run (format version, canonical config
//     hash, record count) and is published atomically before the first
//     append; resuming against a different configuration is refused
//     loudly rather than silently mixing two runs' results.
//
// Appending is best-effort in the same sense as thrcache: a full disk
// degrades checkpointing (failures are counted, the run continues), it
// never corrupts the journal (the torn tail is dropped on the next Open)
// and never affects the in-memory results.
//
// All disk traffic goes through the injectable fsfault.FS seam, so every
// recovery path above is regression-tested under seeded ENOSPC,
// torn-write, crash-before-rename and bit-rot plans.
//
// ckpt is on the detcheck deterministic roster: although it owns disk I/O,
// what it writes and returns is a pure function of its inputs — no wall
// clock, no ambient randomness, no map-order dependence.
package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"smartbadge/internal/faults/fsfault"
)

// FormatVersion is baked into the manifest. Bump it whenever the journal
// or manifest format changes meaning: old checkpoints are then refused
// instead of misread.
const FormatVersion = 1

const (
	manifestName = "manifest.json"
	journalName  = "journal.jsonl"
)

// ErrResumeMismatch is wrapped by Open when the directory holds a
// checkpoint for a different run (config hash, record count or format
// version differ): resuming would silently mix two runs' results.
var ErrResumeMismatch = errors.New("ckpt: checkpoint belongs to a different run")

// exitFn is the process-kill seam for the KillAfterAppends chaos knob;
// tests replace it, production keeps os.Exit.
var exitFn = os.Exit

// KillExitCode is the exit status of a KillAfterAppends-triggered kill —
// distinct from 1 (error) so chaos harnesses can assert the death was the
// planned one.
const KillExitCode = 3

// Options tunes Open. The zero value selects the real filesystem and no
// chaos.
type Options struct {
	// FS is the filesystem seam; nil selects fsfault.OS().
	FS fsfault.FS
	// KillAfterAppends, when positive, hard-kills the process (os.Exit
	// with KillExitCode) immediately after that many records have been
	// appended and fsynced — the chaos knob behind the CI crash/resume
	// smoke. The journal is left exactly as a real SIGKILL would leave
	// it: N fsynced records, nothing else.
	KillAfterAppends int
}

// Stats counts what Open found and what happened since.
type Stats struct {
	// Restored records loaded (and checksum-verified) at Open.
	Restored int
	// Dropped records discarded at Open as torn, rotted or mis-indexed.
	Dropped int
	// Healed reports whether Open rewrote the journal to shed damage.
	Healed bool
	// Appends completed (written and fsynced) since Open.
	Appends int
	// AppendFailures counts appends that failed; the records they carried
	// are simply recomputed on the next resume.
	AppendFailures int
}

// manifest is the on-disk run descriptor.
type manifest struct {
	Version    int    `json:"version"`
	ConfigHash string `json:"config_hash"`
	Records    int    `json:"records"`
}

// record is one journal line. SHA is the hex SHA-256 of the Data bytes as
// written, so a record vouches for itself independently of its neighbours.
type record struct {
	Index int             `json:"i"`
	SHA   string          `json:"sha"`
	Data  json.RawMessage `json:"data"`
}

// Store is an open checkpoint directory. Safe for concurrent use: fleet
// shard workers append from many goroutines.
type Store struct {
	fs  fsfault.FS
	dir string

	mu        sync.Mutex
	journal   fsfault.File
	done      map[int]json.RawMessage
	stats     Stats
	killAfter int
}

// Open opens (or creates) the checkpoint in dir for a run identified by
// configHash with the given total record count. A directory holding a
// checkpoint for a different run is refused with ErrResumeMismatch; a
// journal with torn or rotted records is healed to its verifiable subset.
func Open(dir, configHash string, records int, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("ckpt: empty checkpoint directory")
	}
	if configHash == "" {
		return nil, errors.New("ckpt: empty config hash")
	}
	if records <= 0 {
		return nil, fmt.Errorf("ckpt: records must be positive, got %d", records)
	}
	fs := opts.FS
	if fs == nil {
		fs = fsfault.OS()
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	s := &Store{fs: fs, dir: dir, done: make(map[int]json.RawMessage), killAfter: opts.KillAfterAppends}
	if err := s.checkManifest(configHash, records); err != nil {
		return nil, err
	}
	if err := s.loadJournal(records); err != nil {
		return nil, err
	}
	j, err := fs.OpenAppend(filepath.Join(dir, journalName))
	if err != nil {
		return nil, fmt.Errorf("ckpt: open journal: %w", err)
	}
	s.journal = j
	return s, nil
}

// checkManifest verifies an existing manifest against this run or
// publishes a fresh one atomically. A journal whose manifest is missing or
// corrupt is refused (its provenance cannot be established); a missing or
// corrupt manifest alone is overwritten.
func (s *Store) checkManifest(configHash string, records int) error {
	path := filepath.Join(s.dir, manifestName)
	if data, err := s.fs.ReadFile(path); err == nil {
		var m manifest
		if jerr := json.Unmarshal(data, &m); jerr == nil {
			switch {
			case m.Version != FormatVersion:
				return fmt.Errorf("%w: manifest format v%d, this binary writes v%d", ErrResumeMismatch, m.Version, FormatVersion)
			case m.ConfigHash != configHash:
				return fmt.Errorf("%w: manifest config hash %.12s…, run config hash %.12s… — pass a fresh -ckpt directory or the original configuration", ErrResumeMismatch, m.ConfigHash, configHash)
			case m.Records != records:
				return fmt.Errorf("%w: manifest expects %d records, run has %d", ErrResumeMismatch, m.Records, records)
			}
			return nil
		}
	}
	// No usable manifest. Without a journal this is a fresh start, or the
	// crash window between the manifest's temp-write and its rename.
	if s.journalExists() {
		return fmt.Errorf("%w: manifest is missing or corrupt but a journal exists; refusing to guess its provenance", ErrResumeMismatch)
	}
	payload, err := json.Marshal(manifest{Version: FormatVersion, ConfigHash: configHash, Records: records})
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := s.writeAtomic(path, payload); err != nil {
		return fmt.Errorf("ckpt: publish manifest: %w", err)
	}
	return nil
}

func (s *Store) journalExists() bool {
	_, err := s.fs.ReadFile(filepath.Join(s.dir, journalName))
	return err == nil
}

// writeAtomic stores payload at path via temp file + fsync + rename, the
// same durable-publish idiom as thrcache.
func (s *Store) writeAtomic(path string, payload []byte) error {
	tmp, err := s.fs.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		tmp.Close()
		s.fs.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(payload); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		s.fs.Remove(tmp.Name())
		return err
	}
	if err := s.fs.Rename(tmp.Name(), path); err != nil {
		s.fs.Remove(tmp.Name())
		return err
	}
	return nil
}

// loadJournal restores the verifiable records and heals the file if any
// line failed verification. A missing journal is a fresh run.
func (s *Store) loadJournal(records int) error {
	path := filepath.Join(s.dir, journalName)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil // fresh run
	}
	torn := false
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		var line []byte
		if nl < 0 {
			// No terminating newline: a torn tail by construction.
			line, data, torn = data, nil, true
		} else {
			line, data = data[:nl], data[nl+1:]
		}
		var r record
		if len(line) == 0 {
			continue
		}
		if json.Unmarshal(line, &r) != nil || r.Index < 0 || r.Index >= records || !isRecordLine(line, r) {
			s.stats.Dropped++
			continue
		}
		s.done[r.Index] = r.Data
	}
	s.stats.Restored = len(s.done)
	if s.stats.Dropped > 0 || torn {
		if err := s.rewriteJournal(path); err != nil {
			return fmt.Errorf("ckpt: heal journal: %w", err)
		}
		s.stats.Healed = true
	}
	return nil
}

// rewriteJournal atomically replaces the journal with the verified
// records in index order.
func (s *Store) rewriteJournal(path string) error {
	idx := make([]int, 0, len(s.done))
	for i := range s.done {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var buf bytes.Buffer
	for _, i := range idx {
		line, _, err := recordLine(i, s.done[i])
		if err != nil {
			return err
		}
		buf.Write(line)
	}
	return s.writeAtomic(path, buf.Bytes())
}

func shaHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// recordLine renders one journal line (including the trailing newline) and
// returns the payload as written. json.Marshal writes a RawMessage
// compacted and HTML-escaped, so the payload is normalised that way first
// and the checksum covers the bytes on disk.
func recordLine(i int, data json.RawMessage) (line []byte, written json.RawMessage, err error) {
	if written, err = json.Marshal(data); err != nil {
		return nil, nil, err
	}
	if line, err = json.Marshal(record{Index: i, SHA: shaHex(written), Data: written}); err != nil {
		return nil, nil, err
	}
	return append(line, '\n'), written, nil
}

// isRecordLine reports whether line (without its newline) is byte for byte
// the line recordLine writes for r: its checksum covers its payload, and a
// healed journal reads back unchanged.
func isRecordLine(line []byte, r record) bool {
	want, _, err := recordLine(r.Index, r.Data)
	return err == nil && bytes.Equal(want[:len(want)-1], line)
}

// Dir returns the checkpoint directory.
func (s *Store) Dir() string { return s.dir }

// Get returns the stored payload for record i — restored at Open or
// appended since — and whether one exists.
func (s *Store) Get(i int) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.done[i]
	return data, ok
}

// Len returns the number of completed records currently stored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.done)
}

// Stats returns a snapshot of the open/append counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Append journals record i, its payload compacted and HTML-escaped as
// json.Marshal writes it (Get returns those bytes). The write is one call
// followed by fsync, so a crash leaves at most a torn tail; failures
// degrade checkpointing (the record is recomputed on resume) and are
// counted, never fatal to the caller's run. After the KillAfterAppends-th
// successful append the chaos knob kills the process.
func (s *Store) Append(i int, data json.RawMessage) error {
	line, data, err := recordLine(i, data)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		s.stats.AppendFailures++
		return errors.New("ckpt: store is closed")
	}
	if _, err := s.journal.Write(line); err != nil {
		s.stats.AppendFailures++
		return err
	}
	if err := s.journal.Sync(); err != nil {
		s.stats.AppendFailures++
		return err
	}
	s.done[i] = data
	s.stats.Appends++
	if s.killAfter > 0 && s.stats.Appends >= s.killAfter {
		exitFn(KillExitCode) // never returns in production
	}
	return nil
}

// Close closes the journal handle. Further Appends fail (and are counted);
// Get/Len/Stats keep working.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}
