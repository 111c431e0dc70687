package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"smartbadge/internal/ckpt"
)

// memJournal is an in-memory Journal for tests that don't need a disk.
type memJournal struct {
	mu      sync.Mutex
	done    map[int]json.RawMessage
	appends int
}

func newMemJournal() *memJournal { return &memJournal{done: map[int]json.RawMessage{}} }

func (m *memJournal) Get(i int) (json.RawMessage, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.done[i]
	return d, ok
}

func (m *memJournal) Append(i int, data json.RawMessage) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done[i] = data
	m.appends++
	return nil
}

// journaled returns cfg with j as its checkpoint journal.
func journaled(cfg Config, j Journal) Config {
	cfg.Journal = j
	return cfg
}

// swapRunBadge installs fn as the badge execution seam and returns a
// restore func. fn receives the real runBadge so it can delegate.
func swapRunBadge(fn func(cfg *Config, i int, st *shardState) (BadgeResult, error)) func() {
	old := runBadgeFn
	runBadgeFn = fn
	return func() { runBadgeFn = old }
}

// TestPanicIsolatedToBadgeError: a panicking badge (a bug, not a sim
// error) must become one entry in Report.Failed — not a worker crash, not
// a dead batch — and the partial report must stay byte-identical for any
// worker count. The panicking badge first writes its own run into the
// shard's state; the shard's next badge must then get a new state and equal
// a run on a fresh one bit for bit.
func TestPanicIsolatedToBadgeError(t *testing.T) {
	errBadge := errors.New("synthetic badge failure")
	var mu sync.Mutex
	seen := map[int]*shardState{}
	defer swapRunBadge(func(cfg *Config, i int, st *shardState) (BadgeResult, error) {
		mu.Lock()
		seen[i] = st
		mu.Unlock()
		switch i {
		case 3:
			runBadge(cfg, i, st)
			panic("synthetic badge panic")
		case 5:
			return BadgeResult{}, errBadge
		}
		return runBadge(cfg, i, st)
	})()

	cfg := smallConfig(8, 1)
	base, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Badges) != 6 || len(base.Failed) != 2 {
		t.Fatalf("survivors=%d failed=%d, want 6/2", len(base.Badges), len(base.Failed))
	}
	// One worker: badges 0–7 run in order on one shard.
	if seen[2] != seen[3] || seen[4] == seen[3] {
		t.Error("the shard's state was not replaced after the panic (and only then)")
	}
	fresh, err := runBadge(&cfg, 4, newShardState())
	if err != nil {
		t.Fatal(err)
	}
	if b := base.Badges[3]; b.Index != 4 || !reflect.DeepEqual(b, fresh) {
		t.Errorf("badge after the panic = %+v, want the fresh run %+v", b, fresh)
	}
	if base.Failed[0].Index != 3 || base.Failed[1].Index != 5 {
		t.Errorf("failed indices = %d,%d, want 3,5", base.Failed[0].Index, base.Failed[1].Index)
	}
	if !strings.Contains(base.Failed[0].Error(), "panic: synthetic badge panic") {
		t.Errorf("panic cause lost: %v", base.Failed[0])
	}
	if !errors.Is(base.Failed[1], errBadge) {
		t.Errorf("BadgeError does not unwrap to its cause: %v", base.Failed[1])
	}
	for _, b := range base.Badges {
		if b.Index == 3 || b.Index == 5 {
			t.Errorf("failed badge %d appears among survivors", b.Index)
		}
	}
	if base.Agg.Runs != 6 {
		t.Errorf("aggregate over %d runs, want the 6 survivors", base.Agg.Runs)
	}
	for _, w := range []int{2, 8} {
		got, err := RunCtx(context.Background(), smallConfig(8, w))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("partial report with %d workers diverged from 1 worker", w)
		}
	}
}

// TestPanicReplacesScratch: after a badge panics, the shard's state may
// hold a half-stepped simulation — the next badge on the same shard must
// still produce the bit-exact result, proven against an uninterrupted run.
func TestPanicReplacesScratch(t *testing.T) {
	clean, err := RunCtx(context.Background(), smallConfig(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer swapRunBadge(func(cfg *Config, i int, st *shardState) (BadgeResult, error) {
		if i == 1 {
			// Panic mid-badge, after the simulation has touched the scratch.
			runBadge(cfg, i, st)
			panic("die after simulating")
		}
		return runBadge(cfg, i, st)
	})()
	got, err := RunCtx(context.Background(), smallConfig(4, 1)) // one shard: badges 2,3 reuse the scratch after the panic
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Failed) != 1 || got.Failed[0].Index != 1 {
		t.Fatalf("failed = %+v, want badge 1", got.Failed)
	}
	for _, b := range got.Badges {
		if !reflect.DeepEqual(b, clean.Badges[b.Index]) {
			t.Errorf("badge %d diverged after an earlier panic on its shard", b.Index)
		}
	}
}

// TestAllBadgesFailedIsError: nothing survived, so there is nothing to
// aggregate — that is a batch error, not an empty report.
func TestAllBadgesFailedIsError(t *testing.T) {
	defer swapRunBadge(func(cfg *Config, i int, st *shardState) (BadgeResult, error) {
		return BadgeResult{}, errors.New("doomed")
	})()
	rep, err := RunCtx(context.Background(), smallConfig(3, 2))
	if rep != nil || err == nil {
		t.Fatalf("rep=%v err=%v, want nil report + error", rep, err)
	}
	var be *BadgeError
	if !errors.As(err, &be) {
		t.Errorf("all-failed error does not expose a BadgeError: %v", err)
	}
}

// TestResumeSkipsJournaledBadges: records already in the journal are
// restored, not re-simulated, and the final report is byte-identical to an
// uninterrupted run — the checkpoint round-trip (JSON floats included)
// loses no bits.
func TestResumeSkipsJournaledBadges(t *testing.T) {
	base, err := RunCtx(context.Background(), smallConfig(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	full := newMemJournal()
	if rep, err := RunCtx(context.Background(), journaled(smallConfig(6, 2), full)); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(rep, base) {
		t.Error("journaling run diverged from plain run")
	}
	if full.appends != 6 {
		t.Fatalf("journal got %d appends, want 6", full.appends)
	}

	// Partial journal: only the even badges survived the "crash".
	partial := newMemJournal()
	for i := 0; i < 6; i += 2 {
		partial.done[i] = full.done[i]
	}
	var simulated []int
	var mu sync.Mutex
	defer swapRunBadge(func(cfg *Config, i int, st *shardState) (BadgeResult, error) {
		mu.Lock()
		simulated = append(simulated, i)
		mu.Unlock()
		return runBadge(cfg, i, st)
	})()
	rep, err := RunCtx(context.Background(), journaled(smallConfig(6, 2), partial))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, base) {
		t.Error("resumed report diverged from uninterrupted run")
	}
	if len(simulated) != 3 {
		t.Errorf("resume simulated badges %v, want only the 3 missing odd ones", simulated)
	}
	for _, i := range simulated {
		if i%2 == 0 {
			t.Errorf("resume re-simulated journaled badge %d", i)
		}
	}
	if len(partial.done) != 6 {
		t.Errorf("journal holds %d records after resume, want 6", len(partial.done))
	}
}

// TestResumeRecomputesBadPayload: a journal record that doesn't parse back
// to its badge is treated as absent and recomputed, never trusted.
func TestResumeRecomputesBadPayload(t *testing.T) {
	base, err := RunCtx(context.Background(), smallConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	j := newMemJournal()
	j.done[0] = json.RawMessage(`{"Index":2}`) // wrong index
	j.done[1] = json.RawMessage(`not json`)
	rep, err := RunCtx(context.Background(), journaled(smallConfig(3, 1), j))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, base) {
		t.Error("report with poisoned journal diverged")
	}
}

// TestResumeWithCkptStore is the fleet↔ckpt integration: a second run over
// the same on-disk checkpoint simulates nothing and reproduces the report
// byte for byte.
func TestResumeWithCkptStore(t *testing.T) {
	cfg := smallConfig(4, 2)
	hash, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	open := func() *ckpt.Store {
		s, err := ckpt.Open(dir, hash, cfg.Badges, ckpt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := open()
	base, err := RunCtx(context.Background(), journaled(cfg, s1))
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	defer swapRunBadge(func(cfg *Config, i int, st *shardState) (BadgeResult, error) {
		return BadgeResult{}, fmt.Errorf("badge %d should have been restored", i)
	})()
	s2 := open()
	defer s2.Close()
	if st := s2.Stats(); st.Restored != 4 {
		t.Fatalf("restored %d records, want 4", st.Restored)
	}
	rep, err := RunCtx(context.Background(), journaled(cfg, s2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, base) {
		t.Error("checkpoint-restored report diverged from original")
	}
}

// TestConfigHash pins what the checkpoint key covers: everything that
// determines the report, and nothing that doesn't.
func TestConfigHash(t *testing.T) {
	base := smallConfig(6, 1)
	h, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 64 {
		t.Fatalf("hash %q is not hex SHA-256", h)
	}

	// Workers cannot change the report, so it must not change the hash.
	w16 := smallConfig(6, 16)
	if hw, _ := w16.Hash(); hw != h {
		t.Error("Workers changed the hash; resume across -j values would be refused")
	}
	// Nor can the journal: the run that writes a checkpoint and the run
	// that resumes from it must share one key.
	withJ := journaled(base, newMemJournal())
	if hj, _ := withJ.Hash(); hj != h {
		t.Error("Journal changed the hash; a checkpointed run would key differently from a plain one")
	}
	// Explicit defaults hash like empty axes: both run the same batch.
	imp := Config{Badges: 6, Seed: 9}
	exp := Config{Badges: 6, Seed: 9, Apps: DefaultApps(), Policies: DefaultPolicies(), DPMs: DefaultDPMs()}
	hi, _ := imp.Hash()
	he, _ := exp.Hash()
	if hi != he {
		t.Error("explicit defaults hash differently from implied defaults")
	}

	for name, other := range map[string]Config{
		"badges": func() Config { c := base; c.Badges = 7; return c }(),
		"seed":   func() Config { c := base; c.Seed = 8; return c }(),
		"apps":   func() Config { c := base; c.Apps = []string{"mpeg"}; return c }(),
		"dpms":   func() Config { c := base; c.DPMs = []string{"renewal"}; return c }(),
	} {
		if ho, err := other.Hash(); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if ho == h {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
	if _, err := (Config{}).Hash(); err == nil {
		t.Error("invalid config hashed without error")
	}
}
