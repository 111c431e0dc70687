package thrcache

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smartbadge/internal/faults/fsfault"
)

// TestOrphanTempFilesCollected is the crashed-writer regression: a tmp-*
// file stranded between CreateTemp and rename must be removed when the
// cache directory is next opened, while published entries survive.
func TestOrphanTempFilesCollected(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1)
	c1, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c1.Characterise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entry := entryFile(t, dir)

	// Plant the orphan a crashed writer would leave.
	orphan := filepath.Join(dir, "tmp-1234567890")
	if err := os.WriteFile(orphan, []byte("half an entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan temp file survived reopen: %v", err)
	}
	if _, err := os.Stat(entry); err != nil {
		t.Errorf("published entry was collected with the orphan: %v", err)
	}
	got, err := c2.Characterise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
		t.Error("entry served after orphan collection differs")
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Errorf("stats after orphan GC = %+v, want a disk hit", st)
	}
}

// faultedCache builds a cache over dir whose filesystem runs the given
// plan.
func faultedCache(t *testing.T, dir string, plan fsfault.Plan) *Cache {
	t.Helper()
	c, err := NewFS(fsfault.Chaos(fsfault.OS(), plan), dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// reference characterises cfg once, uncached, for bit-identity checks.
func reference(t *testing.T, seed uint64) []float64 {
	t.Helper()
	c := Memory()
	th, err := c.Characterise(testConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return th.Snapshot().Values
}

// TestFaultPlansRecompute proves the cache's recovery contract under every
// seeded filesystem fault plan: the caller always receives the bit-exact
// threshold table, and a reopened cache over the damaged directory serves
// or recomputes correctly — data loss is impossible by construction, only
// cache warmth is lost.
func TestFaultPlansRecompute(t *testing.T) {
	want := reference(t, 1)
	plans := []fsfault.Plan{
		// Op 1 is the first entry write (the checksum line).
		{Kind: fsfault.ENOSPC, Op: 1, Seed: 3},
		{Kind: fsfault.TornWrite, Op: 1, Seed: 5},
		{Kind: fsfault.CrashBeforeRename, Op: 1, Seed: 7},
	}
	for _, plan := range plans {
		t.Run(plan.String(), func(t *testing.T) {
			dir := t.TempDir()
			c := faultedCache(t, dir, plan)
			th, err := c.Characterise(testConfig(1))
			if err != nil {
				t.Fatalf("store failure leaked to the caller: %v", err)
			}
			if !reflect.DeepEqual(th.Snapshot().Values, want) {
				t.Error("table under store fault differs from reference")
			}
			// The failed store must not have published a (partial) entry.
			if matches, _ := filepath.Glob(filepath.Join(dir, "*.thr.json")); len(matches) != 0 {
				t.Errorf("damaged store published an entry: %v", matches)
			}

			// A fresh process over the damaged directory: orphans are
			// collected, the table is recomputed bit-identically and the
			// store now succeeds.
			c2, err := New(dir)
			if err != nil {
				t.Fatal(err)
			}
			if matches, _ := filepath.Glob(filepath.Join(dir, "tmp-*")); len(matches) != 0 {
				t.Errorf("orphans survived reopen: %v", matches)
			}
			th2, err := c2.Characterise(testConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(th2.Snapshot().Values, want) {
				t.Error("recomputed table differs from reference")
			}
			if st := c2.Stats(); st.Misses != 1 {
				t.Errorf("reopen stats = %+v, want a recomputing miss", st)
			}
		})
	}
}

// TestBitRotRejectedAndRecomputed: a flipped bit in the stored entry fails
// the checksum, the entry is rejected and recomputed bit-identically —
// never served corrupt.
func TestBitRotRejectedAndRecomputed(t *testing.T) {
	want := reference(t, 1)
	dir := t.TempDir()
	c1, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Characterise(testConfig(1)); err != nil {
		t.Fatal(err)
	}

	// Fresh cache whose first (and only) read rots one bit.
	c2 := faultedCache(t, dir, fsfault.Plan{Kind: fsfault.BitRot, Op: 1, Seed: 9})
	th, err := c2.Characterise(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(th.Snapshot().Values, want) {
		t.Error("table after bit-rot differs from reference")
	}
	st := c2.Stats()
	if st.Rejected != 1 || st.Misses != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v, want the rotted entry rejected and recomputed", st)
	}
	// The recompute re-stored a good entry: a clean cache disk-hits it.
	c3, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Characterise(testConfig(1)); err != nil {
		t.Fatal(err)
	}
	if st := c3.Stats(); st.DiskHits != 1 {
		t.Errorf("stats after heal = %+v, want a disk hit", st)
	}
}
