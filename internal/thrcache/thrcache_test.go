package thrcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"smartbadge/internal/changepoint"
)

// testConfig returns a cheap characterisation config. Vary seed to get a
// distinct cache key with the same cost.
func testConfig(seed uint64) changepoint.Config {
	cfg := changepoint.DefaultConfig([]float64{10, 20, 40})
	cfg.WindowSize = 40
	cfg.CharacterisationWindows = 150
	cfg.Seed = seed
	return cfg
}

// entryFile locates the single cache entry in dir.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.thr.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one cache entry in %s, got %v (err %v)", dir, matches, err)
	}
	return matches[0]
}

// TestHitsAreBitIdentical is the cache's core acceptance criterion: memory
// hits, disk hits (fresh process simulated by a fresh Cache over the same
// directory) and a fresh characterisation all agree bit for bit.
func TestHitsAreBitIdentical(t *testing.T) {
	cfg := testConfig(1)
	fresh, err := changepoint.Characterise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh[0].Snapshot()

	dir := t.TempDir()
	c1, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := c1.Characterise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(miss.Snapshot(), want) {
		t.Error("cache miss result differs from fresh characterisation")
	}
	memHit, err := c1.Characterise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if memHit != miss {
		t.Error("memory hit returned a different table instance")
	}
	if st := c1.Stats(); st.Misses != 1 || st.MemHits != 1 || st.DiskHits != 0 {
		t.Errorf("first cache stats = %+v, want 1 miss + 1 mem hit", st)
	}

	// A fresh Cache over the same directory must load from disk, bit
	// identically.
	c2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	diskHit, err := c2.Characterise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(diskHit.Snapshot(), want) {
		t.Error("disk hit differs from fresh characterisation")
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Errorf("second cache stats = %+v, want 1 disk hit", st)
	}
}

// TestCorruptEntriesRejectedAndRecomputed mutates the on-disk entry in every
// way the loader guards against — truncation, payload corruption, partial
// write, version skew, key mismatch, garbage — and requires each variant to
// be rejected and transparently recomputed with the correct result.
func TestCorruptEntriesRejectedAndRecomputed(t *testing.T) {
	cfg := testConfig(2)
	fresh, err := changepoint.Characterise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh[0].Snapshot()

	seed := t.TempDir()
	cs, err := New(seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Characterise(cfg); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(entryFile(t, seed))
	if err != nil {
		t.Fatal(err)
	}

	// reencode produces a syntactically valid, correctly checksummed entry
	// with a mutated payload — defeating the checksum so the semantic checks
	// (version, key echo, snapshot validation) are what reject it.
	reencode := func(mutate func(*diskEntry)) []byte {
		nl := strings.IndexByte(string(good), '\n')
		var e diskEntry
		if err := json.Unmarshal(good[nl+1:], &e); err != nil {
			t.Fatal(err)
		}
		mutate(&e)
		payload, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(checksumLine(payload)+"\n"), payload...)
	}

	cases := map[string][]byte{
		"truncated":        good[:len(good)/2],
		"empty":            {},
		"no newline":       []byte("sha256 deadbeef"),
		"flipped byte":     flip(good, len(good)-3),
		"garbage":          []byte("not a cache entry at all\n{}"),
		"header only":      good[:strings.IndexByte(string(good), '\n')+1],
		"version skew":     reencode(func(e *diskEntry) { e.Version = FormatVersion + 1 }),
		"key mismatch":     reencode(func(e *diskEntry) { e.Key = strings.Repeat("ab", 32) }),
		"length mismatch":  reencode(func(e *diskEntry) { e.ValueBits = e.ValueBits[:1] }),
		"malformed floats": reencode(func(e *diskEntry) { e.RatioBits[0] = "zz" }),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := New(dir)
			if err != nil {
				t.Fatal(err)
			}
			key, err := Key(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
				t.Fatal(err)
			}
			th, err := c.Characterise(cfg)
			if err != nil {
				t.Fatalf("corrupt entry surfaced an error: %v", err)
			}
			if !reflect.DeepEqual(th.Snapshot(), want) {
				t.Error("recomputed thresholds differ from fresh characterisation")
			}
			st := c.Stats()
			if st.Rejected != 1 || st.Misses != 1 || st.DiskHits != 0 {
				t.Errorf("stats = %+v, want exactly 1 rejected + 1 miss", st)
			}
			// The recompute must have overwritten the bad entry: a fresh
			// cache now disk-hits.
			c2, err := New(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c2.Characterise(cfg); err != nil {
				t.Fatal(err)
			}
			if st := c2.Stats(); st.DiskHits != 1 {
				t.Errorf("after recompute, fresh cache stats = %+v, want a disk hit", st)
			}
		})
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x01
	return out
}

// TestSingleFlight spins up many goroutines demanding the same config and
// requires exactly one characterisation: one miss, the rest counted as
// shared, all receiving the same table instance.
func TestSingleFlight(t *testing.T) {
	c := Memory()
	cfg := testConfig(3)
	const n = 16
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		tables  = map[*changepoint.Thresholds]int{}
		release = make(chan struct{})
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			th, err := c.Characterise(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			tables[th]++
			mu.Unlock()
		}()
	}
	close(release)
	wg.Wait()
	if len(tables) != 1 {
		t.Fatalf("got %d distinct table instances, want 1 (shared)", len(tables))
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 characterisation for %d concurrent callers", st.Misses, n)
	}
	if st.Misses+st.Shared+st.MemHits != n {
		t.Errorf("stats don't account for all callers: %+v over %d calls", st, n)
	}
}

// TestKeyCanonicalisation pins what the key does and does not depend on.
func TestKeyCanonicalisation(t *testing.T) {
	base := testConfig(4)
	k0, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}

	// Inert fields: same key.
	inert := base
	inert.Workers = 7
	inert.CheckInterval = 1
	if k, _ := Key(inert); k != k0 {
		t.Error("key depends on a field that cannot affect characterisation")
	}

	// Result-bearing fields: different key.
	mut := func(f func(*changepoint.Config)) changepoint.Config {
		c := base
		c.Rates = append([]float64(nil), base.Rates...)
		f(&c)
		return c
	}
	cases := map[string]changepoint.Config{
		"seed":       mut(func(c *changepoint.Config) { c.Seed++ }),
		"windows":    mut(func(c *changepoint.Config) { c.CharacterisationWindows++ }),
		"confidence": mut(func(c *changepoint.Config) { c.Confidence = 0.99 }),
		"m":          mut(func(c *changepoint.Config) { c.WindowSize++ }),
		"rate value": mut(func(c *changepoint.Config) { c.Rates[0] = 11 }),
		// Grid order assigns per-ratio RNG streams, so it is result-bearing.
		"rate order": mut(func(c *changepoint.Config) {
			c.Rates[0], c.Rates[1] = c.Rates[1], c.Rates[0]
		}),
	}
	for name, cfg := range cases {
		k, err := Key(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k0 {
			t.Errorf("%s: key unchanged by a result-bearing field", name)
		}
	}

	// Invalid configs are rejected at the key step.
	bad := base
	bad.Rates = []float64{5}
	if _, err := Key(bad); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestOpenSpecs pins the -thr-cache flag grammar.
func TestOpenSpecs(t *testing.T) {
	for _, spec := range []string{"off", ""} {
		if c, err := Open(spec); err != nil || c.Dir() != "" {
			t.Errorf("Open(%q) = dir %q, err %v; want memory-only", spec, c.Dir(), err)
		}
	}
	dir := filepath.Join(t.TempDir(), "sub")
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dir() != dir {
		t.Errorf("Open(DIR) dir = %q, want %q", c.Dir(), dir)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Errorf("Open(DIR) did not create the directory: %v", err)
	}
	cacheHome := t.TempDir()
	t.Setenv("XDG_CACHE_HOME", cacheHome)
	auto, err := Open("auto")
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(cacheHome, "smartbadge", "thresholds")
	if auto.Dir() != want {
		t.Errorf("Open(auto) dir = %q, want %q", auto.Dir(), want)
	}
}

// TestLRUEviction bounds the in-memory side: with the capacity shrunk to 2,
// cycling three configs evicts the least recently used, which must
// transparently fall back to disk (not recompute) when a store is attached.
func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.maxEntries = 2
	cfgs := []changepoint.Config{testConfig(10), testConfig(11), testConfig(12)}
	for _, cfg := range cfgs {
		if _, err := c.Characterise(cfg); err != nil {
			t.Fatal(err)
		}
	}
	// cfg[0] was evicted by cfg[2]; it must disk-hit, not recompute.
	if _, err := c.Characterise(cfgs[0]); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 3 || st.DiskHits != 1 {
		t.Errorf("stats = %+v, want 3 misses + 1 disk hit (LRU eviction + disk fallback)", st)
	}
}

// TestStoreFailureDegradesGracefully points the cache at an unwritable
// directory: Characterise must still return correct thresholds.
func TestStoreFailureDegradesGracefully(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	dir := t.TempDir()
	c, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	cfg := testConfig(20)
	fresh, err := changepoint.Characterise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	th, err := c.Characterise(cfg)
	if err != nil {
		t.Fatalf("unwritable store surfaced an error: %v", err)
	}
	if !reflect.DeepEqual(th.Snapshot(), fresh[0].Snapshot()) {
		t.Error("thresholds differ under store failure")
	}
}
