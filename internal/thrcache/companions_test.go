package thrcache

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/obs"
)

// gridConfig is a cheap config on a three-rate grid; configs that differ
// only in their rates share a characterisation pass.
func gridConfig(rates ...float64) changepoint.Config {
	cfg := testConfig(1)
	cfg.Rates = rates
	return cfg
}

// fresh characterises cfg alone, without a cache.
func fresh(t *testing.T, cfg changepoint.Config) changepoint.ThresholdSet {
	t.Helper()
	ths, err := changepoint.Characterise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ths[0].Snapshot()
}

// countPasses wraps c's characterisation and records the number of configs
// of each pass it runs.
func countPasses(c *Cache) func() []int {
	var (
		mu    sync.Mutex
		sizes []int
	)
	c.characterise = func(cfgs ...changepoint.Config) ([]*changepoint.Thresholds, error) {
		mu.Lock()
		sizes = append(sizes, len(cfgs))
		mu.Unlock()
		return changepoint.Characterise(cfgs...)
	}
	return func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), sizes...)
	}
}

func TestHitNeverTouchesCompanions(t *testing.T) {
	c := Memory()
	cfg, other := gridConfig(10, 20, 40), gridConfig(5, 15, 45)
	if _, err := c.Characterise(cfg); err != nil {
		t.Fatal(err)
	}
	invalid := gridConfig(5)
	if _, err := c.Characterise(cfg, other, invalid); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st != (Stats{MemHits: 1, Misses: 1}) {
		t.Errorf("stats = %+v, want one miss and one mem hit", st)
	}
	if _, err := c.Characterise(other); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Errorf("a hit filled its companion: stats = %+v", st)
	}
}

// TestOwnTableSurvivesASmallLRU: a fill inserts the caller's table after
// its companions', so a one-entry LRU keeps the caller's.
func TestOwnTableSurvivesASmallLRU(t *testing.T) {
	c := Memory()
	c.maxEntries = 1
	cfg := gridConfig(10, 20, 40)
	if _, err := c.Characterise(cfg, gridConfig(5, 15, 45)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Characterise(cfg); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st != (Stats{Misses: 2, MemHits: 1}) {
		t.Errorf("stats = %+v, want 2 misses and the caller's table kept", st)
	}
}

// TestMissFillsMissingCompanionsInOnePass: cfg and the companions nobody
// has are characterised in one pass; a companion in memory is left alone,
// one on disk is loaded, and one in flight elsewhere is neither recomputed
// nor waited on. Duplicates and invalid companions are dropped.
func TestMissFillsMissingCompanionsInOnePass(t *testing.T) {
	dir := t.TempDir()
	cfg := gridConfig(10, 20, 40)
	inMemory, onDisk, inFlight, missing := gridConfig(5, 15, 45), gridConfig(3, 9, 27), gridConfig(4, 8, 32), gridConfig(6, 12, 36)

	seed, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Characterise(onDisk); err != nil {
		t.Fatal(err)
	}
	c, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Characterise(inMemory); err != nil {
		t.Fatal(err)
	}
	busy, err := Key(inFlight)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.inflight[busy] = &flight{done: make(chan struct{})}
	c.mu.Unlock()

	passes := countPasses(c)
	done := make(chan error, 1)
	var th *changepoint.Thresholds
	go func() {
		var err error
		th, err = c.Characterise(cfg, inMemory, onDisk, inFlight, missing, missing, cfg, gridConfig(5))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the fill waited on a companion in flight elsewhere")
	}

	if got := passes(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("characterisation passes = %v, want one pass of cfg and the missing companion", got)
	}
	if st := c.Stats(); st != (Stats{Misses: 3, DiskHits: 1}) {
		t.Errorf("stats = %+v, want 3 misses (inMemory, cfg, missing) and 1 disk hit", st)
	}
	if !reflect.DeepEqual(th.Snapshot(), fresh(t, cfg)) {
		t.Error("cfg's table differs from characterising it alone")
	}
	for name, w := range map[string]changepoint.Config{"missing": missing, "onDisk": onDisk} {
		got, err := c.Characterise(w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Snapshot(), fresh(t, w)) {
			t.Errorf("%s companion differs from characterising it alone", name)
		}
	}
	if st := c.Stats(); st.MemHits != 2 {
		t.Errorf("companions were not cached in memory: stats = %+v", st)
	}
	c.mu.Lock()
	if len(c.inflight) != 1 {
		t.Errorf("keys in flight after the fill: %d, want only the foreign one", len(c.inflight))
	}
	c.mu.Unlock()
}

// TestOverlappingFillsShareOnePass has concurrent callers ask for three
// configs, each leading with a different one and naming the others as
// companions: every table is characterised exactly once, in one pass, and
// every caller of a config receives the same instance.
func TestOverlappingFillsShareOnePass(t *testing.T) {
	c := Memory()
	passes := countPasses(c)
	cfgs := []changepoint.Config{gridConfig(10, 20, 40), gridConfig(5, 15, 45), gridConfig(6, 12, 36)}
	const callers = 12
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		tables  = map[int]map[*changepoint.Thresholds]bool{}
		release = make(chan struct{})
	)
	for i := 0; i < callers; i++ {
		lead := i % len(cfgs)
		var with []changepoint.Config
		for j := range cfgs {
			if j != lead {
				with = append(with, cfgs[j])
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			th, err := c.Characterise(cfgs[lead], with...)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			if tables[lead] == nil {
				tables[lead] = map[*changepoint.Thresholds]bool{}
			}
			tables[lead][th] = true
			mu.Unlock()
		}()
	}
	close(release)
	wg.Wait()
	for lead, seen := range tables {
		if len(seen) != 1 {
			t.Errorf("config %d: %d distinct table instances, want 1", lead, len(seen))
		}
	}
	if got := passes(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("characterisation passes = %v, want one pass of all three", got)
	}
	st := c.Stats()
	if st.Misses != 3 || st.Misses+st.Shared+st.MemHits != callers+2 {
		t.Errorf("stats = %+v, want 3 misses and every caller served", st)
	}
}

// TestFillErrorReachesEveryWaiter: a failed pass fails the caller and every
// caller joined to any key it claimed, caches nothing and leaves no key in
// flight, so the next call characterises afresh.
func TestFillErrorReachesEveryWaiter(t *testing.T) {
	c := Memory()
	cfg, companion := gridConfig(10, 20, 40), gridConfig(5, 15, 45)
	boom := errors.New("boom")
	started, gate := make(chan struct{}), make(chan struct{})
	c.characterise = func(...changepoint.Config) ([]*changepoint.Thresholds, error) {
		close(started)
		<-gate
		return nil, boom
	}
	errs := make(chan error, 3)
	go func() {
		_, err := c.Characterise(cfg, companion)
		errs <- err
	}()
	<-started
	for _, w := range []changepoint.Config{cfg, companion} {
		go func() {
			_, err := c.Characterise(w)
			errs <- err
		}()
	}
	for {
		if c.Stats().Shared == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Errorf("caller got %v, want the pass's error", err)
		}
	}
	c.mu.Lock()
	inflight, cached := len(c.inflight), c.order.Len()
	c.mu.Unlock()
	if inflight != 0 || cached != 0 {
		t.Errorf("after a failed fill: %d keys in flight, %d cached; want none", inflight, cached)
	}
	c.characterise = changepoint.Characterise
	if _, err := c.Characterise(cfg); err != nil {
		t.Errorf("the next call after a failed fill: %v", err)
	}
}

// TestJointFillServesAFreshCacheFromDisk: one joint fill of the five
// application grid shapes writes five entries, and a fresh Cache over the
// directory serves every grid from them, bit-identical to characterising
// it alone.
func TestJointFillServesAFreshCacheFromDisk(t *testing.T) {
	var grids []changepoint.Config
	for _, g := range []struct {
		lo, hi float64
		n      int
	}{{6, 44, 8}, {60, 150, 6}, {8, 34, 8}, {34, 80, 6}, {34, 150, 8}} {
		rates, err := changepoint.GeometricRates(g.lo, g.hi, g.n)
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, gridConfig(rates...))
	}
	dir := t.TempDir()
	c1, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One registry makes the pass's windows drawn observable.
	reg := obs.NewRegistry()
	o := obs.New(reg, nil)
	for i := range grids {
		grids[i].Obs = o
	}
	if _, err := c1.Characterise(grids[2], grids...); err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.Misses != 5 {
		t.Fatalf("joint fill stats = %+v, want 5 misses", st)
	}
	if got, want := reg.Snapshot().Counters["changepoint.characterise.draws"], float64(14*grids[0].CharacterisationWindows); got != want {
		t.Errorf("joint fill drew %v windows, want %v (14 streams, one pass)", got, want)
	}
	c2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Characterise(grids[0], grids...); err != nil {
		t.Fatal(err)
	}
	for _, g := range grids {
		th, err := c2.Characterise(g)
		if err != nil {
			t.Fatal(err)
		}
		g.Obs = nil
		if !reflect.DeepEqual(th.Snapshot(), fresh(t, g)) {
			t.Errorf("grid %v: disk entry differs from characterising it alone", g.Rates)
		}
	}
	if st := c2.Stats(); st != (Stats{DiskHits: 5, MemHits: 5}) {
		t.Errorf("fresh cache stats = %+v, want 5 disk hits then 5 mem hits", st)
	}
}

// TestPerRatioEntryStillHits serves an entry written by the per-ratio
// characterisation, before grids shared their null windows
// (testdata/per-ratio: characterize -rates 10,20,40 -m 40 -windows 150
// -seed 1): the key and the format are unchanged, so it is a disk hit,
// bit-identical to characterising the config today.
func TestPerRatioEntryStillHits(t *testing.T) {
	dir := t.TempDir()
	names, err := filepath.Glob(filepath.Join("testdata", "per-ratio", "*.thr.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want one per-ratio entry, got %v (%v)", names, err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(names[0])), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1)
	th, err := c.Characterise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st != (Stats{DiskHits: 1}) {
		t.Errorf("stats = %+v, want one disk hit", st)
	}
	if !reflect.DeepEqual(th.Snapshot(), fresh(t, cfg)) {
		t.Error("the per-ratio entry differs from characterising the config today")
	}
}
