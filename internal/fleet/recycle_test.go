package fleet

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"smartbadge/internal/experiments"
)

// warmShardMallocs pins the heap allocations of a warm shard state running
// the 12 badges of the default mix at seed 7: trace frames, the frame FIFO
// and the detector's window all reuse capacity the first pass grew. A rise
// fails; a fall must lower the pin in the same change.
const warmShardMallocs = 824

// warmShardBytesPerBadge bounds the bytes such a badge allocates; a trace
// regenerated into fresh memory alone costs 0.8–2.2 MB.
const warmShardBytesPerBadge = 32 << 10

// TestWarmShardAllocation is the allocation gate for a warm shard. One state
// runs the default mix's 12 badges once to warm (threshold tables included),
// then three more times, each inside a MemStats delta; the least of the three
// is gated, since anything else running (under -race, a sync.Pool's random
// drops) can only add. It drives runBadge directly rather than the pool, so
// neither the collector nor those drops can take the shard's state away. The
// test is not parallel.
func TestWarmShardAllocation(t *testing.T) {
	cfg := Config{Badges: 12, Seed: 7}
	if err := cfg.normalise(); err != nil {
		t.Fatal(err)
	}
	st := newShardState()
	pass := func() {
		for i := 0; i < cfg.Badges; i++ {
			if _, err := runBadge(&cfg, i, st); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	mallocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for k := 0; k < 3; k++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	perBadge := float64(bytes) / float64(cfg.Badges)
	t.Logf("warm pass: %d mallocs, %.1f KiB per badge", mallocs, perBadge/1024)
	if mallocs != warmShardMallocs {
		t.Errorf("warm pass made %d heap allocations, pinned at %d (a rise is a regression; after a fall, lower the pin)",
			mallocs, warmShardMallocs)
	}
	if perBadge > warmShardBytesPerBadge {
		t.Errorf("warm badge allocated %.0f bytes, want at most %d", perBadge, warmShardBytesPerBadge)
	}
}

// TestConcurrentBatchesMatchSerial: batches of different shapes running at
// once draw shard states from one pool, so a state warmed by one batch's
// MPEG badge serves another's MP3 badge. Each report must still equal the
// one its config produces alone. Run under -race -count=10 to exercise the
// pool's hand-offs.
func TestConcurrentBatchesMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("the 48-badge default mix is slow")
	}
	configs := []Config{
		{Badges: 48, Seed: 7, Workers: 2},
		{Badges: 12, Seed: 7, Workers: 2, Apps: []string{"mp3"},
			Policies: []experiments.PolicyKind{experiments.ExpAvg}, DPMs: []string{"none"}},
		{Badges: 7, Seed: 11, Workers: 3, Apps: []string{"mp3"}},
		{Badges: 5, Seed: 3, Workers: 2, Apps: []string{"mpeg", "mixed"}, DPMs: []string{"renewal"}},
	}
	serial := make([]*Report, len(configs))
	for i, cfg := range configs {
		rep, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = rep
	}
	var wg sync.WaitGroup
	for i, cfg := range configs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			rep, err := RunCtx(context.Background(), cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(rep, serial[i]) {
				t.Errorf("config %d: concurrent report diverged from its serial run", i)
			}
		}(i, cfg)
	}
	wg.Wait()
}
