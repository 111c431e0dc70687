// Package thrcache is a content-addressed, versioned cache for the expensive
// off-line change-point threshold characterisation
// (changepoint.Characterise) — the Monte Carlo step the paper runs once per
// rate grid so the on-line detector stays cheap. The repository used to
// repeat it in every dvsim/sweep/test process; this cache makes it
// run-once-per-config across processes.
//
// # Keying
//
// The key is the SHA-256 of a canonical binary encoding of exactly the
// changepoint.Config fields that determine the characterisation output: a
// format version, the window size m, the confidence quantile, the number of
// null windows per ratio, the seed, and the rate grid in its given order
// (the per-ratio RNG stream assignment follows the grid's scan order, so
// order matters). Fields that cannot change the result — CheckInterval,
// Workers (characterisation is bit-identical for any worker count), Obs —
// are deliberately excluded so they can never cause a spurious miss.
//
// # Storage and integrity
//
// Lookups are served from an in-memory LRU first, then from the on-disk
// store: one file per key holding a SHA-256 checksum line followed by a JSON
// payload in which every float64 travels as its exact IEEE-754 bit pattern.
// Writes go to a temporary file in the cache directory, fsynced, and then
// renamed into place atomically, so a reader never observes a partial entry
// and a published entry survives a power cut; an entry that is truncated,
// corrupted, checksum-mismatched, version-skewed or keyed for a different
// config is rejected and recomputed, never returned. Store failures
// (read-only directory, full disk) silently degrade the cache to
// memory-only — caching is best-effort, correctness never depends on it.
// Temp files orphaned by a writer that crashed before its rename are
// garbage-collected the next time the cache directory is opened.
//
// All disk traffic goes through the injectable fsfault.FS seam, so every
// rejection and degradation path is regression-tested under seeded ENOSPC,
// torn-write, crash-before-rename and bit-rot fault plans.
//
// Concurrent requests for the same key share one computation (single
// flight): the first caller characterises, the rest block and receive the
// same table.
//
// # Companions
//
// Characterise(cfg, with...) names configs worth characterising alongside
// cfg. A hit on cfg looks up cfg's key alone and ignores them. A miss claims
// every companion that is neither in memory nor in flight under the same
// lock as cfg, loads each claimed key from disk where it can, and
// characterises the rest with cfg in one changepoint.Characterise call,
// which draws each null window once for every config that shares the seed,
// window size and window count. Each table is stored under its own key and
// counted as its own Miss or DiskHit; cfg is inserted last. Companions
// already cached are never recomputed, and companions in flight elsewhere
// are not waited on.
//
// # Determinism
//
// Characterise is bit-deterministic for a fixed Config and the entry format
// round-trips floats exactly, so a cache hit — memory or disk — is
// bit-identical to a fresh characterisation. The package tests and the root
// golden regression assert this.
//
// This package deliberately sits OUTSIDE the deterministic core enforced by
// internal/analysis/detcheck: it owns disk I/O and observes filesystem
// state. Everything it returns is nevertheless a pure function of the Config
// by construction.
package thrcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/faults/fsfault"
)

// FormatVersion is baked into both the key derivation and the on-disk entry.
// Bump it whenever the thresholds a config characterises to change (a new
// statistic, RNG stream layout or quantile rule) or the entry format changes
// meaning: old entries then miss (key side) or are rejected (entry side)
// instead of silently serving stale thresholds. A change to how the
// characterisation computes bit-identical thresholds, such as sharing null
// windows across grids, keeps the version.
const FormatVersion = 1

// memEntries bounds the in-memory LRU. The five application grids and a
// handful of ad-hoc characterisations fit with room to spare.
const memEntries = 64

// Stats counts cache outcomes since creation.
type Stats struct {
	// MemHits served from the in-memory LRU.
	MemHits uint64
	// DiskHits loaded (and verified) from the on-disk store.
	DiskHits uint64
	// Misses characterised from scratch.
	Misses uint64
	// Shared joined an in-flight characterisation for the same key.
	Shared uint64
	// Rejected counts on-disk entries discarded as corrupt, truncated,
	// version-skewed or mis-keyed (each also counted as a miss once
	// recomputed).
	Rejected uint64
}

// Cache memoises Characterise results. Safe for concurrent use.
type Cache struct {
	fs  fsfault.FS
	dir string // "" = memory-only
	// maxEntries bounds the in-memory LRU: memEntries, which tests shrink.
	maxEntries int

	// characterise is changepoint.Characterise; tests replace it to gate or
	// fail a fill.
	characterise func(cfgs ...changepoint.Config) ([]*changepoint.Thresholds, error)

	mu       sync.Mutex
	entries  map[string]*list.Element // key -> LRU element holding *memEntry
	order    *list.List               // front = most recently used
	inflight map[string]*flight
	stats    Stats
}

type memEntry struct {
	key string
	th  *changepoint.Thresholds
}

type flight struct {
	done chan struct{}
	th   *changepoint.Thresholds
	err  error
}

// New returns a cache backed by dir (created if missing). An empty dir makes
// the cache memory-only. The in-memory LRU holds the 64 most recently used
// tables.
func New(dir string) (*Cache, error) {
	return NewFS(fsfault.OS(), dir)
}

// NewFS is New with an injectable filesystem seam — the hook the fault
// plans use to prove the cache's degradation paths.
func NewFS(fs fsfault.FS, dir string) (*Cache, error) {
	c := &Cache{
		fs:           fs,
		dir:          dir,
		maxEntries:   memEntries,
		characterise: changepoint.Characterise,
		entries:      make(map[string]*list.Element),
		order:        list.New(),
		inflight:     make(map[string]*flight),
	}
	if dir != "" {
		if err := fs.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("thrcache: %w", err)
		}
		c.collectOrphans()
	}
	return c, nil
}

// collectOrphans removes tmp-* files left behind by writers that crashed
// between CreateTemp and their rename. Published entries are never
// touched; failures are ignored (best-effort, like the stores that
// created the orphans).
func (c *Cache) collectOrphans() {
	names, err := c.fs.ReadDirNames(c.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if strings.HasPrefix(name, "tmp-") {
			c.fs.Remove(filepath.Join(c.dir, name))
		}
	}
}

// Memory returns a memory-only cache (in-process memoisation with single
// flight, no disk).
func Memory() *Cache {
	c, err := New("")
	if err != nil {
		panic(err) // unreachable: New("") cannot fail
	}
	return c
}

// Open resolves a -thr-cache flag value:
//
//	"", "off"  memory-only (the escape hatch: never touches disk)
//	"auto"     the per-user default directory (os.UserCacheDir()/
//	           smartbadge/thresholds); memory-only if no user cache
//	           directory can be determined
//	anything   that directory
func Open(spec string) (*Cache, error) {
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "", "off":
		return Memory(), nil
	case "auto":
		base, err := os.UserCacheDir()
		if err != nil {
			return Memory(), nil
		}
		return New(filepath.Join(base, "smartbadge", "thresholds"))
	default:
		return New(spec)
	}
}

// Dir returns the on-disk store directory ("" for a memory-only cache).
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the outcome counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Key derives the content-addressed cache key for cfg (validating it first).
// See the package comment for what is — and is deliberately not — keyed.
func Key(cfg changepoint.Config) (string, error) {
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(FormatVersion)
	put(uint64(cfg.WindowSize))
	put(math.Float64bits(cfg.Confidence))
	put(uint64(cfg.CharacterisationWindows))
	put(cfg.Seed)
	put(uint64(len(cfg.Rates)))
	for _, r := range cfg.Rates {
		put(math.Float64bits(r))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Characterise returns the threshold table for cfg, from cache when
// possible. The returned *Thresholds is shared and must be treated as
// read-only (its API is). Hits are bit-identical to a fresh
// changepoint.Characterise(cfg). A hit looks up cfg alone; a miss also fills
// the with configs the cache lacks (see Companions in the package comment).
// Companions that do not validate are skipped, and duplicates are dropped.
func (c *Cache) Characterise(cfg changepoint.Config, with ...changepoint.Config) (*changepoint.Thresholds, error) {
	key, err := Key(cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.stats.MemHits++
		th := el.Value.(*memEntry).th
		c.mu.Unlock()
		return th, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.stats.Shared++
		c.mu.Unlock()
		<-fl.done
		return fl.th, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	var claims []claim
	for _, w := range with {
		k, err := Key(w)
		if err != nil {
			continue
		}
		_, cached := c.entries[k]
		if _, busy := c.inflight[k]; cached || busy {
			continue
		}
		wf := &flight{done: make(chan struct{})}
		c.inflight[k] = wf
		claims = append(claims, claim{key: k, cfg: w, fl: wf})
	}
	// cfg goes last, so it is inserted last and survives a small LRU.
	claims = append(claims, claim{key: key, cfg: cfg, fl: fl})
	c.mu.Unlock()

	c.fill(claims)
	return fl.th, fl.err
}

// claim is one key a fill resolves: the caller's own or a companion's.
type claim struct {
	key      string
	cfg      changepoint.Config
	fl       *flight
	fromDisk bool
}

// fill resolves claimed keys outside the cache lock (this is the slow path
// the single flight protects): each from disk where a valid entry exists,
// the rest in one characterisation with a best-effort store. It then
// publishes every result, in claim order, and releases every waiter; an
// error reaches every claim that was characterised.
func (c *Cache) fill(claims []claim) {
	var (
		rejected uint64
		todo     []*claim
		cfgs     []changepoint.Config
	)
	for i := range claims {
		cl := &claims[i]
		if c.dir != "" {
			th, ok, rej := c.load(cl.key)
			rejected += rej
			if ok {
				cl.fl.th, cl.fromDisk = th, true
				continue
			}
		}
		todo = append(todo, cl)
		cfgs = append(cfgs, cl.cfg)
	}
	if len(todo) > 0 {
		ths, err := c.characterise(cfgs...)
		for i, cl := range todo {
			if err != nil {
				cl.fl.err = err
				continue
			}
			cl.fl.th = ths[i]
			if c.dir != "" {
				c.store(cl.key, ths[i]) // best-effort; see package comment
			}
		}
	}

	c.mu.Lock()
	c.stats.Rejected += rejected
	for _, cl := range claims {
		delete(c.inflight, cl.key)
		if cl.fl.err != nil {
			continue
		}
		if cl.fromDisk {
			c.stats.DiskHits++
		} else {
			c.stats.Misses++
		}
		c.insertLocked(cl.key, cl.fl.th)
	}
	c.mu.Unlock()
	for _, cl := range claims {
		close(cl.fl.done)
	}
}

// insertLocked adds the entry to the LRU, evicting from the back past
// maxEntries. Caller holds c.mu.
func (c *Cache) insertLocked(key string, th *changepoint.Thresholds) {
	if el, ok := c.entries[key]; ok { // lost a race with a later fill: refresh
		el.Value.(*memEntry).th = th
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&memEntry{key: key, th: th})
	for c.order.Len() > c.maxEntries {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*memEntry).key)
	}
}

// diskEntry is the JSON payload of one on-disk entry. Every float64 is
// carried as the 16-hex-digit big-endian rendering of its IEEE-754 bits so
// the round trip is exact by construction, independent of any formatter.
type diskEntry struct {
	Version        int      `json:"version"`
	Key            string   `json:"key"`
	WindowSize     int      `json:"window_size"`
	ConfidenceBits string   `json:"confidence_bits"`
	RatioBits      []string `json:"ratio_bits"`
	ValueBits      []string `json:"value_bits"`
}

const checksumPrefix = "sha256 "

// checksumLine renders the integrity header (without trailing newline) for a
// payload.
func checksumLine(payload []byte) string {
	return checksumPrefix + fmt.Sprintf("%x", sha256.Sum256(payload))
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".thr.json")
}

func floatBits(f float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(f))
}

func parseBits(s string) (float64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	u, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return math.Float64frombits(u), true
}

// load reads and verifies the on-disk entry for key. A missing file is a
// plain miss; anything present-but-invalid counts in rejected.
func (c *Cache) load(key string) (th *changepoint.Thresholds, ok bool, rejected uint64) {
	data, err := c.fs.ReadFile(c.path(key))
	if err != nil {
		return nil, false, 0
	}
	reject := func() (*changepoint.Thresholds, bool, uint64) { return nil, false, 1 }
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return reject()
	}
	header, payload := string(data[:nl]), data[nl+1:]
	if header != checksumLine(payload) {
		return reject()
	}
	var e diskEntry
	if json.Unmarshal(payload, &e) != nil {
		return reject()
	}
	if e.Version != FormatVersion || e.Key != key {
		return reject()
	}
	conf, okc := parseBits(e.ConfidenceBits)
	if !okc || len(e.RatioBits) != len(e.ValueBits) {
		return reject()
	}
	set := changepoint.ThresholdSet{
		WindowSize: e.WindowSize,
		Confidence: conf,
		Ratios:     make([]float64, len(e.RatioBits)),
		Values:     make([]float64, len(e.ValueBits)),
	}
	for i := range e.RatioBits {
		r, okr := parseBits(e.RatioBits[i])
		v, okv := parseBits(e.ValueBits[i])
		if !okr || !okv {
			return reject()
		}
		set.Ratios[i], set.Values[i] = r, v
	}
	restored, err := changepoint.RestoreThresholds(set)
	if err != nil {
		return reject()
	}
	return restored, true, 0
}

// store writes the entry atomically: temp file in the cache directory,
// fsync, then rename — the fsync before the rename is what makes the
// published entry durable across a power cut rather than just atomic
// against concurrent readers. Errors are swallowed — a failed store leaves
// the cache memory-only for this entry, it never corrupts the store
// (rename is atomic) or the caller (the in-memory table is already
// correct); any temp file it strands is collected on the next open.
func (c *Cache) store(key string, th *changepoint.Thresholds) {
	snap := th.Snapshot()
	e := diskEntry{
		Version:        FormatVersion,
		Key:            key,
		WindowSize:     snap.WindowSize,
		ConfidenceBits: floatBits(snap.Confidence),
		RatioBits:      make([]string, len(snap.Ratios)),
		ValueBits:      make([]string, len(snap.Values)),
	}
	for i := range snap.Ratios {
		e.RatioBits[i] = floatBits(snap.Ratios[i])
		e.ValueBits[i] = floatBits(snap.Values[i])
	}
	payload, err := json.Marshal(e)
	if err != nil {
		return
	}
	tmp, err := c.fs.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write([]byte(checksumLine(payload) + "\n"))
	if werr == nil {
		_, werr = tmp.Write(payload)
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil || c.fs.Rename(tmp.Name(), c.path(key)) != nil {
		c.fs.Remove(tmp.Name())
	}
}
