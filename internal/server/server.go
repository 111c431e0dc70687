// Package server is the serving surface of the reproduction: an HTTP daemon
// that exposes the fleet batch engine (POST /v1/fleet), single-badge runs
// (POST /v1/run) and threshold characterisation warm-served from the
// content-addressed cache (POST /v1/thresholds), plus /healthz and /metrics.
// The paper's DVS+DPM policies are characterised offline and consumed
// online; this package is the online, request-driven half of that split.
//
// # Request handling
//
// Admission control is a bounded queue in front of a fixed-size execution
// slot pool: at most MaxInFlight requests run engine work concurrently,
// at most QueueDepth more wait for a slot, and anything beyond that is shed
// immediately with 429 and a Retry-After hint — the daemon degrades by
// refusing work it cannot schedule, never by queueing unboundedly.
//
// Per-request deadlines (the request body's timeout_ms, combined with the
// client disconnecting) propagate as a context.Context through
// parallel.ForEach into the fleet shard loops, which poll it between
// badges: a cancelled request aborts after the badge currently simulating,
// not after the whole batch, and the handler answers with a "cancelled"
// status as soon as the in-flight badges finish. Graceful shutdown
// (Shutdown) flips /healthz to draining, stops accepting work, and waits
// for in-flight requests to complete.
//
// # Determinism boundary
//
// The engines behind the endpoints are bit-deterministic, responses are
// rendered with a canonical JSON encoding, and no timing, identity or cache
// state leaks into a response body — so identical request bodies yield
// byte-identical 200 bodies regardless of concurrency, queueing or cache
// temperature. The transport itself (wall-clock latency metrics, Date
// headers, scheduling) is explicitly outside the determinism contract,
// which is why this package — like thrcache — is not a detcheck
// deterministic package while everything it calls into is.
package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/experiments"
	"smartbadge/internal/fleet"
	"smartbadge/internal/obs"
	"smartbadge/internal/thrcache"
	"smartbadge/internal/units"
)

// Defaults for Config fields left zero.
const (
	DefaultQueueDepth   = 64
	DefaultMaxInFlight  = 4
	DefaultMaxBadges    = 100_000
	DefaultMaxTimeoutMS = 600_000 // 10 minutes
	DefaultRetryAfterS  = 1
)

// Config tunes a Server. The zero value serves with the defaults above.
// /v1/thresholds and the /metrics cache gauges use the process-wide
// threshold cache (experiments.ThresholdCache) as it stands at New, the
// same cache the daemon's fleet runs characterise through.
type Config struct {
	// MaxInFlight bounds concurrently executing engine requests;
	// <= 0 selects DefaultMaxInFlight.
	MaxInFlight int
	// QueueDepth bounds requests waiting for an execution slot; when the
	// queue is full new work is shed with 429. <= 0 selects
	// DefaultQueueDepth.
	QueueDepth int
	// MaxBadges caps the batch size a single /v1/fleet request may ask
	// for; <= 0 selects DefaultMaxBadges.
	MaxBadges int
	// MaxTimeoutMS caps client-requested deadlines (timeout_ms values
	// above it are clamped); <= 0 selects DefaultMaxTimeoutMS.
	MaxTimeoutMS int64
	// RetryAfterS is the Retry-After hint attached to shed (429)
	// responses; <= 0 selects DefaultRetryAfterS.
	RetryAfterS int
	// IdemEntries bounds the completed-response LRU backing Idempotency-Key
	// replay; <= 0 selects DefaultIdemEntries.
	IdemEntries int
	// ReadHeaderTimeout bounds how long a connection may dribble request
	// headers before it is reaped (slow-loris defence; also what lets
	// Shutdown finish while a stalled client holds a connection).
	// <= 0 selects 10s.
	ReadHeaderTimeout time.Duration
	// ReadTimeout bounds reading one full request including its body;
	// <= 0 selects 2 minutes (bodies are capped at 1 MiB, so a slower
	// sender is stalling, not large).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing a response, measured from when request
	// reading begins; <= 0 derives MaxTimeoutMS + 1 minute so it never cuts
	// a run the deadline cap still allows. Runs with timeout_ms=0 are
	// transport-bounded by this value.
	WriteTimeout time.Duration
}

// route bundles one endpoint's pre-resolved instruments (obs handles are
// resolved once at construction, per the obs discipline).
type route struct {
	requests  *obs.Counter
	failures  *obs.Counter
	latencyMS *obs.Histogram
}

// Server is the daemon. Create with New; serve with Serve or via Handler.
type Server struct {
	cfg   Config
	cache *thrcache.Cache
	mux   *http.ServeMux
	httpd *http.Server

	sem      chan struct{} // execution slots; len == in-flight engine runs
	waiting  atomic.Int64  // admission queue depth
	inflight atomic.Int64
	draining atomic.Bool

	idem *idemCache

	metrics     *obs.Registry
	gQueue      *obs.Gauge
	gInFlight   *obs.Gauge
	cShed       *obs.Counter
	cCanceled   *obs.Counter
	cIdemMiss   *obs.Counter
	cIdemJoin   *obs.Counter
	cIdemReplay *obs.Counter
	cEngineFlt  *obs.Counter
	gCacheMem   *obs.Gauge
	gCacheDsk   *obs.Gauge
	gCacheMis   *obs.Gauge
	gCacheShr   *obs.Gauge
	gCacheHit   *obs.Gauge

	rFleet route
	rRun   route
	rThr   route

	// Engine seams; production wiring in New, replaced by tests to model
	// slow or blocking work without burning CPU.
	runFleet     func(ctx context.Context, cfg fleet.Config) (*fleet.Report, error)
	characterise func(cfg changepoint.Config) (*changepoint.Thresholds, error)
}

// latencyBucketsMS spans sub-millisecond health probes to multi-minute
// characterisations.
var latencyBucketsMS = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 30_000, 120_000}

// New assembles a Server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.MaxBadges <= 0 {
		cfg.MaxBadges = DefaultMaxBadges
	}
	if cfg.MaxTimeoutMS <= 0 {
		cfg.MaxTimeoutMS = DefaultMaxTimeoutMS
	}
	if cfg.RetryAfterS <= 0 {
		cfg.RetryAfterS = DefaultRetryAfterS
	}
	if cfg.IdemEntries <= 0 {
		cfg.IdemEntries = DefaultIdemEntries
	}
	if cfg.ReadHeaderTimeout <= 0 {
		cfg.ReadHeaderTimeout = 10 * time.Second
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 2 * time.Minute
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = time.Duration(cfg.MaxTimeoutMS)*time.Millisecond + time.Minute
	}
	cache := experiments.ThresholdCache()
	m := obs.NewRegistry()
	s := &Server{
		cfg:         cfg,
		cache:       cache,
		mux:         http.NewServeMux(),
		sem:         make(chan struct{}, cfg.MaxInFlight),
		idem:        newIdemCache(cfg.IdemEntries),
		metrics:     m,
		gQueue:      m.Gauge("server.queue.depth"),
		gInFlight:   m.Gauge("server.inflight"),
		cShed:       m.Counter("server.shed"),
		cCanceled:   m.Counter("server.cancelled"),
		cIdemMiss:   m.Counter("server.idem.miss"),
		cIdemJoin:   m.Counter("server.idem.join"),
		cIdemReplay: m.Counter("server.idem.replay"),
		cEngineFlt:  m.Counter("server.engine.fleet_runs"),
		gCacheMem:   m.Gauge("server.thrcache.mem_hits"),
		gCacheDsk:   m.Gauge("server.thrcache.disk_hits"),
		gCacheMis:   m.Gauge("server.thrcache.misses"),
		gCacheShr:   m.Gauge("server.thrcache.shared"),
		gCacheHit:   m.Gauge("server.thrcache.hit_ratio"),
		rFleet: route{
			requests:  m.Counter("server.fleet.requests"),
			failures:  m.Counter("server.fleet.failures"),
			latencyMS: m.Histogram("server.fleet.latency_ms", latencyBucketsMS),
		},
		rRun: route{
			requests:  m.Counter("server.run.requests"),
			failures:  m.Counter("server.run.failures"),
			latencyMS: m.Histogram("server.run.latency_ms", latencyBucketsMS),
		},
		rThr: route{
			requests:  m.Counter("server.thresholds.requests"),
			failures:  m.Counter("server.thresholds.failures"),
			latencyMS: m.Histogram("server.thresholds.latency_ms", latencyBucketsMS),
		},
		runFleet: fleet.RunCtx,
	}
	// /v1/thresholds characterises a request's grid alone.
	s.characterise = func(cfg changepoint.Config) (*changepoint.Thresholds, error) { return cache.Characterise(cfg) }
	s.mux.HandleFunc("/v1/fleet", s.handleFleet)
	s.mux.HandleFunc("/v1/run", s.handleRun)
	s.mux.HandleFunc("/v1/thresholds", s.handleThresholds)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.httpd = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
	}
	return s
}

// engineFleet is the counted engine entry point: every real batch
// computation passes through here, so server.engine.fleet_runs is the
// ground truth for "a retry performed zero additional simulations".
func (s *Server) engineFleet(ctx context.Context, cfg fleet.Config) (*fleet.Report, error) {
	s.cEngineFlt.Inc()
	return s.runFleet(ctx, cfg)
}

// Handler returns the daemon's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the daemon's metrics registry.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Serve accepts connections on l until Shutdown; it returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error { return s.httpd.Serve(l) }

// Shutdown drains the daemon gracefully: /healthz flips to draining and
// rejects new engine work, the listener closes, and Shutdown blocks until
// every in-flight request has completed or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.httpd.Shutdown(ctx)
}

// Admission outcomes. errShed and errDraining are terminal HTTP conditions;
// a context error means the client went away while queued.
var (
	errShed     = errors.New("server: admission queue full")
	errDraining = errors.New("server: draining, not accepting new work")
)

// admit reserves an execution slot, waiting in the bounded queue if all
// slots are busy. It returns a release closure on success; on failure the
// error is errShed, errDraining, or ctx.Err().
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	for {
		cur := s.waiting.Load()
		if cur >= int64(s.cfg.QueueDepth) {
			s.cShed.Inc()
			return nil, errShed
		}
		if s.waiting.CompareAndSwap(cur, cur+1) {
			break
		}
	}
	s.gQueue.Set(float64(s.waiting.Load()))
	defer func() {
		s.gQueue.Set(float64(s.waiting.Add(-1)))
	}()
	select {
	case s.sem <- struct{}{}:
		s.gInFlight.Set(float64(s.inflight.Add(1)))
		return func() {
			<-s.sem
			s.gInFlight.Set(float64(s.inflight.Add(-1)))
		}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// requestCtx derives the request context: the client's (cancels on
// disconnect) bounded by the body's timeout_ms when one is given, clamped
// to the configured maximum.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	if timeoutMS <= 0 {
		return context.WithCancel(r.Context())
	}
	if timeoutMS > s.cfg.MaxTimeoutMS {
		timeoutMS = s.cfg.MaxTimeoutMS
	}
	return context.WithTimeout(r.Context(), time.Duration(timeoutMS)*time.Millisecond)
}

// observeLatency records one request's wall-clock service time. Transport
// telemetry only — never part of a response body.
func observeLatency(rt *route, start time.Time) {
	rt.latencyMS.Observe(units.SToMS(time.Since(start).Seconds()))
}

// scrapeCacheStats refreshes the threshold-cache gauges from the live
// counters; called on each /metrics scrape.
func (s *Server) scrapeCacheStats() {
	st := s.cache.Stats()
	s.gCacheMem.Set(float64(st.MemHits))
	s.gCacheDsk.Set(float64(st.DiskHits))
	s.gCacheMis.Set(float64(st.Misses))
	s.gCacheShr.Set(float64(st.Shared))
	served := st.MemHits + st.DiskHits + st.Misses + st.Shared
	if served == 0 {
		s.gCacheHit.Set(0)
		return
	}
	s.gCacheHit.Set(float64(st.MemHits+st.DiskHits+st.Shared) / float64(served))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthResponse{
		Status:   status,
		InFlight: s.inflight.Load(),
		Queued:   s.waiting.Load(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.scrapeCacheStats()
	w.Header().Set("Content-Type", "application/json")
	if err := s.metrics.WriteJSON(w); err != nil {
		// Headers are gone; nothing useful left to do.
		return
	}
}

// retryAfterValue renders the Retry-After header for shed (429) and
// draining (503) responses from the current queue depth: with the queue no
// deeper than one in-flight generation the configured hint stands, and a
// deeper queue scales it by the number of generations ahead — a client
// shed behind 3× MaxInFlight waiters retrying after one hint interval
// would land right back in the same full queue.
func (s *Server) retryAfterValue() string {
	return strconv.Itoa(s.retryAfterSeconds(int(s.waiting.Load())))
}

func (s *Server) retryAfterSeconds(waiting int) int {
	hint := s.cfg.RetryAfterS
	if waiting > s.cfg.MaxInFlight {
		generations := (waiting + s.cfg.MaxInFlight - 1) / s.cfg.MaxInFlight
		hint *= generations
	}
	return hint
}
