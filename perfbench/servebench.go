package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"smartbadge/internal/client"
	"smartbadge/internal/experiments"
	"smartbadge/internal/fleet"
	"smartbadge/internal/server"
	"smartbadge/internal/sim"
	"smartbadge/internal/stats"
)

const (
	// freshRate is the open-loop rate of fresh /v1/run requests, about a
	// third of one core at the default mix's per-badge cost. At higher load
	// the queue behind the one fresh connection makes the median latency
	// depend more on where a seed's arrivals cluster than on the code.
	freshRate = 6.0
	// replayRate is the open-loop rate of replayed /v1/fleet requests.
	replayRate = 50.0
	// replayBodies distinct /v1/fleet bodies of replayBadges badges each
	// are computed during set-up and re-posted during the window.
	replayBodies = 8
	replayBadges = 24
	// idemEntries keeps every completed response of a run resident, so no
	// leader is evicted before its replays.
	idemEntries = 4096
)

// reqHeader carries a traced request's identifier and client span from the
// benchmark's transport to its handler wrapper, which removes it before
// the daemon sees the request.
const reqHeader = "X-Perfbench-Req"

type reqIDKey struct{}

// tagTransport copies the request identifier in the context, if any, into
// reqHeader.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(reqIDKey{}).(string); ok {
		req = req.Clone(req.Context())
		req.Header.Set(reqHeader, id)
	}
	return t.base.RoundTrip(req)
}

// spanHandler records a server.handler span around every tagged request,
// as a child of the client span named in the tag.
func spanHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tag := r.Header.Get(reqHeader)
		if tr == nil || tag == "" {
			h.ServeHTTP(w, r)
			return
		}
		r.Header.Del(reqHeader)
		req, parent, _ := strings.Cut(tag, "|")
		p, _ := strconv.Atoi(parent)
		id := tr.begin("server.handler", r.URL.Path, req, p)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// rig is one daemon on a loopback listener with the two load-generator
// clients, one connection each, and the replay leaders it has answered.
type rig struct {
	srv           *server.Server
	ts            *httptest.Server
	fresh, replay *client.Client
	transports    []*http.Transport
	closeOnce     sync.Once
	leaderBodies  [][]byte
	leaders       [][]byte
	leaderCfgs    []fleet.Config
}

func newRig(seed uint64, tr *tracer) (*rig, error) {
	experiments.SetThresholdCache(nil)
	g := &rig{srv: server.New(server.Config{IdemEntries: idemEntries})}
	g.ts = httptest.NewServer(spanHandler(g.srv.Handler(), tr))
	for i, c := range []**client.Client{&g.fresh, &g.replay} {
		t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		g.transports = append(g.transports, t)
		cl, err := client.New(client.Config{
			BaseURL: g.ts.URL,
			HTTP:    &http.Client{Transport: tagTransport{t}},
			Seed:    subSeed(seed, streamClient, i),
		})
		if err != nil {
			g.close()
			return nil, err
		}
		*c = cl
	}
	return g, nil
}

// close stops the daemon; it returns once every handler, and so every
// handler span, has finished.
func (g *rig) close() {
	g.closeOnce.Do(func() {
		for _, t := range g.transports {
			t.CloseIdleConnections()
		}
		g.ts.Close()
	})
}

// warm brings a fresh daemon to its first checked results: one
// change-point /v1/run per app, which characterises every threshold grid
// the mix uses, and the replay leaders.
func (g *rig) warm(ctx context.Context, seed uint64) error {
	for i, app := range fleet.DefaultApps() {
		req := server.RunRequest{App: app, Policy: experiments.ChangePoint.WireName(), DPM: "none", Seed: subSeed(seed, streamSetup, i)}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		got, err := g.fresh.Run(ctx, body)
		if err != nil {
			return fmt.Errorf("set-up /v1/run: %w", err)
		}
		want, _, err := inProcessRun(ctx, req, nil, "")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("set-up /v1/run answered %q, in-process run gives %q", got, want)
		}
	}
	for j := 0; j < replayBodies; j++ {
		req := server.FleetRequest{
			Badges:   replayBadges,
			Seed:     subSeed(seed, streamReplayBody, j),
			Apps:     leanShape.apps,
			Policies: []string{leanShape.pols[0].WireName()},
			DPMs:     leanShape.dpms,
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		got, err := g.replay.Fleet(ctx, body)
		if err != nil {
			return fmt.Errorf("set-up /v1/fleet: %w", err)
		}
		var resp server.FleetResponse
		if err := json.Unmarshal(got, &resp); err != nil || resp.Status != "ok" || len(resp.Badges) != replayBadges {
			return fmt.Errorf("set-up /v1/fleet answered %.200q (decode error %v)", got, err)
		}
		pols, _ := experiments.ParsePolicyKind(req.Policies[0])
		g.leaderBodies = append(g.leaderBodies, body)
		g.leaders = append(g.leaders, got)
		g.leaderCfgs = append(g.leaderCfgs, fleet.Config{
			Badges: req.Badges, Seed: req.Seed, Apps: req.Apps,
			Policies: []experiments.PolicyKind{pols}, DPMs: req.DPMs,
		})
	}
	return nil
}

// counters reads the daemon's counters from /metrics.
func (g *rig) counters(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.ts.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.ts.Client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	defer resp.Body.Close()
	var m struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m.Counters, nil
}

func (g *rig) retries() int64 { return g.fresh.Stats().Retries + g.replay.Stats().Retries }

// runConfig lowers a /v1/run body to the one-badge batch the daemon runs.
func runConfig(req server.RunRequest) (fleet.Config, error) {
	pol, err := experiments.ParsePolicyKind(req.Policy)
	if err != nil {
		return fleet.Config{}, err
	}
	return fleet.Config{Badges: 1, Seed: req.Seed, Workers: 1, Apps: []string{req.App},
		Policies: []experiments.PolicyKind{pol}, DPMs: []string{req.DPM}}, nil
}

// engineTimes are the in-process costs of answering one /v1/run.
type engineTimes struct {
	engine, marshal time.Duration
	badge           fleet.BadgeResult
}

// inProcessRun computes the answer /v1/run must give for req: the same
// one-badge fleet.RunCtx, rendered the way the daemon renders it. With a
// tracer it records server.engine and server.marshal spans under req id.
func inProcessRun(ctx context.Context, req server.RunRequest, tr *tracer, id string) ([]byte, engineTimes, error) {
	var et engineTimes
	cfg, err := runConfig(req)
	if err != nil {
		return nil, et, err
	}
	sp := tr.begin("server.engine", req.Policy, id, 0)
	t0 := time.Now()
	rep, err := fleet.RunCtx(ctx, cfg)
	et.engine = time.Since(t0)
	tr.end(sp)
	if err == nil {
		err = checkReport(rep, 1)
	}
	if err != nil {
		return nil, et, err
	}
	et.badge = rep.Badges[0]
	sp = tr.begin("server.marshal", "", id, 0)
	t0 = time.Now()
	body, err := json.Marshal(server.RunResponse{Status: "ok", Badge: badgeJSON(rep.Badges[0])})
	et.marshal = time.Since(t0)
	tr.end(sp)
	return append(body, '\n'), et, err
}

// inProcessFleet renders the /v1/fleet answer for cfg.
func inProcessFleet(ctx context.Context, cfg fleet.Config) ([]byte, error) {
	rep, err := fleet.RunCtx(ctx, cfg)
	if err == nil {
		err = checkReport(rep, cfg.Badges)
	}
	if err != nil {
		return nil, err
	}
	a := rep.Agg
	resp := server.FleetResponse{
		Status: "ok",
		Agg: server.AggregateJSON{
			Runs: a.Runs, TotalEnergyJ: a.TotalEnergyJ, TotalSimS: a.TotalSimS,
			EnergyP50J: a.EnergyP50J, EnergyP90J: a.EnergyP90J, EnergyP99J: a.EnergyP99J,
			DelayP50S: a.DelayP50S, DelayP90S: a.DelayP90S, DelayP99S: a.DelayP99S,
		},
		Badges: make([]server.BadgeJSON, len(rep.Badges)),
	}
	for i, b := range rep.Badges {
		resp.Badges[i] = badgeJSON(b)
	}
	body, err := json.Marshal(resp)
	return append(body, '\n'), err
}

func badgeJSON(b fleet.BadgeResult) server.BadgeJSON {
	return server.BadgeJSON{
		Index: b.Index, App: b.App, Policy: b.Policy.WireName(), DPM: b.DPM,
		EnergyJ: b.EnergyJ, MeanDelayS: b.MeanDelayS, SimTimeS: b.SimTimeS, AvgPowerW: b.AvgPowerW,
		FramesDecoded: b.FramesDecoded, Sleeps: b.Sleeps,
	}
}

// freshRequests cycles fleet's default 12-way mix with a distinct seed per
// request, so every one is an engine run.
func freshRequests(seed uint64, n int) ([]server.RunRequest, [][]byte, error) {
	var mix fleet.Config
	reqs := make([]server.RunRequest, n)
	bodies := make([][]byte, n)
	for k := range reqs {
		spec := mix.SpecFor(k)
		reqs[k] = server.RunRequest{App: spec.App, Policy: spec.Policy.WireName(), DPM: spec.DPM, Seed: subSeed(seed, streamFresh, k)}
		b, err := json.Marshal(reqs[k])
		if err != nil {
			return nil, nil, err
		}
		bodies[k] = b
	}
	return reqs, bodies, nil
}

// clientSpan opens a client.request span for every other request when
// tracing, so traced and untraced requests interleave under the same load
// and their difference is the tracing overhead. It returns the context
// that tags the request and the function that closes the span.
func clientSpan(ctx context.Context, tr *tracer, path string, k int) (context.Context, func()) {
	if tr == nil || k%2 != 0 {
		return ctx, func() {}
	}
	req := path + "/" + strconv.Itoa(k)
	id := tr.begin("client.request", path, req, 0)
	return context.WithValue(ctx, reqIDKey{}, req+"|"+strconv.Itoa(id)), func() { tr.end(id) }
}

func runServe(ctx context.Context, o options) (*result, error) {
	var tr *tracer
	if o.traced {
		tr = newTracer(false)
	}
	var (
		g     *rig
		setup []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if g != nil {
			g.close()
		}
		start := time.Now()
		var err error
		if g, err = newRig(o.seed, tr); err != nil {
			return nil, err
		}
		if err := g.warm(ctx, o.seed); err != nil {
			g.close()
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	defer g.close()
	r := newResult()
	r.values["setup_s"] = percentile(setup, 0.5)
	r.note("setup_s samples: %.4g s", setup)

	freshDue := poissonSchedule(stats.NewRNG(subSeed(o.seed, streamFreshSched, 0)), freshRate, o.window)
	replayDue := poissonSchedule(stats.NewRNG(subSeed(o.seed, streamReplaySched, 0)), replayRate, o.window)
	if len(freshDue)+replayBodies+len(fleet.DefaultApps()) > idemEntries {
		return nil, fmt.Errorf("a %v window schedules %d fresh requests, more than the daemon keeps for replay", o.window, len(freshDue))
	}
	freshReqs, freshBodies, err := freshRequests(o.seed, len(freshDue))
	if err != nil {
		return nil, err
	}
	pickRNG := stats.NewRNG(subSeed(o.seed, streamReplayPick, 0))
	picks := make([]int, len(replayDue))
	for k := range picks {
		picks[k] = pickRNG.Intn(replayBodies)
	}

	before, err := g.counters(ctx)
	if err != nil {
		return nil, err
	}
	retries0 := g.retries()
	freshResp := make([][]byte, len(freshDue))
	replayBad := make([]bool, len(replayDue))
	var (
		ms0, ms1      runtime.MemStats
		fresh, replay []sample
		wg            sync.WaitGroup
	)
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	clk := wallClock{time.Now()}
	wg.Add(2)
	go func() {
		defer wg.Done()
		fresh = runStream(ctx, clk, freshDue, func(ctx context.Context, k int) error {
			ctx, end := clientSpan(ctx, tr, "/v1/run", k)
			defer end()
			var err error
			freshResp[k], err = g.fresh.Run(ctx, freshBodies[k])
			return err
		})
	}()
	go func() {
		defer wg.Done()
		replay = runStream(ctx, clk, replayDue, func(ctx context.Context, k int) error {
			ctx, end := clientSpan(ctx, tr, "/v1/fleet", k)
			defer end()
			got, err := g.replay.Fleet(ctx, g.leaderBodies[picks[k]])
			replayBad[k] = err == nil && !bytes.Equal(got, g.leaders[picks[k]])
			return err
		})
	}()
	wg.Wait()
	wall := clk.now()
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	after, err := g.counters(ctx)
	if err != nil {
		return nil, err
	}
	retries := g.retries() - retries0
	g.close()
	if tr != nil {
		// Nothing runs concurrently from here on, so allocation per span
		// is attributable.
		tr.allocs = true
		r.values["trace.overhead_pct"] = replayTraceOverhead(replay)
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	// Correctness gate, part one: transport, status and replay bytes.
	r.attempted = len(fresh) + len(replay)
	var freshLat, replayLat, lags []float64
	for k, s := range fresh {
		lags = append(lags, ms(s.lag()))
		if s.err != nil {
			r.failed++
			r.problem("fresh request %d: %v", k, s.err)
			continue
		}
		freshLat = append(freshLat, ms(s.latency()))
	}
	for k, s := range replay {
		lags = append(lags, ms(s.lag()))
		switch {
		case s.err != nil:
			r.failed++
			r.problem("replay request %d: %v", k, s.err)
		case replayBad[k]:
			r.failed++
			r.problem("replay request %d: bytes differ from its leader's", k)
		default:
			replayLat = append(replayLat, ms(s.latency()))
		}
	}
	if runs := delta("server.engine.fleet_runs"); int(runs) != len(fresh) {
		r.failed++
		r.problem("server.engine.fleet_runs rose by %v for %d fresh requests", runs, len(fresh))
	}

	fresh1 := float64(max(len(fresh), 1))
	r.values["latency_ms_p50"] = percentile(freshLat, 0.5)
	r.values["cpu_ms_per_badge"] = ms(cpu) / fresh1
	r.values["alloc_mb_per_badge"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / fresh1
	r.note("%s", quantiles("latency_ms (fresh /v1/run, from due time)", "ms", freshLat, 0.9))
	r.note("%s", quantiles("replay_latency_ms (replayed /v1/fleet, from due time)", "ms", replayLat, 0.9))
	r.note("req_per_s: %.4g 1/s (%d requests in %.3g s; offered %.3g fresh + %.3g replay per s)",
		float64(r.attempted)/wall.Seconds(), r.attempted, wall.Seconds(), freshRate, replayRate)
	r.note("%s", quantiles("loadgen lag", "ms", lags, 0.9))

	r.values["loadgen.lag_ms_p90"] = percentile(lags, 0.9)
	r.values["server.idem.replay"] = delta("server.idem.replay")
	r.values["server.idem.miss"] = delta("server.idem.miss")
	r.values["server.engine.fleet_runs"] = delta("server.engine.fleet_runs")
	r.values["server.shed"] = delta("server.shed")
	r.values["client.retries"] = float64(retries)

	// Correctness gate, part two: every fresh answer equals the in-process
	// result for its spec, and every leader equals its in-process batch.
	if err := verifyServe(ctx, o, tr, r, freshReqs, freshResp, fresh, g); err != nil {
		return nil, err
	}
	st := experiments.ThresholdCache().Stats()
	lookups := st.MemHits + st.DiskHits + st.Misses + st.Shared
	r.values["thrcache.misses"] = float64(st.Misses)
	r.values["thrcache.hit_ratio"] = 0
	if lookups > 0 {
		r.values["thrcache.hit_ratio"] = float64(lookups-st.Misses) / float64(lookups)
	}
	return r, nil
}

// verifyServe checks the fresh answers and the leaders against in-process
// runs. Untraced, it uses two goroutines; traced, it runs serially and
// also replays every fresh badge through the per-badge calls, which gives
// the per-layer numbers of the engine behind /v1/run.
func verifyServe(ctx context.Context, o options, tr *tracer, r *result, reqs []server.RunRequest, resp [][]byte, fresh []sample, g *rig) error {
	check := func(k int) (engineTimes, error) {
		want, et, err := inProcessRun(ctx, reqs[k], tr, "/v1/run/"+strconv.Itoa(k))
		if err != nil {
			return et, err
		}
		if fresh[k].err == nil && !bytes.Equal(resp[k], want) {
			return et, fmt.Errorf("fresh request %d answered %q, in-process run gives %q", k, resp[k], want)
		}
		return et, nil
	}
	times := make([]engineTimes, len(reqs))
	errs := make([]error, len(reqs))
	if tr == nil {
		var wg sync.WaitGroup
		for w := 0; w < fleetWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := w; k < len(reqs); k += fleetWorkers {
					times[k], errs[k] = check(k)
				}
			}(w)
		}
		wg.Wait()
	} else {
		for k := range reqs {
			times[k], errs[k] = check(k)
		}
	}
	for _, err := range errs {
		if err != nil {
			r.failed++
			r.problem("%v", err)
		}
	}
	for j, cfg := range g.leaderCfgs {
		want, err := inProcessFleet(ctx, cfg)
		if err != nil || !bytes.Equal(want, g.leaders[j]) {
			r.failed++
			r.problem("replay leader %d differs from its in-process batch (err %v)", j, err)
		}
	}
	r.note("correctness: %d fresh answers and %d leaders checked against in-process runs", len(reqs), len(g.leaderCfgs))
	if tr == nil {
		return nil
	}
	return serveLayers(ctx, o, tr, r, reqs, times)
}

// serveLayers replays every fresh badge with per-layer spans and derives
// the per-layer metrics of the serving workload.
func serveLayers(ctx context.Context, o options, tr *tracer, r *result, reqs []server.RunRequest, times []engineTimes) error {
	sc := sim.NewScratch()
	frames := 0
	var engine, marshal, badgeTotal time.Duration
	for k, req := range reqs {
		cfg, err := runConfig(req)
		if err != nil {
			return err
		}
		root := tr.begin("replay", "", "/v1/run/"+strconv.Itoa(k), 0)
		got, n, err := replayBadge(tr, root, &cfg, 0, sc)
		tr.end(root)
		frames += n
		if err != nil || !sameBadge(got, times[k].badge) {
			r.failed++
			r.problem("fresh request %d: replay %+v (err %v) != engine %+v", k, got, err, times[k].badge)
		}
		engine += times[k].engine
		marshal += times[k].marshal
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	for _, s := range spans {
		if s.Name == spanBadge {
			badgeTotal += s.dur()
		}
	}
	n := float64(max(len(reqs), 1))
	loop := sumLayer(spans, self, spanLoop, "")
	gen := sumLayer(spans, self, spanGenerate, "")
	var named time.Duration
	for _, l := range badgeLayers {
		named += sumLayer(spans, self, l, "").self
	}
	r.values["workload.generate.ms"] = ms(gen.self) / n
	r.values["workload.generate.alloc_mb"] = float64(gen.alloc) / 1e6 / n
	r.values["dpm.renewal_fit.ms"] = ms(sumLayer(spans, self, spanFit, "").self) / n
	r.values["badge.setup.us"] = ms(sumLayer(spans, self, spanSetup, "").self) * 1e3 / n
	r.values["sim.loop.ms"] = ms(loop.self) / n
	r.values["sim.loop.ns_per_frame"] = float64(loop.self) / float64(max(frames, 1))
	r.values["sim.loop.alloc_kb"] = float64(loop.alloc) / 1e3 / n
	r.values["sim.loop.changepoint.ms"] = ms(sumLayer(spans, self, spanLoop, experiments.ChangePoint.WireName()).self) / n
	r.values["sim.loop.expavg.ms"] = ms(sumLayer(spans, self, spanLoop, experiments.ExpAvg.WireName()).self) / n
	r.values["fleet.overhead.ms"] = ms(engine-badgeTotal) / n
	r.values["fleet.shard_imbalance"] = 1 // a one-badge run occupies one shard
	r.values["server.engine.ms"] = ms(engine) / n
	r.values["server.marshal.us"] = ms(marshal) * 1e3 / n
	r.values["ledger.unattributed_pct"] = unattributedPct(float64(engine), float64(named))

	meanDur := func(name, path string) (float64, int) {
		var sum time.Duration
		c := 0
		for _, s := range spans {
			if s.Name == name && s.Tag == path {
				sum += s.dur()
				c++
			}
		}
		return ms(sum) / float64(max(c, 1)), c
	}
	clientFleet, _ := meanDur("client.request", "/v1/fleet")
	handlerFleet, nh := meanDur("server.handler", "/v1/fleet")
	handlerRun, _ := meanDur("server.handler", "/v1/run")
	r.values["client.request.ms"] = clientFleet
	r.values["server.handler.ms"] = handlerFleet
	r.values["http.transport.ms"] = clientFleet - handlerFleet
	r.values["server.admission.ms"] = handlerRun - ms(engine)/n - ms(marshal)/n
	r.note("traced: %d replay handler spans; %d spans written to %s", nh, len(spans), o.traceOut)
	return writeJSONL(o.traceOut, spans)
}

// replayTraceOverhead compares the send-to-answer time of the traced
// (even) and untraced (odd) replay requests, in percent of the untraced
// median.
func replayTraceOverhead(replay []sample) float64 {
	var on, off []float64
	for k, s := range replay {
		if s.err != nil {
			continue
		}
		if k%2 == 0 {
			on = append(on, ms(s.done-s.sent))
		} else {
			off = append(off, ms(s.done-s.sent))
		}
	}
	base := percentile(off, 0.5)
	return 100 * (percentile(on, 0.5) - base) / base
}
