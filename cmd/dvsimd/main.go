// Command dvsimd is the SmartBadge serving daemon: it exposes the fleet
// batch engine, single-badge runs and threshold characterisation over HTTP
// (see internal/server for the endpoint contract).
//
//	dvsimd serve -addr 127.0.0.1:8080
//	dvsimd serve -addr :8080 -inflight 8 -queue 128 -thr-cache /var/cache/smartbadge
//
//	curl -s -X POST localhost:8080/v1/fleet -d '{"badges":12,"seed":7}'
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM drain gracefully: in-flight requests complete (up to
// -drain-timeout seconds) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smartbadge/internal/experiments"
	"smartbadge/internal/server"
	"smartbadge/internal/thrcache"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dvsimd:", err)
		os.Exit(1)
	}
}

// run dispatches the subcommand. ready (if non-nil) receives the bound
// address once the daemon is listening, and sigs (if non-nil) replaces the
// OS signal feed — both are test seams.
func run(args []string, out io.Writer, ready chan<- string, sigs <-chan os.Signal) error {
	if len(args) < 1 || args[0] != "serve" {
		return errors.New("usage: dvsimd serve [flags] (see dvsimd serve -h)")
	}
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address")
		inflight     = fs.Int("inflight", server.DefaultMaxInFlight, "max concurrently executing engine requests")
		queue        = fs.Int("queue", server.DefaultQueueDepth, "admission queue depth; beyond it requests are shed with 429")
		maxBadges    = fs.Int("max-badges", server.DefaultMaxBadges, "largest batch a single /v1/fleet request may ask for")
		maxTimeoutMS = fs.Int64("max-timeout-ms", server.DefaultMaxTimeoutMS, "cap on client-requested deadlines (timeout_ms)")
		retryAfterS  = fs.Int("retry-after", server.DefaultRetryAfterS, "Retry-After hint in seconds on shed responses")
		thrCache     = fs.String("thr-cache", "auto", "threshold cache: auto | off | DIR (auto = per-user cache dir)")
		drainS       = fs.Int("drain-timeout", 30, "seconds to wait for in-flight requests on shutdown")
		idemEntries  = fs.Int("idem-entries", server.DefaultIdemEntries, "completed responses kept for Idempotency-Key replay")
	)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	cache, err := thrcache.Open(*thrCache)
	if err != nil {
		return err
	}
	// One cache for everything: badge runs characterise through the
	// process-wide cache, and server.New serves /v1/thresholds and /metrics
	// from it.
	experiments.SetThresholdCache(cache)

	srv := server.New(server.Config{
		MaxInFlight:  *inflight,
		QueueDepth:   *queue,
		MaxBadges:    *maxBadges,
		MaxTimeoutMS: *maxTimeoutMS,
		RetryAfterS:  *retryAfterS,
		IdemEntries:  *idemEntries,
	})
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "dvsimd: serving on http://%s (inflight %d, queue %d, thr-cache %q)\n",
		l.Addr(), *inflight, *queue, cache.Dir())
	if ready != nil {
		ready <- l.Addr().String()
	}

	if sigs == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		sigs = ch
	}
	shutdownErr := make(chan error, 1)
	go func() {
		sig := <-sigs
		fmt.Fprintf(out, "dvsimd: %v received, draining (timeout %ds)\n", sig, *drainS)
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainS)*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	if err := srv.Serve(l); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-shutdownErr; err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	fmt.Fprintln(out, "dvsimd: drained, all in-flight requests completed")
	return nil
}
