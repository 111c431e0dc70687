// Command netchaos is a deterministic fault-injecting TCP proxy: it
// forwards connections to a target address and perturbs exactly one of
// them according to a seeded netfault plan (see internal/faults/netfault
// for the fault semantics).
//
//	netchaos -listen 127.0.0.1:8098 -target 127.0.0.1:8097 -kind rst -op 1 -seed 7
//
// CI's netchaos-smoke job runs dvsimctl through it against dvsimd for
// every plan kind and asserts the client's output is byte-identical to the
// fault-free run — the end-to-end proof that the retry + idempotency path
// survives a hostile wire.
//
// SIGINT/SIGTERM stop the proxy after in-flight splices wind down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"smartbadge/internal/faults/netfault"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "netchaos:", err)
		os.Exit(1)
	}
}

// run starts the proxy. ready (if non-nil) receives the bound listen
// address once accepting, and sigs (if non-nil) replaces the OS signal
// feed — both are test seams.
func run(args []string, out io.Writer, ready chan<- string, sigs <-chan os.Signal) error {
	fs := flag.NewFlagSet("netchaos", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		listen   = fs.String("listen", "127.0.0.1:8098", "address to accept client connections on")
		target   = fs.String("target", "", "host:port to forward connections to (required)")
		kind     = fs.String("kind", "", "fault kind: refuse | rst | stall | truncate | latency (required)")
		op       = fs.Int("op", 1, "1-based index of the connection to fault")
		seed     = fs.Uint64("seed", 1, "seed for the fault's random draws")
		stall    = fs.Duration("stall", 0, "stall plans: upper bound on the injected read hold (0 = default)")
		maxDelay = fs.Duration("max-delay", 0, "latency plans: cap on the per-operation delay (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *target == "" {
		return errors.New("-target is required (host:port of the real server)")
	}
	plan := netfault.Plan{
		Kind:     netfault.Kind(*kind),
		Op:       *op,
		Seed:     *seed,
		Stall:    *stall,
		MaxDelay: *maxDelay,
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	p, err := netfault.NewProxy(l, *target, plan)
	if err != nil {
		l.Close()
		return err
	}
	fmt.Fprintf(out, "netchaos: proxying %s -> %s with plan %s\n", l.Addr(), *target, plan)
	if ready != nil {
		ready <- l.Addr().String()
	}

	if sigs == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		sigs = ch
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		sig, ok := <-sigs
		if ok {
			fmt.Fprintf(out, "netchaos: %v received, stopping\n", sig)
		}
		cancel()
	}()

	err = p.Run(ctx)
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "netchaos: stopped after %d connection(s), fault fired: %v\n", p.Conns(), p.Fired())
	return nil
}
