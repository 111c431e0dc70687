// Package parallel is ctxflow's positive golden package: its import path
// ends in "parallel" (a loop-checked package) and sits below the serving
// boundary, so root contexts and ctx-blind blocking loops must both be
// reported.
package parallel

import "context"

// RunCtx is the context-capable engine entry point.
func RunCtx(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil { // observing loop: not flagged
			return err
		}
		if err := step(i); err != nil {
			return err
		}
	}
	return nil
}

// Start forwards to its Ctx sibling with a fresh root context. A
// one-statement shim is no exception to rule 1: it severs the caller's
// deadline like any other root context.
func Start(n int) error {
	return StartCtx(context.Background(), n) // want `context\.Background below the serving boundary`
}

// StartCtx is Start's context-capable sibling.
func StartCtx(ctx context.Context, n int) error {
	return RunCtx(ctx, n)
}

// rootBelowBoundary manufactures a fresh root context.
func rootBelowBoundary(n int) error {
	ctx := context.Background() // want `context\.Background below the serving boundary`
	return RunCtx(ctx, n)
}

// todoBelowBoundary does the same with TODO.
func todoBelowBoundary(n int) error {
	return RunCtx(context.TODO(), n) // want `context\.TODO below the serving boundary`
}

// blockingChan is a callee the call graph can prove blocking.
func blockingChan(ch chan int) int {
	return <-ch
}

// blindLoop can block every iteration and never looks at ctx.
func blindLoop(ctx context.Context, ch chan int, n int) int {
	total := 0
	for i := 0; i < n; i++ { // want `this loop can block but never observes the context`
		total += blockingChan(ch)
	}
	_ = ctx
	return total
}

// directChanLoop blocks on a channel op directly in the body.
func directChanLoop(ctx context.Context, ch chan int) int {
	total := 0
	for v := range ch { // want `this loop can block but never observes the context`
		total += v
	}
	_ = ctx
	return total
}

// doneVarLoop observes the context through a captured done channel, the
// idiom the worker pool uses. Not flagged.
func doneVarLoop(ctx context.Context, ch chan int) int {
	done := ctx.Done()
	total := 0
	for {
		select {
		case <-done:
			return total
		case v := <-ch:
			total += v
		}
	}
}

// capturedDoneLoop observes the context through a done variable captured by
// a worker literal — the worker-pool idiom. Not flagged.
func capturedDoneLoop(ctx context.Context, ch chan int) int {
	done := ctx.Done()
	total := 0
	worker := func() {
		for {
			select {
			case <-done:
				return
			case v := <-ch:
				total += v
			}
		}
	}
	worker()
	return total
}

// cheapLoop never blocks: nothing to observe. Not flagged.
func cheapLoop(ctx context.Context, xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	_ = ctx
	return total
}

// litLoop is a function literal inside a ctx-bearing function: the literal
// inherits the context obligation.
func litLoop(ctx context.Context, ch chan int) func() int {
	return func() int {
		total := 0
		for i := 0; i < 3; i++ { // want `this loop can block but never observes the context`
			total += blockingChan(ch)
		}
		_ = ctx
		return total
	}
}

func step(int) error { return nil }
