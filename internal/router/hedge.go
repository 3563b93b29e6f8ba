package router

import (
	"context"
	"sync"
	"time"
)

// fanout runs task(0) .. task(n-1) concurrently and waits for all of
// them: a routed batch's query workers (at most batchInFlight) and
// /statusz's probes (one goroutine per shard). One goroutine
// per task from a plain counted loop: n is small and fixed up front, the
// shape simlint's gospawn analyzer approves.
func fanout(n int, task func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			task(i)
		}(i)
	}
	wg.Wait()
}

// hedged runs try against up to attempts servers, first success wins.
// Attempt a+1 launches immediately when attempt a fails (failover), or
// after delay while attempt a is still running (hedging a slow server;
// delay <= 0 disables the timer, leaving pure failover). All attempts
// share one context derived from ctx, cancelled on return, so losing
// requests tear down promptly through the usual context plumbing.
//
// hedges reports how many extra attempts were launched beyond the
// first. Goroutines never leak: the results channel is buffered to
// attempts, so a losing attempt can always deposit its outcome and exit.
func hedged[T any](ctx context.Context, delay time.Duration, attempts int,
	try func(ctx context.Context, attempt int) (T, error)) (val T, hedges int, err error) {
	if attempts < 1 {
		attempts = 1
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		val T
		err error
	}
	results := make(chan outcome, attempts)
	launched := 0
	launch := func() {
		a := launched
		launched++
		go func() {
			v, e := try(hctx, a)
			results <- outcome{v, e}
		}()
	}
	launch()
	var timerC <-chan time.Time
	if delay > 0 && attempts > 1 {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		timerC = timer.C
	}
	pending := 1
	var firstErr error
	for {
		select {
		case <-hctx.Done():
			if firstErr == nil {
				firstErr = hctx.Err()
			}
			var zero T
			return zero, launched - 1, firstErr
		case <-timerC:
			timerC = nil
			if launched < attempts {
				launch()
				pending++
			}
		case out := <-results:
			pending--
			if out.err == nil {
				return out.val, launched - 1, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if launched < attempts {
				launch()
				pending++
			} else if pending == 0 {
				var zero T
				return zero, launched - 1, firstErr
			}
		}
	}
}
