// Package ctxtest is a simlint fixture: cancellation must flow from a
// ctx-receiving function into everything it calls, and serving loops
// must be stoppable.
package ctxtest

import (
	"context"
	"time"
)

type ctxKey struct{}

type index struct{ n int }

func (ix *index) topKCtx(ctx context.Context, u int) int {
	if ctx.Err() != nil {
		return 0
	}
	return u % ix.n
}

func (ix *index) topK(u int) int { return u % ix.n }

// okNonCtxWrapper has no ctx parameter: the one place a root context
// legitimately comes from.
func (ix *index) okNonCtxWrapper(u int) int {
	return ix.topKCtx(context.Background(), u)
}

func (ix *index) okThread(ctx context.Context, u int) int {
	return ix.topKCtx(ctx, u)
}

// okDerived: a context derived from ctx still carries its cancellation.
func (ix *index) okDerived(ctx context.Context, u int) int {
	tctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	return ix.topKCtx(tctx, u)
}

// okRebound: rebinding ctx to a derived value keeps the chain.
func (ix *index) okRebound(ctx context.Context, u int) int {
	ctx = context.WithValue(ctx, ctxKey{}, u)
	return ix.topKCtx(ctx, u)
}

// okNoCtxCallee: callees without a context parameter are unconstrained.
func (ix *index) okNoCtxCallee(ctx context.Context, u int) int {
	_ = ctx
	return ix.topK(u)
}

func (ix *index) badBackground(ctx context.Context, u int) int {
	return ix.topKCtx(context.Background(), u) // want "synthesized in a function that already receives"
}

func (ix *index) badRebound(ctx context.Context, u int) int {
	c := context.Background() // want "synthesized in a function that already receives"
	return ix.topKCtx(c, u)   // want "does not derive"
}

// badParamRebound: reassigning the parameter itself severs the chain.
func (ix *index) badParamRebound(ctx context.Context, u int) int {
	ctx = context.Background() // want "synthesized in a function that already receives"
	return ix.topKCtx(ctx, u)  // want "does not derive"
}

// badPathMixed: one path severs the chain, so the call site may run with
// an unrelated context.
func (ix *index) badPathMixed(ctx context.Context, u int, offline bool) int {
	c := ctx
	if offline {
		c = context.Background() // want "synthesized in a function that already receives"
	}
	return ix.topKCtx(c, u) // want "does not derive"
}

// badClosure: a closure inside a ctx-receiving function is held to the
// same contract — the caller's ctx is right there to use.
func (ix *index) badClosure(ctx context.Context, u int) int {
	f := func() int {
		return ix.topKCtx(context.Background(), u) // want "synthesized in a function that already receives"
	}
	return f()
}

// okHedgedClosure: the hedged-request shape — a shared cancellable
// context derived in the enclosing function and captured by attempt
// closures still carries the caller's cancellation.
func (ix *index) okHedgedClosure(ctx context.Context, u int) int {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	launch := func() int {
		return ix.topKCtx(hctx, u)
	}
	return launch()
}

// badUnderivedCapture: a captured context local synthesized from
// Background never carries the caller's cancellation, closure or not.
func (ix *index) badUnderivedCapture(ctx context.Context, u int) int {
	c := context.Background() // want "synthesized in a function that already receives"
	f := func() int {
		return ix.topKCtx(c, u) // want "does not derive"
	}
	return f()
}

// okReboundBack: a rebind from ctx kills the earlier Background() value,
// so only the synthesis itself is reported.
func (ix *index) okReboundBack(ctx context.Context, u int) int {
	c := context.Background() // want "synthesized in a function that already receives"
	c = ctx
	return ix.topKCtx(c, u)
}

// okMultiValue: both targets of a multi-value form derive from the one
// call, so c carries ctx's cancellation.
func (ix *index) okMultiValue(ctx context.Context, u int, d time.Duration) int {
	c, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	return ix.topKCtx(c, u)
}

// badLoopRebind: the Background() rebind at the bottom of the body
// reaches the call at its top over the back edge.
func (ix *index) badLoopRebind(ctx context.Context, u, n int) int {
	c := ctx
	s := 0
	for i := 0; i < n; i++ {
		s += ix.topKCtx(c, u+i)  // want "does not derive"
		c = context.Background() // want "synthesized in a function that already receives"
	}
	return s
}

// pump is an unstoppable serving loop: no ctx, no done channel.
func pump(ch chan int) {
	for { // want "never checks ctx.Err"
		ch <- 1
	}
}

// okDoneLoop: the done-channel idiom (select with an escaping receive).
func okDoneLoop(ch chan int, done chan struct{}) {
	for {
		select {
		case <-done:
			return
		case v := <-ch:
			_ = v
		}
	}
}

// okCtxLoop consults ctx directly.
func okCtxLoop(ctx context.Context, ch chan int) {
	for {
		if ctx.Err() != nil {
			return
		}
		ch <- 1
	}
}

// okIdleLoop does no work, so there is nothing to cancel.
func okIdleLoop() {
	n := 0
	for {
		n++
		_ = n
	}
}

func suppressedPump(ch chan int) {
	//lint:ignore ctxflow fixture: loop ends when the consumer closes ch
	for {
		ch <- 1
	}
}

// --- interprocedural cases: the loop's ctx check lives in a helper ---

// stop consults the context; its summary records ChecksCtx, so loops
// that hand it their ctx are stoppable.
func stop(ctx context.Context) bool { return ctx.Err() != nil }

// stopIndirect checks through one more hop (summary propagation).
func stopIndirect(ctx context.Context) bool { return stop(ctx) }

// busy receives a ctx and ignores it — passing ctx here checks nothing.
func busy(ctx context.Context, ch chan int) { ch <- 1 }

// okHelperLoop: the cancellation check happens inside stop.
func okHelperLoop(ctx context.Context, ch chan int) {
	for {
		if stop(ctx) {
			return
		}
		ch <- 1
	}
}

// okHelperLoopDeep: the check is two calls away; the summaries carry it.
func okHelperLoopDeep(ctx context.Context, ch chan int) {
	for {
		if stopIndirect(ctx) {
			return
		}
		ch <- 1
	}
}

// badHelperLoop mentions ctx only by passing it to a helper that never
// consults it; the loop is still unstoppable.
func badHelperLoop(ctx context.Context, ch chan int) {
	for { // want "never checks ctx.Err"
		busy(ctx, ch)
	}
}

// okExternLoop: a callee without a loaded body is trusted to honor the
// ctx it receives (its source is not available to prove otherwise).
func okExternLoop(ctx context.Context, d time.Duration) {
	for {
		if sleepCtx(ctx, d) {
			return
		}
	}
}

// sleepCtx stands in for an extern-ish helper; it does check.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return true
	case <-t.C:
		return false
	}
}
