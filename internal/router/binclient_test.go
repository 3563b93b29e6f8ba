package router

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// TestBinConnPoolCancellationHammer drives binCall's pooled transport
// from many goroutines while contexts cancel at staggered points in the
// exchange, so the race detector sees every interleaving of the
// context.AfterFunc socket close against the clean-exchange repool path
// (the deferred stop()/keep dance in binCall). Cancel delays are varied
// deterministically by iteration — no RNG — from "cancelled before the
// call starts" through "cancelled mid-exchange" to "never cancelled".
// Afterwards the pool must still hand out working connections: a
// poisoned (desynchronized) repooled conn would fail the clean calls.
func TestBinConnPoolCancellationHammer(t *testing.T) {
	idx := buildIndex(t)
	sh := server.NewShard(idx, 0, 1)
	addr, stopBin, err := sh.StartBin("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start bin listener: %v", err)
	}
	t.Cleanup(stopBin)

	rt := New(Config{Shards: []string{"http://" + addr}})
	n := idx.Graph().NumVertices()

	call := func(ctx context.Context) error {
		var rp reply
		var x xfer
		return rt.binCall(ctx, addr, topkOp{u: 1}, 0, n, &rp, &x)
	}

	const (
		workers = 8
		iters   = 60
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				// Stagger the cancel across the exchange: mode 0
				// cancels before the call (AfterFunc fires during get),
				// modes 1-3 race it against dial/write/read at
				// increasing delays, mode 4 lets the exchange finish
				// cleanly and repool.
				switch mode := (w + i) % 5; mode {
				case 0:
					cancel()
				case 4:
					// no early cancel; clean exchange
				default:
					delay := time.Duration(mode) * 50 * time.Microsecond
					go func() {
						time.Sleep(delay)
						cancel()
					}()
				}
				err := call(ctx)
				// Cancelled exchanges may fail with context.Canceled (or
				// a transport error the context verdict did not win the
				// race against); only a protocol-level failure on a
				// never-cancelled call is a bug here.
				if err != nil && ctx.Err() == nil && !errors.Is(err, context.Canceled) {
					t.Errorf("worker %d iter %d: uncancelled call failed: %v", w, i, err)
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()

	// The pool now holds whatever survived the hammer. Every clean call
	// from here must succeed: a desynchronized connection that slipped
	// back into the free list would answer the wrong frame.
	for i := 0; i < maxIdleBinConns+4; i++ {
		if err := call(context.Background()); err != nil {
			t.Fatalf("clean call %d after hammer: %v", i, err)
		}
	}
}
