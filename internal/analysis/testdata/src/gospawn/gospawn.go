// Package gospawntest is a simlint fixture: raw goroutine creation
// outside the approved worker pools.
package gospawntest

import "sync"

// forEachIndexParallel carries an approved name: a bounded counted
// fan-out is the blessed concurrency shape.
func forEachIndexParallel(workers int, fn func(int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

func fanOutPerItem(items []int, fn func(int)) {
	for _, it := range items {
		go fn(it) // want "outside the approved worker pools"
	}
}

type shardSet struct{}

// fanout is an approved name, here on a method, but per-item spawning
// inside a range loop is still unbounded and still flagged.
func (shardSet) fanout(items []int, fn func(int)) {
	for _, it := range items {
		go fn(it) // want "one goroutine per ranged item"
	}
}

func fireAndForget(fn func()) {
	go fn() // want "outside the approved worker pools"
}

// startRefresher is the approved long-lived background worker shape: one
// goroutine, spawned once, outside any loop.
func startRefresher(loop func()) {
	go loop()
}

func suppressed(fn func()) {
	//lint:ignore gospawn fixture: reasoned suppression is honoured
	go fn()
}

// fanout is the router's approved counted scatter: one goroutine per
// shard, the spawn count fixed before the loop.
func fanout(n int, task func(int)) {
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

// hedged is the router's approved launch-on-demand shape: attempts
// spawn one at a time under a fixed cap, from a closure — attribution
// follows the enclosing named declaration, so the go statement is
// credited to hedged itself.
func hedged(attempts int, try func(int)) {
	launched := 0
	launch := func() {
		a := launched
		launched++
		go try(a)
	}
	launch()
	for launched < attempts {
		launch()
	}
}

// scatter has the counted shape but is not an approved pool name:
// new fan-out sites must be named into the allowlist deliberately.
func scatter(n int, task func(int)) {
	for i := 0; i < n; i++ {
		go task(i) // want "outside the approved worker pools"
	}
}
