// Package locktest is a simlint fixture: every Lock paired with an
// Unlock on all CFG paths, no re-lock while held, no double unlock.
package locktest

import "sync"

type stripe struct {
	mu sync.Mutex
	n  int
}

type store struct {
	mu     sync.Mutex
	rw     sync.RWMutex
	shards [4]stripe
	val    int
}

func (s *store) okDefer() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.val
}

func (s *store) okLinear() int {
	s.mu.Lock()
	v := s.val
	s.mu.Unlock()
	return v
}

func (s *store) okBranchBalanced(fast bool) int {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		return 0
	}
	v := s.val
	s.mu.Unlock()
	return v
}

// okLoopBreakUnlock holds the lock across the loop and releases only on
// the break path — the only way out, so every exit is balanced.
func (s *store) okLoopBreakUnlock(xs []int) int {
	s.mu.Lock()
	i := 0
	for {
		if i >= len(xs) {
			s.mu.Unlock()
			break
		}
		s.val += xs[i]
		i++
	}
	return s.val
}

func (s *store) leakEarlyReturn(fail bool) int {
	s.mu.Lock() // want "not matched by Unlock"
	if fail {
		return -1
	}
	s.mu.Unlock()
	return s.val
}

func (s *store) leakLoopFallout(xs []int) int {
	s.mu.Lock() // want "not matched by Unlock"
	for i := 0; i < len(xs); i++ {
		if xs[i] < 0 {
			s.mu.Unlock()
			return -1
		}
	}
	return s.val
}

func (s *store) doubleLock() {
	s.mu.Lock()
	s.mu.Lock() // want "self-deadlocks"
	s.mu.Unlock()
}

func (s *store) doubleUnlock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Unlock() // want "double unlock"
}

// okTwoMutexes: distinct mutexes interleave freely.
func (s *store) okTwoMutexes() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.mu.Lock()
	v := s.val
	s.mu.Unlock()
	return v
}

func (s *store) leakReadSide() int {
	s.rw.RLock() // want "not matched by RUnlock"
	return s.val
}

// okStripe: lock stripes are tracked by their rendered index key.
func (s *store) okStripe(i int) int {
	s.shards[i].mu.Lock()
	n := s.shards[i].n
	s.shards[i].mu.Unlock()
	return n
}

func (s *store) leakStripe(i int) {
	s.shards[i].mu.Lock() // want "not matched by Unlock"
	s.shards[i].n++
}

// okBothSides: the read and the write side of one RWMutex are two
// resources, each paired on its own.
func (s *store) okBothSides() int {
	s.rw.RLock()
	v := s.val
	s.rw.RUnlock()
	s.rw.Lock()
	s.val = v + 1
	s.rw.Unlock()
	return v
}

// leakWriteUnderRead: the deferred RUnlock covers the read side only;
// the write side is still held at the exit.
func (s *store) leakWriteUnderRead() {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.rw.Lock() // want "not matched by Unlock"
	s.val++
}

// --- the router's connection-pool shape: lock, pop a free connection or
// dial, unlock — with an early return on the dial error ---

type connPool struct {
	mu   sync.Mutex
	free []int
}

func dial(addr string) (int, error) { return len(addr), nil }

func (p *connPool) leakDialError(addr string) (int, error) {
	p.mu.Lock() // want "not matched by Unlock"
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	c, err := dial(addr)
	if err != nil {
		return 0, err
	}
	p.mu.Unlock()
	return c, nil
}

// okDialUnlocked is how binclient.go does it: the lock is dropped
// before dialing, so the error return owes nothing.
func (p *connPool) okDialUnlocked(addr string) (int, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	c, err := dial(addr)
	if err != nil {
		return 0, err
	}
	return c, nil
}

// okTryLock: Try* makes held-ness a data question; the key is skipped.
func (s *store) okTryLock() bool {
	if s.mu.TryLock() {
		s.mu.Unlock()
		return true
	}
	return false
}

func (s *store) suppressedHandoff() {
	//lint:ignore lockbalance fixture: lock intentionally handed to the caller
	s.mu.Lock()
}
