// Package poolescape exercises the poolescape analyzer: a pooled object
// must not be used or retained after its Put.
package poolescape

import "sync"

type scratch struct {
	buf []byte
	n   int
}

type engine struct {
	pool sync.Pool
	sink chan *scratch
	keep *scratch
}

func (e *engine) getScratch() *scratch {
	s := e.pool.Get().(*scratch)
	return s
}

func (e *engine) putScratch(s *scratch) {
	e.pool.Put(s)
}

// --- the happy path: use, then release ---

func (e *engine) okUseBeforePut() int {
	s := e.getScratch()
	s.n = 7
	n := s.n
	e.putScratch(s)
	return n
}

// --- use after Put ---

func (e *engine) badUseAfterPut() int {
	s := e.getScratch()
	e.putScratch(s)
	return len(s.buf) // want "use after Put"
}

func (e *engine) badPathUse(flush bool) int {
	s := e.getScratch()
	if flush {
		e.putScratch(s)
	}
	n := len(s.buf) // want "use after Put"
	e.putScratch(s) // want "double Put"
	return n
}

// --- double Put ---

func (e *engine) badDoublePut() {
	s := e.getScratch()
	e.putScratch(s)
	e.putScratch(s) // want "double Put"
}

// --- aliases share the lifetime ---

func (e *engine) badAliasUse() int {
	s := e.getScratch()
	t := s
	e.putScratch(t)
	return s.n // want "use after Put"
}

func (e *engine) badAliasDoublePut() {
	s := e.getScratch()
	t := s
	e.putScratch(s)
	e.putScratch(t) // want "double Put"
}

// --- re-acquiring into the same variable resets the lifetime ---

func (e *engine) okReacquire() int {
	s := e.getScratch()
	e.putScratch(s)
	s = e.getScratch()
	n := s.n
	e.putScratch(s)
	return n
}

func (e *engine) okLoopReuse(k int) int {
	total := 0
	for i := 0; i < k; i++ {
		s := e.getScratch()
		total += s.n
		e.putScratch(s)
	}
	return total
}

// --- escaping aliases while this function releases ---

func (e *engine) badReturnEscape() []byte {
	s := e.getScratch()
	defer e.putScratch(s)
	return s.buf // want "returned while a deferred release"
}

func (e *engine) okReturnLen() int {
	s := e.getScratch()
	defer e.putScratch(s)
	return s.n
}

func (e *engine) okReturnTransfer() *scratch {
	s := e.getScratch()
	s.n = 0
	return s
}

func (e *engine) badFieldEscape() {
	s := e.getScratch()
	e.keep = s // want "stored into e.keep"
	e.putScratch(s)
}

func (e *engine) badSendEscape() {
	s := e.getScratch()
	e.sink <- s // want "escapes through a channel send"
	e.putScratch(s)
}

func (e *engine) badAppendEscape(log []*scratch) []*scratch {
	s := e.getScratch()
	log = append(log, s) // want "retained via append"
	e.putScratch(s)
	return log
}

// --- goroutine captures ---

func (e *engine) badGoEscape() {
	s := e.getScratch()
	go func() { s.n++ }() // want "captured by a goroutine"
	e.putScratch(s)
}

func (e *engine) okGoOwns() {
	go func() {
		s := e.getScratch()
		s.n = 1
		e.putScratch(s)
	}()
}

func spawn(f func()) {
	go f()
}

func (e *engine) badSpawnHelper() {
	s := e.getScratch()
	spawn(func() { s.n++ }) // want "captured by a closure passed to spawn"
	e.putScratch(s)
}

// --- releases through helpers (2-deep) ---

func (e *engine) recycle(s *scratch) {
	e.putScratch(s)
}

func (e *engine) recycle2(s *scratch) {
	e.recycle(s)
}

func (e *engine) badUseAfterHelperPut() int {
	s := e.getScratch()
	e.recycle2(s)
	return s.n // want "use after Put"
}

func (e *engine) okHelperPut() int {
	s := e.getScratch()
	n := s.n
	e.recycle2(s)
	return n
}

// --- acquires through helpers ---

func (e *engine) fresh() *scratch {
	return e.getScratch()
}

func (e *engine) badHelperAcquire() int {
	s := e.fresh()
	e.putScratch(s)
	return s.n // want "use after Put"
}

// --- one lattice for leak, use and double Put ---

// okMentionBeforeAcquire: s is declared and read before anything is
// acquired into it. That state is "unacquired", not "released": the nil
// check is no use after Put and the one release no double Put.
func (e *engine) okMentionBeforeAcquire() int {
	var s *scratch
	n := 0
	if s != nil {
		n = s.n
	}
	s = e.getScratch()
	n += s.n
	e.putScratch(s)
	return n
}

// badJoinUse hands the scratch back early on one branch and reads it
// after the join. The deferred release covers every exit, so there is
// no leak to report — but it must not switch the flow off either: the
// read is one use after Put, and the only verdict.
func (e *engine) badJoinUse(flush bool) int {
	s := e.getScratch()
	defer e.putScratch(s)
	if flush {
		e.putScratch(s)
	}
	return s.n // want "use after Put"
}

// --- suppression ---

func (e *engine) suppressedUse() int {
	s := e.getScratch()
	e.putScratch(s)
	//lint:ignore poolescape this engine is single-goroutine in tests
	return s.n
}
