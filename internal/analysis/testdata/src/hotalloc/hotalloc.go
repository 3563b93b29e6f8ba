// Package hotalloc exercises the interprocedural allocation gate: the
// //lint:hotpath roots below reach planted allocation sites directly,
// one call deep, and two calls deep (through the dep subpackage), and
// every site must be reported with the call chain that reaches it.
// Non-hot functions may allocate freely, amortized self-appends are
// exempt, and the trusted extern allowlist (math etc.) stays silent.
package hotalloc

import (
	"math"
	"strconv"

	"repro/internal/analysis/testdata/src/hotalloc/dep"
)

type point struct{ x, y int }

var (
	sink  []int
	grown []int
	rows  [][]int
	bsink any
	fsink float64
)

// Direct: the allocation sits in the marked root itself.
//
//lint:hotpath fixture root with a direct allocation
func directRoot(n int) {
	buf := make([]int, n) // want "make"
	sink = buf
}

// One call deep: the root is clean, the helper allocates.
//
//lint:hotpath fixture root reaching an allocating helper
func oneDeepRoot() {
	helperAlloc()
}

func helperAlloc() {
	sink = make([]int, 4) // want "oneDeepRoot → helperAlloc"
}

// Two calls deep, crossing into the dep subpackage: the make in
// dep.Grow must be reported with the full three-hop chain.
//
//lint:hotpath fixture root reaching dep.Grow two calls deep
func deepRoot() {
	mid()
}

func mid() {
	fsink = dep.Grow(3)
}

// The full site catalogue in one root.
//
//lint:hotpath fixture root covering the allocation-site catalogue
func catalogue(xs []int, s1, s2 string) {
	_ = &point{1, 2}   // want "composite literal"
	m := map[int]int{} // want "map literal"
	_ = m
	f := func() {} // want "closure"
	f()            // want "dynamic call"
	_ = s1 + s2    // want "string concatenation"
	_ = []byte(s1) // want "conversion"
	box(7)         // want "interface boxing"
	go work()      // want "goroutine spawn"

	_ = math.Sqrt(2)         // allowlisted extern: silent
	grown = append(grown, 1) // amortized self-append: silent
	fresh := append(xs, 1)   // want "append"
	_ = fresh
	rows[1] = append(rows[1], 1) // a row appended to itself: silent
	rows[0] = append(rows[1], 1) // want "append"
	_ = strconv.Itoa(9)          // want "not proven allocation-free"
}

func box(v any) { bsink = v }

func work() {}

// A method of an instantiated generic type resolves to its declaration:
// an allocation-free one is silent, an allocating one is reported through
// the chain like any other callee.
type slot[P any] struct{ val P }

func (s *slot[P]) load() P { return s.val }

func (s *slot[P]) fresh() []P {
	return make([]P, 1) // want "genericRoot → slot.fresh"
}

//lint:hotpath fixture root calling methods of an instantiated generic type
func genericRoot(s *slot[int]) {
	grown = append(grown, s.load())
	sink = s.fresh()
}

// Suppression works like every other rule.
//
//lint:hotpath fixture root with a suppressed site
func suppressedRoot() {
	tmp := make([]int, 1) //lint:ignore hotalloc fixture demonstrates suppression
	_ = tmp
}

// Not marked and not reachable from a marked root: allocations here are
// nobody's business.
func coldAlloc() []int {
	return make([]int, 9)
}
