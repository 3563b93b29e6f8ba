package analysis

import (
	"go/ast"
)

// GoSpawn restricts raw goroutine creation in internal/core and
// internal/router to the approved bounded worker pools. The engine has
// one: a fixed `for w := 0; w < workers; w++` fan-out over a shared
// cursor whose determinism has been argued once (per-vertex reseeding,
// outputs per item, a query on one goroutine), plus the one background
// refresher; the router's fan-out/hedge sites are the same shape
// with the shard count or a fixed cap as the bound; a stray `go` elsewhere — and in
// particular one goroutine per work item inside a range loop — is both
// an unbounded-spawn hazard and a new ordering surface that the
// determinism tests were never written to cover.
var GoSpawn = &Analyzer{
	Name: "gospawn",
	Doc: "raw go statements in internal/core and internal/router are allowed only " +
		"inside the approved worker-pool functions, and never one per work item",
	Run: runGoSpawn,
}

// goSpawnAllow names the approved worker-pool functions: each spawns a
// bounded number of goroutines (Params.Workers, the shard count, a
// routed batch's batchInFlight query workers, or the hedge attempt
// cap) from a plain counted loop or on-demand launches under a fixed cap.
var goSpawnAllow = map[string]bool{
	"forEachIndexParallel": true, // allpairs.go: the engine's one worker pool (preprocess chunks, AllTopK, TopKBatch, joins)
	"startRefresher":       true, // dynamic.go: the single background snapshot builder
	"fanout":               true, // router/hedge.go: batch workers and /statusz probes (one goroutine per shard)
	"hedged":               true, // router/hedge.go: launch-on-demand attempts under a fixed cap
}

func runGoSpawn(pass *Pass) error {
	eachFuncDecl(pass.Pkg, func(fd *ast.FuncDecl) {
		name := fd.Name.Name
		// Track the statement path so a `go` inside a range loop can
		// be distinguished from one inside a counted worker loop.
		var rangeDepth int
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				rangeDepth++
				ast.Inspect(n.Body, walk)
				rangeDepth--
				// Key/value/X already walked enough; skip re-descent.
				return false
			case *ast.GoStmt:
				switch {
				case !goSpawnAllow[name]:
					pass.Reportf(n.Pos(),
						"go statement outside the approved worker pools (%s); route the work through forEachIndexParallel",
						name)
				case rangeDepth > 0:
					pass.Reportf(n.Pos(),
						"go statement spawns one goroutine per ranged item in %s; use a bounded worker loop instead",
						name)
				}
			}
			return true
		}
		ast.Inspect(fd.Body, walk)
	})
	return nil
}
