package analysis

import (
	"go/ast"
)

// GoSpawn restricts raw goroutine creation in internal/core and
// internal/router to the approved bounded worker pools. Every
// concurrency site in the engine is a fixed `for w := 0; w < workers;
// w++` fan-out whose determinism has been argued once (per-vertex
// reseeding, per-worker scratches, contiguous or cursor-based
// sharding), and the router's scatter/hedge sites are the same shape
// with the shard count as the bound; a stray `go` elsewhere — and in
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
// bounded number of goroutines (Params.Workers, the shard count, or
// the hedge attempt cap) from a plain counted loop or on-demand
// launches under a fixed cap.
var goSpawnAllow = map[string]bool{
	"forEachIndexParallel": true, // allpairs.go: atomic-cursor work-item pool (AllTopK, TopKBatch, joins)
	"parallelVertices":     true, // engine.go: contiguous block shards
	"scoreBlock":           true, // lanes.go: lane-group shares of one candidate block
	"startRefresher":       true, // dynamic.go: the single background snapshot builder
	"fanout":               true, // router/hedge.go: one goroutine per shard, counted scatter
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
						"go statement outside the approved worker pools (%s); route the work through parallelVertices or forEachIndexParallel",
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
