package analysis

import (
	"go/ast"
	"go/token"
	"maps"
	"strings"
)

// WireTaint is a forward taint analysis over untrusted wire input. The
// serving tier decodes attacker-controlled frames and HTTP bodies;
// every length, count, offset, or vertex id read off the wire must pass
// a bounds check before it sizes an allocation, indexes a buffer,
// bounds a loop, or limits a read. The binary codec's own checks (the
// 64 MiB frame bound, the per-section count×elem validation) become
// machine-verified instead of convention: delete one and the analyzer
// reports every use downstream of the missing guard.
//
// Sources: encoding/binary byte-order loads, strconv parses of query
// parameters, and encoding/json decodes of request bodies — plus any
// module helper whose summary says it returns or stores wire-derived
// values (taint.go). Sinks: make lengths/capacities, slice/array/
// string indexing and slice bounds, for-loop bound conditions, io read
// limits (io.LimitReader/CopyN), and arguments to module helpers whose
// summary says the parameter reaches such a sink unguarded. Sanitizers:
// a comparison mentioning the value bare (under conversions,
// arithmetic, or len/cap — not as someone's index), or a call to a
// //lint:sanitized helper, clears the taint on that path.
//
// The check is path-sensitive: it runs a may-taint flow over the CFG,
// so a guard sanitizes only the paths it dominates, and a join where
// any incoming path is unguarded stays tainted. Values tainted through
// an enclosing function's variables are not visible inside nested
// function literals (each literal is analyzed as its own function).
var WireTaint = &Analyzer{
	Name: "wiretaint",
	Doc: "a length/count/offset derived from wire input must pass a bounds check " +
		"before reaching make, an index, a loop bound, or an io read limit",
	Run: runWireTaint,
}

func runWireTaint(pass *Pass) error {
	eachFunc(pass.Pkg, func(_ *ast.FuncType, body *ast.BlockStmt) {
		checkWireTaint(pass, body)
	})
	return nil
}

// taintMark is a key's per-path status. Absent means never tainted;
// sanitized overrides a tainted dot-prefix (the guard mentioned the
// parent). Numeric order is the may-join lattice order — tainted is the
// top, so merge's raise() can never let a sanitized mark shadow a
// tainted one.
type taintMark uint8

const (
	markSanitized taintMark = iota + 1
	markTainted
)

// taintFlowState maps exprKeys to their marks. Effective status of a
// key walks its dot-prefixes longest-first; the first mark wins.
type taintFlowState map[string]taintMark

func (st taintFlowState) eff(k string) taintMark {
	for {
		if m, ok := st[k]; ok {
			return m
		}
		i := strings.LastIndexByte(k, '.')
		if i < 0 {
			return 0
		}
		k = k[:i]
	}
}

// taint marks k tainted and drops stale child marks (a fresh value
// overwrites whatever was known about its fields).
func (st taintFlowState) taint(k string) {
	st.dropChildren(k)
	st[k] = markTainted
}

// sanitize clears k's taint on this path. Explicitly tainted children
// keep their own marks — the guard spoke only about k.
func (st taintFlowState) sanitize(k string) {
	st[k] = markSanitized
}

// kill forgets k entirely (reassigned from an untainted value).
func (st taintFlowState) kill(k string) {
	st.dropChildren(k)
	delete(st, k)
}

func (st taintFlowState) dropChildren(k string) {
	prefix := k + "."
	for c := range st {
		if len(c) > len(prefix) && c[:len(prefix)] == prefix {
			delete(st, c)
		}
	}
}

func (st taintFlowState) clone() taintFlowState { return maps.Clone(st) }

// merge joins src into dst (may-taint): tainted beats sanitized beats
// absent — the numeric taintMark order — except that a sanitized mark
// additionally cannot survive a join where the other path has the key
// effectively tainted through a dot-prefix (eff would let the direct
// sanitized mark shadow the prefix taint, so those keys are promoted to
// tainted explicitly). Marks only ever go up, so block-entry states
// grow monotonically and the worklist terminates.
func (dst taintFlowState) merge(src taintFlowState) bool {
	changed := false
	raise := func(k string, m taintMark) {
		if dst[k] < m {
			dst[k] = m
			changed = true
		}
	}
	for k, m := range src {
		if m == markSanitized && dst.eff(k) == markTainted {
			m = markTainted
		}
		raise(k, m)
	}
	for k, m := range dst {
		if m == markSanitized && src.eff(k) == markTainted {
			raise(k, markTainted)
		}
	}
	return changed
}

// joinTaint is merge as the solver's join.
func joinTaint(cur, out taintFlowState) (taintFlowState, bool) {
	if cur == nil {
		return out.clone(), true
	}
	return cur, cur.merge(out)
}

// wtReporter receives sink findings during the reporting pass; nil
// during the solve.
type wtReporter func(pos token.Pos, format string, args ...any)

// checkWireTaint lowers one function body to taint events (taint.go)
// once, solves the may-taint flow over them, and replays each reachable
// block against its converged entry state to report. Deferred calls run
// at exit and stay out of the flow.
func checkWireTaint(pass *Pass, body *ast.BlockStmt) {
	cfg := BuildCFG(body)
	l := &taintLowerer{info: pass.Pkg.Info, mod: pass.Mod, cfg: cfg, sources: true}
	events := make([][]taintEvent, len(cfg.Blocks))
	for _, b := range cfg.Blocks {
		l.evs = nil
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); !ok {
				l.lower(n)
			}
		}
		events[b.Index] = l.evs
	}
	run := func(b *CFGBlock, in taintFlowState, rep wtReporter) taintFlowState {
		st := in.clone()
		for i := range events[b.Index] {
			st.apply(&events[b.Index][i], rep)
		}
		return st
	}

	in := ForwardFlow(cfg, taintFlowState{}, joinTaint, func(b *CFGBlock, st taintFlowState) taintFlowState {
		return run(b, st, nil)
	})
	reported := map[token.Pos]bool{}
	EachReached(cfg, in, func(b *CFGBlock, st taintFlowState) {
		run(b, st, func(pos token.Pos, format string, args ...any) {
			if !reported[pos] {
				reported[pos] = true
				pass.Reportf(pos, format, args...)
			}
		})
	})
}

// apply runs one event against the state of one path.
func (st taintFlowState) apply(ev *taintEvent, rep wtReporter) {
	sink := func(what string) {
		if rep == nil {
			return
		}
		if witness, ok := st.witness(ev.terms, false); ok {
			rep(ev.pos, "wire-tainted %s reaches %s without a bounds check; compare it against a cap or len/cap first", witness, what)
		}
	}
	switch ev.kind {
	case evGuard:
		if st.eff(ev.key) == markTainted {
			st.sanitize(ev.key)
		}
	case evSink:
		sink(ev.what)
	case evStore:
		st.taint(ev.key)
	case evCallArg:
		if flagAt(ev.callee.Summary.TaintSinkParams, ev.arg) {
			sink("a size/index sink inside " + ev.callee.Name())
		}
		if flagAt(ev.callee.Summary.TaintsParams, ev.arg) && ev.key != "" {
			st.taint(ev.key)
		}
	case evAssign:
		_, tainted := st.witness(ev.terms, false)
		if tainted || ev.compound && st.eff(ev.key) == markTainted {
			st.taint(ev.key)
		} else {
			st.kill(ev.key)
		}
	}
}

// witness names the first wire-derived piece among terms: a tainted
// key or, unless keysOnly, a direct source read or a helper that returns
// taint.
func (st taintFlowState) witness(terms []taintTerm, keysOnly bool) (string, bool) {
	for _, t := range terms {
		switch {
		case t.key != "":
			if st.eff(t.key) == markTainted {
				return t.key, true
			}
		case keysOnly:
		case t.callee == nil:
			return "value", true
		case t.callee.Summary.TaintsResults:
			return "result of " + t.callee.Name(), true
		}
	}
	return "", false
}
