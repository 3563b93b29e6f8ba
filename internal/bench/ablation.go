package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
)

// Ablation study (not a paper table, but DESIGN.md calls it out): measure
// what each ingredient of the query phase buys — adaptive sampling, the
// candidate index, and the L1 bound where plans have one (ball candidates)
// — in query time, refined-candidate count, and recall against the exact
// series ranking.

// AblationRow is the measurement for one configuration.
type AblationRow struct {
	Variant    string
	Query      time.Duration
	Candidates float64 // average enumerated candidates per query
	Refined    float64 // average fully-sampled candidates per query
	Recall     float64 // fraction of exact top-20 (score >= 0.05) found
}

// Ablation runs the variants on the web-class dataset (the method's
// primary target).
func Ablation(w io.Writer, cfg Config) []AblationRow {
	cfg = cfg.normalized()
	ds, err := ByName("web-stanford-sim", cfg.Scale)
	if err != nil {
		fmt.Fprintf(w, "ablation: %v\n", err)
		return nil
	}
	section(w, "Ablation: pruning ingredients on %s", ds.Name)
	g := ds.MustBuild()

	base := core.DefaultParams()
	base.Seed = cfg.Seed
	base.Workers = cfg.Workers

	variants := []struct {
		name string
		mod  func(p core.Params) core.Params
	}{
		{"full (paper)", func(p core.Params) core.Params { return p }},
		{"no adaptive sampling", func(p core.Params) core.Params { p.DisableAdaptive = true; return p }},
		{"ball candidates (no index)", func(p core.Params) core.Params { p.Strategy = core.CandidatesBall; return p }},
		// An index plan has no ball, so no L1 table to drop: L1 is
		// measured on the ball rows alone.
		{"ball candidates, no L1", func(p core.Params) core.Params {
			p.Strategy, p.DisableL1 = core.CandidatesBall, true
			return p
		}},
	}

	queries := pickQueries(g, cfg.Queries, cfg.Seed)

	// Exact reference rankings for recall.
	d := exact.UniformDiagonal(g.N(), base.C)
	refs := make(map[uint32]map[uint32]bool, len(queries))
	for _, u := range queries {
		row := exact.SingleSource(g, d, base.C, base.T, u)
		set := map[uint32]bool{}
		for _, s := range exact.TopK(row, u, 20) {
			if s.Score >= 0.05 {
				set[s.V] = true
			}
		}
		refs[u] = set
	}

	tb := &table{header: []string{"variant", "query", "candidates", "refined", "recall"}}
	var out []AblationRow
	for _, v := range variants {
		eng := core.Build(g, v.mod(base))
		var cands, refined, hits, wants int
		start := time.Now()
		for _, u := range queries {
			res, st := eng.TopKStats(u, 20)
			cands += st.Candidates
			refined += st.Refined
			got := map[uint32]bool{}
			for _, s := range res {
				got[s.V] = true
			}
			for w := range refs[u] {
				wants++
				if got[w] {
					hits++
				}
			}
		}
		elapsed := time.Since(start) / time.Duration(len(queries))
		row := AblationRow{
			Variant:    v.name,
			Query:      elapsed,
			Candidates: float64(cands) / float64(len(queries)),
			Refined:    float64(refined) / float64(len(queries)),
		}
		if wants > 0 {
			row.Recall = float64(hits) / float64(wants)
		} else {
			row.Recall = 1
		}
		out = append(out, row)
		tb.addRow(v.name, fmtDuration(row.Query),
			fmt.Sprintf("%.1f", row.Candidates), fmt.Sprintf("%.1f", row.Refined),
			fmt.Sprintf("%.3f", row.Recall))
	}
	tb.write(w)
	return out
}
