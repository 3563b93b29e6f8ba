package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	simrank "repro"
	"repro/internal/eval"
	"repro/internal/server"
)

// servingOptions are the options simserver builds its index with when
// given no tuning flags: c 0.6, theta 0.01, seed 1, everything else the
// paper's defaults. The oracle must use the same.
func servingOptions() simrank.Options {
	opts := simrank.DefaultOptions()
	opts.DecayFactor = 0.6
	opts.Threshold = 0.01
	opts.Seed = 1
	return opts
}

// decodeResults parses one response body into per-query result lists:
// one list for GET /topk, batch lists for POST /topk/batch.
func decodeResults(body []byte, batch int) ([][]server.ResultJSON, error) {
	if batch == 1 {
		var r server.TopKResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		return [][]server.ResultJSON{r.Results}, nil
	}
	var r server.BatchResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	out := make([][]server.ResultJSON, len(r.Results))
	for i, q := range r.Results {
		out[i] = q.Results
	}
	return out, nil
}

// sameAnswer demands node ids and float64 score bits match exactly:
// the system's invariant is byte-identical answers across topologies,
// transports and cache states, and JSON round-trips float64 exactly.
func sameAnswer(got []server.ResultJSON, want []simrank.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("result %d is (%d, %v), oracle has (%d, %v)",
				i, got[i].Node, got[i].Score, want[i].Node, want[i].Score)
		}
	}
	return nil
}

// verifySample checks one kept response against the oracle.
func verifySample(oracle *simrank.Index, vs []uint32, body []byte) error {
	got, err := decodeResults(body, len(vs))
	if err != nil {
		return err
	}
	if len(got) != len(vs) {
		return fmt.Errorf("%d answers for %d queries", len(got), len(vs))
	}
	us := make([]int, len(vs))
	for i, v := range vs {
		us[i] = int(v)
	}
	want, err := oracle.TopKBatch(us, topK)
	if err != nil {
		return err
	}
	for i := range want {
		if err := sameAnswer(got[i], want[i]); err != nil {
			return fmt.Errorf("query %d: %w", vs[i], err)
		}
	}
	return nil
}

// verifySamples checks every kept response against the oracle and
// returns how many did not match, with the first mismatch.
func verifySamples(oracle *simrank.Index, stream []uint32, batch int, samples []sample) (bad int, first error) {
	var vs []uint32
	for _, s := range samples {
		vs = reqVertices(stream, batch, s.req, vs)
		if err := verifySample(oracle, vs, s.body); err != nil {
			bad++
			if first == nil {
				first = fmt.Errorf("request %d: %w", s.req, err)
			}
		}
	}
	return bad, first
}

// accuracyVertices is how many distinct query vertices the accuracy
// metrics average over.
const accuracyVertices = 64

// accuracy scores the answers the live process served for the accuracy
// sample against the deterministic truncated series (same c and T).
//
// The engine never returns a vertex whose estimate is under theta, so
// the ground truth is the exact top-k cut at theta as well — the
// paper's "high-score vertices found" (Section 8.2). A query whose
// exact top-k has nothing at or above theta has no ground truth and is
// left out of the mean; evaluated says how many remained.
func accuracy(g *simrank.Graph, opts simrank.Options, us []uint32, served [][]server.ResultJSON) (precision, ndcg float64, evaluated int, err error) {
	type score struct {
		p, n float64
		ok   bool
	}
	scores := make([]score, len(us))
	errs := make([]error, numClients())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(us); i += len(errs) {
				exact, err := simrank.ExactTopK(g, opts, int(us[i]), topK)
				if err != nil {
					errs[w] = err
					return
				}
				var want eval.Ranking
				rel := make(map[uint32]float64, topK)
				for _, r := range exact {
					if r.Score >= opts.Threshold {
						want = append(want, uint32(r.Node))
						rel[uint32(r.Node)] = r.Score
					}
				}
				if len(want) == 0 {
					continue
				}
				got := eval.Collect(served[i], func(r server.ResultJSON) uint32 { return uint32(r.Node) })
				scores[i] = score{eval.PrecisionAtK(got, want, topK), eval.NDCGAtK(got, rel, topK), true}
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, 0, 0, e
		}
	}
	for _, s := range scores {
		if s.ok {
			precision += s.p
			ndcg += s.n
			evaluated++
		}
	}
	if evaluated == 0 {
		return 0, 0, 0, fmt.Errorf("none of the %d accuracy vertices has an exact neighbour at or above theta", len(us))
	}
	return precision / float64(evaluated), ndcg / float64(evaluated), evaluated, nil
}
