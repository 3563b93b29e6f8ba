package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	simrank "repro"
	"repro/internal/shard"
	"repro/internal/wire"
)

// shardTopology builds one index and a handler per shard over it, the
// in-process equivalent of a loopback topology (every shard holds the
// full snapshot).
func shardTopology(t *testing.T, shards int) (*simrank.Index, []*Handler) {
	t.Helper()
	g := simrank.GenerateCollaborationGraph(60, 4, 0.8, 7)
	idx := simrank.BuildIndex(g, simrank.DefaultOptions())
	hs := make([]*Handler, shards)
	for i := range hs {
		hs[i] = NewShard(idx, i, shards)
	}
	return idx, hs
}

func TestShardInfoEndpoint(t *testing.T) {
	idx, hs := shardTopology(t, 3)
	var ms []shard.Manifest
	for i, h := range hs {
		rec, body := get(t, h, "/shardinfo")
		if rec.Code != http.StatusOK {
			t.Fatalf("shard %d: status %d: %s", i, rec.Code, body)
		}
		var m shard.Manifest
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		if m.Shard != i || m.NumShards != 3 || m.Vertices != idx.Graph().NumVertices() || m.Version != wire.Version {
			t.Fatalf("shard %d manifest = %+v", i, m)
		}
		ms = append(ms, m)
	}
	if _, err := shard.ValidateTopology(ms); err != nil {
		t.Fatalf("handler manifests do not validate: %v", err)
	}
	gfp, pfp := idx.ServingFingerprint()
	if ms[0].GraphFP != gfp || ms[0].ParamsFP != pfp {
		t.Fatalf("manifest fingerprints %x/%x, index says %x/%x", ms[0].GraphFP, ms[0].ParamsFP, gfp, pfp)
	}
}

// TestShardTopKMergesToSingleNode drives the full wire path: fragments
// fetched from three shard handlers via HTTP JSON, decoded, merged —
// and compared field-for-field against the single-node /topk answer.
func TestShardTopKMergesToSingleNode(t *testing.T) {
	idx, hs := shardTopology(t, 3)
	single := New(idx)
	for _, u := range []int{0, 7, 42, 59} {
		_, body := get(t, single, fmt.Sprintf("/topk?u=%d&k=5&stats=1", u))
		var want TopKResponse
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}

		frags := make([][]simrank.ShardCand, len(hs))
		for i, h := range hs {
			rec, body := get(t, h, fmt.Sprintf("/shard/topk?u=%d", u))
			if rec.Code != http.StatusOK {
				t.Fatalf("shard %d u=%d: status %d: %s", i, u, rec.Code, body)
			}
			var resp ShardTopKResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Shard != i {
				t.Fatalf("fragment from shard %d claims shard %d", i, resp.Shard)
			}
			frags[i] = resp.Frag
		}
		res, st := simrank.MergeShardTopKScratch(5, idx.Threshold(), frags, nil)
		if len(res) != len(want.Results) {
			t.Fatalf("u=%d: merged %d results, single node %d", u, len(res), len(want.Results))
		}
		for j, r := range res {
			if r.Node != want.Results[j].Node || r.Score != want.Results[j].Score {
				t.Fatalf("u=%d: merged result %d = %+v, single node %+v", u, j, r, want.Results[j])
			}
		}
		if st.Candidates != want.Stats.Candidates ||
			st.PrunedByBound != want.Stats.PrunedByBound ||
			st.PrunedByRough != want.Stats.PrunedByRough ||
			st.Refined != want.Stats.Refined {
			t.Fatalf("u=%d: merged scan stats %+v, single node %+v", u, st, *want.Stats)
		}
	}
}

func TestShardTopKBatchEndpoint(t *testing.T) {
	idx, hs := shardTopology(t, 2)
	rec, body := postJSON(t, hs[0], "/shard/topk/batch", `{"queries":[0,7,42]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp ShardBatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Shard != 0 || len(resp.Results) != 3 {
		t.Fatalf("resp shard=%d results=%d", resp.Shard, len(resp.Results))
	}
	// Each batch entry must equal the single-query fragment.
	for i, q := range []int{0, 7, 42} {
		_, sbody := get(t, hs[0], fmt.Sprintf("/shard/topk?u=%d", q))
		var sresp ShardTopKResponse
		if err := json.Unmarshal(sbody, &sresp); err != nil {
			t.Fatal(err)
		}
		if len(sresp.Frag) != len(resp.Results[i].Frag) {
			t.Fatalf("q=%d: batch fragment has %d entries, single %d", q, len(resp.Results[i].Frag), len(sresp.Frag))
		}
		for j := range sresp.Frag {
			if sresp.Frag[j] != resp.Results[i].Frag[j] {
				t.Fatalf("q=%d entry %d: batch %+v, single %+v", q, j, resp.Results[i].Frag[j], sresp.Frag[j])
			}
		}
	}
	_ = idx
}

// TestShardSimilarMergesToSingleNode: /shard/similar answers with the
// fragment scanned at the request's theta, and the fragments of three
// shards merged with k = 0 at that theta are the single-node /similar
// answer — below the serving theta as well as above it.
func TestShardSimilarMergesToSingleNode(t *testing.T) {
	idx, hs := shardTopology(t, 3)
	single := New(idx)
	for _, theta := range []float64{0.005, 0.02} {
		for _, u := range []int{0, 5, 42} {
			_, body := get(t, single, fmt.Sprintf("/similar?u=%d&theta=%g", u, theta))
			var want TopKResponse
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatal(err)
			}
			frags := make([][]simrank.ShardCand, len(hs))
			for i, h := range hs {
				rec, body := get(t, h, fmt.Sprintf("/shard/similar?u=%d&theta=%g", u, theta))
				if rec.Code != http.StatusOK {
					t.Fatalf("shard %d: status %d: %s", i, rec.Code, body)
				}
				var resp ShardTopKResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Query != u || resp.Shard != i {
					t.Fatalf("shard %d answered query %d as shard %d", i, resp.Query, resp.Shard)
				}
				frags[i] = resp.Frag
			}
			got, _ := simrank.MergeShardTopKScratch(0, theta, frags, nil)
			if len(got) != len(want.Results) {
				t.Fatalf("theta=%g u=%d: merged %d results, single node %d", theta, u, len(got), len(want.Results))
			}
			for j, r := range got {
				if r != want.Results[j] {
					t.Fatalf("theta=%g u=%d: merged result %d = %+v, single node %+v", theta, u, j, r, want.Results[j])
				}
			}
		}
	}
}

func TestStatuszEndpoint(t *testing.T) {
	h := cachedHandler(t)
	get(t, h, "/topk?u=0&k=5")
	get(t, h, "/topk?u=1&k=5")
	postJSON(t, h, "/topk/batch", `{"queries":[0,1,2],"k":5}`)
	get(t, h, "/similar?u=0&theta=0.05")
	get(t, h, "/pair?u=0&v=1")
	get(t, h, "/topk?u=notanint&k=5") // rejected: must not count

	rec, body := get(t, h, "/statusz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var st StatuszResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.QueriesTotal != 2 || st.BatchesTotal != 1 || st.BatchQueriesTotal != 3 ||
		st.BatchSizeMax != 3 || st.SimilarTotal != 1 || st.PairsTotal != 1 {
		t.Fatalf("counters = %+v", st)
	}
	if st.Cache == nil || st.Cache.Misses == 0 {
		t.Fatalf("cache stats missing or empty: %+v", st.Cache)
	}
	// Every prolog miss names the builder that answered it; the tally
	// cache's object carries no such fields.
	if pr := st.Prolog; pr == nil || pr.Misses == 0 || pr.BuiltExact+pr.BuiltSampled+pr.BuiltEmpty != pr.Misses {
		t.Fatalf("prolog stats = %+v", st.Prolog)
	}
	if strings.Count(string(body), `"built_`) == 0 || st.Cache.BuiltExact+st.Cache.BuiltSampled+st.Cache.BuiltEmpty != 0 {
		t.Fatalf("built_* fields: %s", body)
	}
	// And sums the horizons of the distributions it built: between one step
	// and all T = 11 for each, again in the prolog object only.
	if dists, kept := st.Prolog.BuiltExact+st.Prolog.BuiltSampled, st.Prolog.StepsKept; dists == 0 || kept < dists || kept > 11*dists ||
		strings.Count(string(body), `"steps_kept"`) != 1 || st.Cache.StepsKept != 0 {
		t.Fatalf("steps_kept = %d for %d distributions: %s", kept, dists, body)
	}
	if st.Shard.NumShards != 1 || st.Shard.Lo != 0 || st.Shard.Hi != st.Shard.Vertices {
		t.Fatalf("shard manifest = %+v", st.Shard)
	}
}

// TestErrorBodyCodes pins the error contract the router depends on:
// JSON Content-Type on every error path, a stable code field, and
// Retry-After on retryable 503s.
func TestErrorBodyCodes(t *testing.T) {
	h := testHandler(t)
	check := func(rec *httptest.ResponseRecorder, body []byte, status int, code string) {
		t.Helper()
		if rec.Code != status {
			t.Fatalf("status %d, want %d: %s", rec.Code, status, body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("error body not JSON: %s", body)
		}
		if er.Code != code {
			t.Fatalf("code %q, want %q (%s)", er.Code, code, body)
		}
		if er.Error == "" {
			t.Fatal("empty error message")
		}
	}
	rec, body := get(t, h, "/topk?u=notanint")
	check(rec, body, http.StatusBadRequest, CodeBadRequest)
	rec, body = get(t, h, "/topk") // missing u
	check(rec, body, http.StatusBadRequest, CodeBadRequest)
	rec, body = postJSON(t, h, "/topk/batch", `{"queries":[]}`)
	check(rec, body, http.StatusBadRequest, CodeBadRequest)
	rec, body = get(t, h, "/shard/similar?u=0&theta=7")
	check(rec, body, http.StatusBadRequest, CodeBadRequest)

	// Method not allowed still carries a JSON body.
	rec, body = get(t, h, "/topk/batch")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	_ = body
}
