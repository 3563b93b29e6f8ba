package router

import (
	"flag"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	simrank "repro"
	"repro/internal/server"
)

var updateBodies = flag.Bool("update-bodies", false, "rewrite testdata/bodies.golden from the bodies served now")

var (
	elapsedRE = regexp.MustCompile(`"elapsed_ms":[-0-9.e+]+`)
	numberRE  = regexp.MustCompile(`:-?[0-9][-0-9.e+]*`)
	addrRE    = regexp.MustCompile(`"(addr|bin_addr)":"[^"]*"`)
	hitMissRE = regexp.MustCompile(`"((cache_)?(hits|misses))":[0-9]+`)
)

// TestResponseBodiesPinned holds one JSON body per endpoint, on both
// tiers, to the bytes in testdata/bodies.golden: the payload types are
// defined once (core, root) and every layer serializes them as they are,
// so a renamed tag, a reordered field or a nil slice where a client used
// to read [] shows up here as a diff. Only elapsed_ms is masked in the
// answer to one query. A batch runs its queries side by side over one tally
// cache, so which of them finds a shared candidate cached is a race: there
// the hit and miss counts are masked too. /statusz carries timings, ports
// and counters that depend on how the two shards' lookups interleave, so
// there every number is masked and what is pinned is the keys and their
// order.
func TestResponseBodiesPinned(t *testing.T) {
	build := func() *simrank.Index {
		g := simrank.GenerateCollaborationGraph(60, 4, 0.8, 7)
		return simrank.BuildIndex(g, simrank.Options{CacheBytes: 1 << 20})
	}
	// The stand-alone tier is asked sequentially over an index of its own,
	// so its cache counters are part of what is pinned.
	idx := build()
	single, shard0 := server.New(idx), server.NewShard(idx, 0, 2)
	rt, _ := loopback(t, build(), 2, Config{})

	const batch = `{"queries":[1,2,3],"k":3,"stats":true}`
	var got strings.Builder
	record := func(label string, code int, body []byte, mask *regexp.Regexp) {
		t.Helper()
		if code != 200 {
			t.Fatalf("%s: status %d: %s", label, code, body)
		}
		s := elapsedRE.ReplaceAllString(strings.TrimSpace(string(body)), `"elapsed_ms":0`)
		switch mask {
		case numberRE:
			s = addrRE.ReplaceAllString(numberRE.ReplaceAllString(s, ":0"), `"$1":"-"`)
		case hitMissRE:
			s = hitMissRE.ReplaceAllString(s, `"$1":0`)
		}
		got.WriteString("# " + label + "\n" + s + "\n")
	}
	get := func(label string, h http.Handler, path string) {
		t.Helper()
		rec, body := routerGet(t, h, path)
		var mask *regexp.Regexp
		if strings.HasSuffix(path, "/statusz") {
			mask = numberRE
		}
		record(label+" GET "+path, rec.Code, body, mask)
	}
	post := func(label string, h http.Handler, path, body string) {
		t.Helper()
		rec, out := routerPost(t, h, path, body)
		record(label+" POST "+path, rec.Code, out, hitMissRE)
	}
	get("server", single, "/topk?u=5&k=5&stats=1")
	get("server", single, "/topk?u=5&k=5")
	post("server", single, "/topk/batch", batch)
	get("server", single, "/similar?u=5&theta=0.05")
	get("server", single, "/similar?u=5&theta=1") // nothing scores 1: "results":[]
	get("shard", shard0, "/shard/topk?u=5")
	get("shard", shard0, "/shard/topk?u=5&lo=0&hi=0") // an empty range: "frag":[]
	post("shard", shard0, "/shard/topk/batch", `{"queries":[1,2]}`)
	get("shard", shard0, "/shard/similar?u=5&theta=0.05")
	get("server", single, "/statusz")
	get("router", rt, "/topk?u=5&k=5&stats=1")
	post("router", rt, "/topk/batch", batch)
	get("router", rt, "/similar?u=5&theta=0.05")
	get("router", rt, "/similar?u=5&theta=1")
	get("router", rt, "/statusz")

	const golden = "testdata/bodies.golden"
	if *updateBodies {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("body differs from %s at line %d (%s)\n got: %s\nwant: %s", golden, i+1, gotLines[max(i-1, 0)], g, w)
		}
	}
}
