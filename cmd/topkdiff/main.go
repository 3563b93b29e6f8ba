// Command topkdiff compares the answers of two similarity servers over
// a query corpus and exits nonzero on the first divergence. It is the
// CI smoke check that a shard topology behind simrouter answers
// byte-identically — results, ordering, and scan statistics — to a
// stand-alone simserver over the same graph and seed.
//
//	topkdiff -a http://localhost:8080 -b http://localhost:8090 -count 50 -k 20
//
// The corpus is count vertices strided evenly over [0, n), n read from
// the -b server's /statusz (shard.vertices: -b is the stand-alone node).
// Three endpoints are exercised: /topk (one request per corpus query,
// stats compared), /similar at theta 0.02 (one request per corpus query:
// above the default serving theta 0.01, so a router's shards scan at the
// request's floor and the merge replays it with k = 0) and /topk/batch
// (the whole corpus in one request). An identity over empty answers
// proves little, so the run fails when fewer than 2 in 5 of the corpus
// queries return a row on /topk, or on /similar; both counts are printed.
//
// When -a is a router, its /statusz is read after the corpus: every
// shard must have been primary for some query (requests_total > 0), so a
// router that stopped rotating fails, and the transport every shard was
// reached over is checked for consistency — wire_format "bin" must come
// with request frames encoded and TCP connections accepted by the shard —
// and printed as wire_format=..., so an identity run also says which
// encoding it was an identity run of (scripts/ci.sh asserts the one it
// expects).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"
)

type result struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

type stats struct {
	Candidates    int `json:"candidates"`
	PrunedByBound int `json:"pruned_by_bound"`
	PrunedByRough int `json:"pruned_by_rough"`
	Refined       int `json:"refined"`
}

type topKResponse struct {
	Query   int      `json:"query"`
	Results []result `json:"results"`
	Stats   *stats   `json:"stats"`
}

// similarTheta is the /similar threshold diffed over the corpus.
const similarTheta = 0.02

// vertexCount reads the graph's vertex count off a stand-alone server's
// /statusz.
func vertexCount(addr string) (int, error) {
	body, err := get(addr + "/statusz")
	if err != nil {
		return 0, err
	}
	var st struct {
		Shard struct {
			Vertices int `json:"vertices"`
		} `json:"shard"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, fmt.Errorf("%s/statusz: %v", addr, err)
	}
	if st.Shard.Vertices <= 0 {
		return 0, fmt.Errorf("%s/statusz reports no shard.vertices: -b must be a stand-alone server", addr)
	}
	return st.Shard.Vertices, nil
}

type batchResponse struct {
	Results []topKResponse `json:"results"`
}

// routerStatusz is the slice of a router's /statusz that wireFormat
// reads; a stand-alone server's /statusz has no shards list.
type routerStatusz struct {
	Shards []struct {
		Shard         int    `json:"shard"`
		RequestsTotal int64  `json:"requests_total"`
		WireFormat    string `json:"wire_format"`
		EncodeNs      int64  `json:"encode_ns"`
		Status        *struct {
			Wire struct {
				BinConnsTotal int64 `json:"bin_conns_total"`
			} `json:"wire"`
		} `json:"status"`
	} `json:"shards"`
}

// wireFormat reports the transport addr's shards were reached over, ""
// when addr is not a router. Every shard must have served as primary,
// the shards must agree, and "bin" must be backed by counters: frames
// encoded here, connections accepted there.
func wireFormat(addr string) (string, error) {
	body, err := get(addr + "/statusz")
	if err != nil {
		return "", err
	}
	var st routerStatusz
	if err := json.Unmarshal(body, &st); err != nil {
		return "", fmt.Errorf("%s/statusz: %v", addr, err)
	}
	format := ""
	for i, s := range st.Shards {
		if s.RequestsTotal <= 0 {
			return "", fmt.Errorf("shard %d: requests_total = %d: the router never made it a query's primary", s.Shard, s.RequestsTotal)
		}
		if i > 0 && s.WireFormat != format {
			return "", fmt.Errorf("shard %d on wire_format %q, shard 0 on %q", s.Shard, s.WireFormat, format)
		}
		format = s.WireFormat
		if format != "bin" {
			continue
		}
		if s.EncodeNs <= 0 {
			return "", fmt.Errorf("shard %d: wire_format bin but encode_ns = %d: no request frame was ever encoded", s.Shard, s.EncodeNs)
		}
		if s.Status == nil || s.Status.Wire.BinConnsTotal <= 0 {
			return "", fmt.Errorf("shard %d: wire_format bin but the shard accepted no TCP connection", s.Shard)
		}
	}
	return format, nil
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func post(url, body string) ([]byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// waitReady polls /readyz on every server until all answer 200 or the
// deadline passes.
func waitReady(addrs []string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, addr := range addrs {
		for {
			resp, err := http.Get(addr + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				if err != nil {
					return fmt.Errorf("%s not ready after %v: %v", addr, timeout, err)
				}
				return fmt.Errorf("%s not ready after %v (status %d)", addr, timeout, resp.StatusCode)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

func diffOne(label string, ra, rb topKResponse) error {
	if len(ra.Results) != len(rb.Results) {
		return fmt.Errorf("%s: %d vs %d results", label, len(ra.Results), len(rb.Results))
	}
	for i := range ra.Results {
		if ra.Results[i] != rb.Results[i] {
			return fmt.Errorf("%s: result %d: %+v vs %+v", label, i, ra.Results[i], rb.Results[i])
		}
	}
	if ra.Stats != nil && rb.Stats != nil && *ra.Stats != *rb.Stats {
		return fmt.Errorf("%s: scan stats %+v vs %+v", label, *ra.Stats, *rb.Stats)
	}
	// Marshal the result lists and require byte equality too, so no
	// float formatting subtlety hides behind struct comparison.
	ja, _ := json.Marshal(ra.Results)
	jb, _ := json.Marshal(rb.Results)
	if !bytes.Equal(ja, jb) {
		return fmt.Errorf("%s: result JSON differs:\n  a: %s\n  b: %s", label, ja, jb)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("topkdiff: ")

	a := flag.String("a", "", "first server base URL (required)")
	b := flag.String("b", "", "second server base URL (required)")
	count := flag.Int("count", 50, "corpus size: queries strided evenly over the graph's vertices")
	k := flag.Int("k", 20, "k per query")
	wait := flag.Duration("wait", 30*time.Second, "how long to wait for both servers' /readyz")
	flag.Parse()

	if *a == "" || *b == "" {
		log.Fatal("-a and -b are required")
	}
	ua, ub := strings.TrimRight(*a, "/"), strings.TrimRight(*b, "/")
	if err := waitReady([]string{ua, ub}, *wait); err != nil {
		log.Fatal(err)
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "topkdiff: DIVERGENCE:", err)
		os.Exit(1)
	}

	n, err := vertexCount(ub)
	if err != nil {
		log.Fatal(err)
	}
	if *count < 1 || *count > n {
		log.Fatalf("-count %d outside [1, %d]", *count, n)
	}
	queries := make([]int, *count)
	for i := range queries {
		queries[i] = i * n / *count
	}

	// diffGet diffs both servers' answers to one GET and reports whether
	// they carry any row.
	diffGet := func(label, path string) bool {
		var r [2]topKResponse
		for i, base := range []string{ua, ub} {
			body, err := get(base + path)
			if err != nil {
				log.Fatal(err)
			}
			if err := json.Unmarshal(body, &r[i]); err != nil {
				log.Fatal(err)
			}
		}
		if err := diffOne(label, r[0], r[1]); err != nil {
			fail(err)
		}
		return len(r[0].Results) > 0
	}
	// Per-query /topk with stats, and /similar.
	var topkRows, similarRows int
	for _, u := range queries {
		if diffGet(fmt.Sprintf("u=%d", u), fmt.Sprintf("/topk?u=%d&k=%d&stats=1", u, *k)) {
			topkRows++
		}
		if diffGet(fmt.Sprintf("similar u=%d", u), fmt.Sprintf("/similar?u=%d&theta=%g", u, similarTheta)) {
			similarRows++
		}
	}

	// The whole corpus as one batch.
	payload, _ := json.Marshal(map[string]any{"queries": queries, "k": *k, "stats": true})
	ba, err := post(ua+"/topk/batch", string(payload))
	if err != nil {
		log.Fatal(err)
	}
	bb, err := post(ub+"/topk/batch", string(payload))
	if err != nil {
		log.Fatal(err)
	}
	var bra, brb batchResponse
	if err := json.Unmarshal(ba, &bra); err != nil {
		log.Fatal(err)
	}
	if err := json.Unmarshal(bb, &brb); err != nil {
		log.Fatal(err)
	}
	if len(bra.Results) != len(brb.Results) {
		fail(fmt.Errorf("batch: %d vs %d results", len(bra.Results), len(brb.Results)))
	}
	for i := range bra.Results {
		if err := diffOne(fmt.Sprintf("batch u=%d", bra.Results[i].Query), bra.Results[i], brb.Results[i]); err != nil {
			fail(err)
		}
	}

	format, err := wireFormat(ua)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topkdiff: ROUTER:", err)
		os.Exit(1)
	}
	fmt.Printf("topkdiff: %d queries, %d similar + 1 batch identical between %s and %s", *count, *count, ua, ub)
	if format != "" {
		fmt.Printf(" (shards reached over wire_format=%s)", format)
	}
	fmt.Println()
	fmt.Printf("topkdiff: non-empty answers over u = i*%d/%d: /topk %d of %d, /similar %d of %d\n",
		n, *count, topkRows, *count, similarRows, *count)
	if minRows := 2 * *count / 5; topkRows < minRows || similarRows < minRows {
		fmt.Fprintf(os.Stderr, "topkdiff: CORPUS: fewer than %d of %d answers carry a row: the identity proves little\n", minRows, *count)
		os.Exit(1)
	}
}
