package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"

	simrank "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/wire"
)

// The layers pass times each module from outside, through its public
// functions, on the workload's own graph and the first q entries of its
// stream. It runs on one goroutine with Workers 1, so every count and
// cache state repeats exactly; only the two cache-filling passes, which
// are not timed, run side by side.

// cacheRoomy is a cache budget no traced prefix can fill: the warm and
// hit passes must measure hits, not eviction.
const cacheRoomy = 1 << 30

// walkFront is the walk population of the StepWalks measurement: the
// query prolog's RAlpha.
const walkFront = 10000

// layers holds the state of one layers pass.
type layers struct {
	ctx    context.Context
	tr     *tracer
	root   int
	parent int      // the running pass's span, for spans prep adds beside the call
	prefix []uint32 // first q stream entries
	edge   []uint32 // first q/4: the server, wire and router passes
	closer []func() error
}

// timed records one span around fn.
func (l *layers) timed(name string, parent, queryID int, fn func() error) error {
	id := l.tr.begin(name, parent, queryID)
	err := fn()
	l.tr.end(id)
	if err != nil {
		return fmt.Errorf("%s (query %d): %w", name, queryID, err)
	}
	return nil
}

// pass runs call once per vertex of us under one parent span. prep, if
// not nil, runs outside the timed span (building a request is harness
// cost, not the layer's), check after it. prep may record spans of its
// own under l.parent: a reference call timed beside the real one sees
// the same machine and cache state, so their difference is an overhead
// and not the drift between two passes.
func (l *layers) pass(name string, us []uint32, prep func(qi int, u uint32), call func(qi int, u uint32) error, check func(qi int, u uint32) error) error {
	parent := l.tr.begin("pass:"+name, l.root, -1)
	defer l.tr.end(parent)
	l.parent = parent
	for qi, u := range us {
		if err := l.ctx.Err(); err != nil {
			return err
		}
		if prep != nil {
			prep(qi, u)
		}
		if err := l.timed(name, parent, qi, func() error { return call(qi, u) }); err != nil {
			return err
		}
		if check != nil {
			if err := check(qi, u); err != nil {
				return fmt.Errorf("%s (query %d): %w", name, qi, err)
			}
		}
	}
	return nil
}

func (l *layers) close() {
	for _, c := range l.closer {
		// Unmapping a read-only mapping cannot lose data.
		_ = c()
	}
}

// open maps the saved index with the given cache budgets.
func (l *layers) open(path string, prolog, tally int64) (*simrank.Index, error) {
	opts := servingOptions()
	opts.Workers = 1
	opts.PrologCacheBytes = prolog
	opts.CacheBytes = tally
	idx, closer, err := simrank.LoadIndexMmap(path, opts)
	if err != nil {
		return nil, err
	}
	l.closer = append(l.closer, closer)
	return idx, nil
}

// servePass is pass for a handler: prep builds the request, the call is
// ServeHTTP, and the check is a 200.
func (l *layers) servePass(name string, us []uint32, s *serve, prep func(qi int, u uint32)) error {
	return l.pass(name, us, prep,
		func(int, uint32) error { s.call(); return nil },
		func(int, uint32) error { return s.ok() })
}

func hitRatio(st simrank.CacheStats) float64 {
	return ratio(float64(st.Hits), float64(st.Hits+st.Misses))
}

// serve drives one request through a handler into a recorder.
type serve struct {
	h   http.Handler
	req *http.Request
	rec *httptest.ResponseRecorder
}

func (s *serve) get(path string, accept string) {
	s.req = httptest.NewRequest(http.MethodGet, path, nil)
	if accept != "" {
		s.req.Header.Set("Accept", accept)
	}
	s.rec = httptest.NewRecorder()
}

func (s *serve) post(path string, body []byte) {
	s.req = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	s.req.Header.Set("Content-Type", "application/json")
	s.rec = httptest.NewRecorder()
}

func (s *serve) call() { s.h.ServeHTTP(s.rec, s.req) }

func (s *serve) ok() error {
	if s.rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", s.rec.Code, s.rec.Body.Bytes())
	}
	return nil
}

// batches cuts us into whole groups of 16; the head of each group
// stands for it in pass().
func batches(us []uint32) (heads []uint32, groups [][]uint32) {
	for i := 0; i+16 <= len(us); i += 16 {
		heads = append(heads, us[i])
		groups = append(groups, us[i:i+16])
	}
	return heads, groups
}

// runLayers measures every per-layer metric that does not need the live
// processes. tmp is a scratch directory for the saved index.
func runLayers(ctx context.Context, tr *tracer, graphPath, tmp string, stream []uint32, q int) (map[string]float64, error) {
	l := &layers{ctx: ctx, tr: tr, prefix: stream[:q], edge: stream[:max(q/4, 16)]}
	l.root = tr.begin("layers", -1, -1)
	defer tr.end(l.root)
	defer l.close()
	m := make(map[string]float64)

	// --- set-up: graph load, preprocess, the two index load paths ---
	var g *graph.Graph
	err := l.timed("graph.load", l.root, -1, func() (err error) {
		g, err = graph.LoadEdgeListFile(graphPath)
		return err
	})
	if err != nil {
		return nil, err
	}
	n := g.N()
	// The preprocess runs with the default worker count, as it does
	// inside setup_s; only queries are pinned to one worker.
	params := core.DefaultParams()
	var snap *core.Snapshot
	_ = l.timed("core.build", l.root, -1, func() error {
		snap = core.Build(g, params).Seal()
		return nil
	})
	st := snap.Stats()
	m["core.gamma_ms"] = float64(st.GammaTime.Nanoseconds()) / 1e6
	m["core.index_ms"] = float64(st.IndexTime.Nanoseconds()) / 1e6
	m["core.index_bytes"] = float64(st.IndexBytes)

	indexPath := filepath.Join(tmp, "index.bin")
	if err := writeFile(indexPath, snap.SaveIndex); err != nil {
		return nil, err
	}
	err = l.timed("core.load_stream", l.root, -1, func() error {
		f, err := os.Open(indexPath)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = core.LoadIndex(g, params, f)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = l.timed("core.load_mmap", l.root, -1, func() error {
		_, closer, err := core.LoadIndexMmap(indexPath, params)
		if err == nil {
			l.closer = append(l.closer, closer)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	// --- graph: the BFS ball and the walk-step kernel ---
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = graph.Unreachable
	}
	var ball []uint32
	ballVertices := 0
	err = l.pass("graph.ball", l.prefix, nil,
		func(_ int, u uint32) error {
			ball, _ = g.UndirectedBallInto(u, params.DMax, 20000, dist, ball[:0])
			return nil
		},
		func(int, uint32) error {
			ballVertices += len(ball)
			for _, v := range ball {
				dist[v] = graph.Unreachable
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	m["graph.ball_vertices"] = float64(ballVertices) / float64(q)

	wt := snap.WalkTable()
	pos := make([]uint32, walkFront)
	lane := make([]uint64, 2*graph.StepLane)
	r := rng.New(1)
	liveSteps := 0
	err = l.pass("graph.walk_steps", l.edge,
		func(_ int, u uint32) {
			for i := range pos {
				pos[i] = u
			}
		},
		func(int, uint32) error {
			for t := 0; t < params.T; t++ {
				liveSteps += wt.StepWalks(r, pos, lane)
			}
			return nil
		}, nil)
	if err != nil {
		return nil, err
	}

	// --- core, query: cold, prolog-warm, and tally-hit passes ---
	cold, err := l.open(indexPath, -1, 0)
	if err != nil {
		return nil, err
	}
	warm, err := l.open(indexPath, cacheRoomy, 0)
	if err != nil {
		return nil, err
	}
	hit, err := l.open(indexPath, cacheRoomy, cacheRoomy)
	if err != nil {
		return nil, err
	}
	var counts simrank.QueryStats
	returned := 0
	query := func(idx *simrank.Index, tally func(simrank.QueryStats, int)) func(int, uint32) error {
		return func(_ int, u uint32) error {
			res, qs, err := idx.TopKWithStatsCtx(ctx, int(u), topK)
			if tally != nil {
				tally(qs, len(res))
			}
			return err
		}
	}
	err = l.pass("core.topk_cold", l.prefix, nil, query(cold, func(qs simrank.QueryStats, n int) {
		counts.Candidates += qs.Candidates
		counts.PrunedByBound += qs.PrunedByBound
		counts.PrunedByRough += qs.PrunedByRough
		counts.Refined += qs.Refined
		returned += n
	}), nil)
	if err != nil {
		return nil, err
	}
	fq := float64(q)
	m["core.candidates"] = float64(counts.Candidates) / fq
	m["core.pruned_by_bound"] = float64(counts.PrunedByBound) / fq
	m["core.pruned_by_rough"] = float64(counts.PrunedByRough) / fq
	m["core.refined"] = float64(counts.Refined) / fq
	m["core.returned"] = float64(returned) / fq
	m["core.refine_yield"] = ratio(float64(returned), float64(counts.Refined))

	// Fill both caches with one untimed traversal each. The hit ratios
	// of these first traversals are the reuse the stream itself offers.
	if err := l.timed("fill", l.root, -1, func() error { return fillCaches(ctx, l.prefix, warm, hit) }); err != nil {
		return nil, err
	}
	m["core.prolog_hit_ratio"] = hitRatio(warm.PrologStats())
	m["core.tally_hit_ratio"] = hitRatio(hit.CacheStats())
	if err := l.pass("core.topk_warm", l.prefix, nil, query(warm, nil), nil); err != nil {
		return nil, err
	}
	if err := l.pass("core.topk_hit", l.prefix, nil, query(hit, nil), nil); err != nil {
		return nil, err
	}

	// --- core, shard path: both halves, then the merge replay ---
	bounds := [3]int{0, n / 2, n}
	frags := make([][2][]simrank.ShardCand, q)
	fragStats := make([]simrank.QueryStats, q)
	var scratch []simrank.ShardCand
	fragCands := 0
	for half := 0; half < 2; half++ {
		err = l.pass("core.shard_scan", l.prefix, nil,
			func(qi int, u uint32) (err error) {
				scratch, fragStats[qi], err = warm.TopKShardAppendCtx(ctx, int(u), bounds[half], bounds[half+1], scratch[:0])
				return err
			},
			func(qi int, _ uint32) error {
				frags[qi][half] = append([]simrank.ShardCand(nil), scratch...)
				fragCands += len(scratch)
				return nil
			})
		if err != nil {
			return nil, err
		}
	}
	m["core.frag_cands"] = float64(fragCands) / (2 * fq)
	var ms simrank.MergeScratch
	theta := warm.Threshold()
	err = l.pass("core.merge", l.prefix, nil, func(qi int, _ uint32) error {
		simrank.MergeShardTopKScratch(topK, theta, frags[qi][:], &ms)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	heads, groups := batches(l.prefix)
	us := make([]int, 16)
	err = l.pass("core.batch16", heads,
		func(qi int, _ uint32) {
			for i, u := range groups[qi] {
				us[i] = int(u)
			}
		},
		func(int, uint32) error {
			_, err := hit.TopKBatchCtx(ctx, us, topK)
			return err
		}, nil)
	if err != nil {
		return nil, err
	}

	// --- wire: the codec on the real upper-half fragments ---
	var frame []byte
	frameBytes := 0
	var resp wire.TopKResp
	err = l.pass("wire.encode", l.edge,
		func(qi int, u uint32) {
			resp = wire.TopKResp{Query: u, Shard: 1, Stats: server.StatsToWire(fragStats[qi]), Frag: frags[qi][1]}
		},
		func(int, uint32) error {
			frame = wire.AppendTopKResp(frame[:0], &resp)
			return nil
		},
		func(int, uint32) error {
			frameBytes += len(frame)
			return nil
		})
	if err != nil {
		return nil, err
	}
	m["wire.frame_bytes"] = float64(frameBytes) / float64(len(l.edge))
	var parsed wire.Frame
	var decoded wire.TopKResp
	err = l.pass("wire.decode", l.edge,
		func(qi int, u uint32) { // each frame is encoded again here: keeping them all buys nothing
			resp = wire.TopKResp{Query: u, Shard: 1, Stats: server.StatsToWire(fragStats[qi]), Frag: frags[qi][1]}
			frame = wire.AppendTopKResp(frame[:0], &resp)
		},
		func(int, uint32) error {
			if err := parsed.Parse(frame); err != nil {
				return err
			}
			return parsed.TopKResp(&decoded)
		},
		func(qi int, _ uint32) error {
			if len(decoded.Frag) != len(frags[qi][1]) {
				return fmt.Errorf("decoded %d candidates, encoded %d", len(decoded.Frag), len(frags[qi][1]))
			}
			return nil
		})
	if err != nil {
		return nil, err
	}

	// --- server: handlers into a recorder, prolog warm ---
	single := &serve{h: server.New(warm)}
	// The handler reports the time its own core call took, so what it
	// adds is read off each response: no second pass to drift against.
	insideUS := 0.0
	err = l.pass("server.topk", l.edge, func(_ int, u uint32) { single.get(topkPath("/topk", u), "") },
		func(int, uint32) error { single.call(); return nil },
		func(int, uint32) error {
			var resp server.TopKResponse
			if err := json.Unmarshal(single.rec.Body.Bytes(), &resp); err != nil {
				return errors.Join(single.ok(), err)
			}
			insideUS += resp.ElapsedM * 1000
			return single.ok()
		})
	if err != nil {
		return nil, err
	}
	batched := &serve{h: server.New(hit)}
	edgeHeads, edgeGroups := batches(l.edge)
	err = l.servePass("server.batch16", edgeHeads, batched, func(qi int, _ uint32) { batched.post("/topk/batch", appendBatchBody(nil, edgeGroups[qi])) })
	if err != nil {
		return nil, err
	}

	// Two shard sets over the warm index: one advertising a binary TCP
	// listener, one HTTP only. Which transport a router picks follows
	// from what its shards advertise and from Config.Wire.
	var tcpShards, httpShards [2]*server.Handler
	var binAddr string
	for i := range tcpShards {
		tcpShards[i] = server.NewShard(warm, i, 2)
		httpShards[i] = server.NewShard(warm, i, 2)
		addr, stop, err := tcpShards[i].StartBin("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer stop()
		if i == 0 {
			binAddr = addr
		}
	}
	shard0 := &serve{h: httpShards[0]}
	err = l.servePass("server.shard_bin", l.edge, shard0, func(_ int, u uint32) { shard0.get(topkPath("/shard/topk", u), wire.ContentType) })
	if err != nil {
		return nil, err
	}
	err = l.servePass("server.shard_json", l.edge, shard0, func(_ int, u uint32) { shard0.get(topkPath("/shard/topk", u), "") })
	if err != nil {
		return nil, err
	}
	if err := l.tcpBinPass(binAddr, bounds[0], bounds[1]); err != nil {
		return nil, err
	}

	// --- router: in-process, two shards, real loopback sockets ---
	routers := []struct {
		name   string
		shards [2]*server.Handler
		wire   string
		batch  bool
	}{
		{"tcp-bin", tcpShards, router.WireBin, true},
		{"http-bin", httpShards, router.WireBin, false},
		{"json", httpShards, router.WireJSON, false},
	}
	for _, rc := range routers {
		var urls []string
		for _, h := range rc.shards {
			srv := httptest.NewServer(h)
			defer srv.Close()
			urls = append(urls, srv.URL)
		}
		rt := router.New(router.Config{Shards: urls, Wire: rc.wire})
		if err := rt.Probe(ctx); err != nil {
			return nil, err
		}
		routed := &serve{h: rt}
		var besideErr error
		err = l.pass("router.topk."+rc.name, l.edge,
			func(qi int, u uint32) {
				besideErr = nil
				for half := 0; half < 2 && rc.batch; half++ {
					besideErr = errors.Join(besideErr, l.timed("core.shard_scan.beside", l.parent, qi, func() (err error) {
						scratch, _, err = warm.TopKShardAppendCtx(ctx, int(u), bounds[half], bounds[half+1], scratch[:0])
						return err
					}))
				}
				routed.get(topkPath("/topk", u), "")
			},
			func(int, uint32) error { routed.call(); return nil },
			func(int, uint32) error { return errors.Join(besideErr, routed.ok()) })
		if err != nil {
			return nil, err
		}
		if !rc.batch {
			continue
		}
		err = l.servePass("router.batch16."+rc.name, edgeHeads, routed, func(qi int, _ uint32) { routed.post("/topk/batch", appendBatchBody(nil, edgeGroups[qi])) })
		if err != nil {
			return nil, err
		}
	}

	// --- times: mean self time per span name, then the derived ones ---
	ms1 := func(name string) float64 { return tr.selfMean(name) / 1e6 }
	us1 := func(name string) float64 { return tr.selfMean(name) / 1e3 }
	m["graph.load_ms"] = ms1("graph.load")
	m["core.build_ms"] = ms1("core.build")
	m["core.load_stream_ms"] = ms1("core.load_stream")
	m["core.load_mmap_ms"] = ms1("core.load_mmap")
	m["graph.ball_us"] = us1("graph.ball")
	m["graph.walk_step_ns"] = ratio(tr.selfMean("graph.walk_steps")*float64(len(l.edge)), float64(liveSteps))
	for _, name := range []string{
		"core.topk_cold", "core.topk_warm", "core.topk_hit", "core.shard_scan", "core.merge", "core.batch16",
		"wire.encode", "wire.decode",
		"server.topk", "server.batch16", "server.shard_bin", "server.shard_json", "server.tcp_bin",
	} {
		m[name+"_us"] = us1(name)
	}
	m["router.topk_us.tcp-bin"] = us1("router.topk.tcp-bin")
	m["router.topk_us.http-bin"] = us1("router.topk.http-bin")
	m["router.topk_us.json"] = us1("router.topk.json")
	m["router.batch16_us.tcp-bin"] = us1("router.batch16.tcp-bin")
	m["core.prolog_us"] = m["core.topk_cold_us"] - m["core.topk_warm_us"]
	m["core.walk_us"] = m["core.topk_warm_us"] - m["core.topk_hit_us"]
	m["core.rest_us"] = m["core.topk_hit_us"] - m["graph.ball_us"]
	m["core.shard_split"] = ratio(m["core.topk_warm_us"], m["core.shard_scan_us"])
	m["server.overhead_us"] = m["server.topk_us"] - insideUS/float64(len(l.edge))
	m["router.overhead_us"] = m["router.topk_us.tcp-bin"] - us1("core.shard_scan.beside")
	return m, nil
}

// fillCaches traverses the prefix once on each index, side by side:
// each index is touched by one goroutine only, so its cache counters
// repeat exactly.
func fillCaches(ctx context.Context, prefix []uint32, idxs ...*simrank.Index) error {
	errs := make([]error, len(idxs))
	var wg sync.WaitGroup
	for i, idx := range idxs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, u := range prefix {
				if _, err := idx.TopKCtx(ctx, int(u), topK); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tcpBinPass times one framed request/response exchange per query over
// a persistent connection to a shard's binary listener.
func (l *layers) tcpBinPass(addr string, lo, hi int) error {
	var d net.Dialer
	conn, err := d.DialContext(l.ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var out []byte
	var in wire.Buf
	var data []byte
	var frame wire.Frame
	var resp wire.TopKResp
	return l.pass("server.tcp_bin", l.edge,
		func(_ int, u uint32) {
			out = wire.AppendTopKReq(out[:0], wire.TopKReq{U: u, Lo: uint32(lo), Hi: uint32(hi)})
		},
		func(int, uint32) error {
			if _, err := conn.Write(out); err != nil {
				return err
			}
			data, err = wire.ReadFrame(br, &in)
			return err
		},
		func(int, uint32) error {
			if err := frame.Parse(data); err != nil {
				return err
			}
			return frame.TopKResp(&resp)
		})
}
