package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	simrank "repro"
	"repro/internal/graph"
	"repro/internal/router"
	"repro/internal/server"
)

// setups is how many times a run brings the topology up: set-up time is
// one sample per spawn, so one run takes a few and reports the median.
const setups = 3

// liveCounters is the slice of /statusz the per-layer metrics use,
// summed over every server-side process of the topology.
type liveCounters [numCounters]float64

const (
	prologHits = iota
	prologMisses
	tallyHits
	tallyMisses
	timeouts
	binRequests // shard side: binary answers and their bytes
	binBytesSent
	routerQueries
	routerEncodeNS
	routerDecodeNS
	routerBytes
	routerHedges
	routerAttemptErrs
	routerFailures
	numCounters
)

func (c *liveCounters) addServer(st *server.StatuszResponse) {
	if st.Prolog != nil {
		c[prologHits] += float64(st.Prolog.Hits)
		c[prologMisses] += float64(st.Prolog.Misses)
	}
	if st.Cache != nil {
		c[tallyHits] += float64(st.Cache.Hits)
		c[tallyMisses] += float64(st.Cache.Misses)
	}
	c[timeouts] += float64(st.TimeoutsTotal)
	c[binRequests] += float64(st.Wire.BinRequestsTotal)
	c[binBytesSent] += float64(st.Wire.BytesSent)
}

// since returns the counters' growth from an earlier scrape.
func (c liveCounters) since(before liveCounters) liveCounters {
	for i := range c {
		c[i] -= before[i]
	}
	return c
}

func getJSON(ctx context.Context, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, into)
}

// scrape reads the front door's /statusz. A router's /statusz carries
// each shard's own /statusz, so one request covers the topology.
func (t *topology) scrape(ctx context.Context) (liveCounters, error) {
	var c liveCounters
	if !t.routed {
		var st server.StatuszResponse
		if err := getJSON(ctx, t.base+"/statusz", &st); err != nil {
			return c, err
		}
		c.addServer(&st)
		return c, nil
	}
	var st router.RouterStatusz
	if err := getJSON(ctx, t.base+"/statusz", &st); err != nil {
		return c, err
	}
	c[routerQueries] = float64(st.QueriesTotal)
	c[routerFailures] = float64(st.FailuresTotal)
	for _, sh := range st.Shards {
		if sh.Status == nil {
			return c, fmt.Errorf("router /statusz: shard %d unreachable", sh.Shard)
		}
		c.addServer(sh.Status)
		c[routerEncodeNS] += float64(sh.EncodeNs)
		c[routerDecodeNS] += float64(sh.DecodeNs)
		c[routerBytes] += float64(sh.BytesSent + sh.BytesReceived)
		c[routerHedges] += float64(sh.HedgesFired)
		c[routerAttemptErrs] += float64(sh.AttemptErrsTotal)
	}
	return c, nil
}

// usage is the CPU picture at one instant.
type usage struct{ servers, self float64 }

func (t *topology) usage() (usage, error) {
	servers, err := sumOver(t.pids(), procCPU)
	if err != nil {
		return usage{}, err
	}
	self, err := selfCPU()
	return usage{servers, self}, err
}

// measurement is everything read off the live topology, from the first
// spawn to teardown.
type measurement struct {
	setupS     []float64 // one entry per set-up
	setupSpeed float64   // speed factor while setting up
	speed      float64   // speed factor during the window
	load       loadResult
	cpu        usage        // CPU consumed during the window
	live       liveCounters // /statusz growth over the window
	rss        float64
	// The accuracy sample's answers, decoded and as served.
	served          [][]server.ResultJSON
	accuracySamples []sample
	logs            string // the children's output, kept when a request failed
}

// measure brings the topology up, warms it, runs the window and fetches
// the accuracy sample's answers. Nothing is left running when it returns.
func measure(ctx context.Context, e *env, w workload, sc scale, graphPath string, stream, accuracyUs []uint32, e2e bool) (*measurement, error) {
	m := &measurement{}
	// Set-up, several times over; the last topology stays up for the
	// window. The traced run does not report setup_s and sets up once.
	var topo *topology
	var err error
	probe := startProbe()
	for i := 0; i < setups; i++ {
		if topo != nil {
			topo.stop()
		}
		if topo, err = startTopology(ctx, e, w, graphPath); err != nil {
			_, _ = probe.finish() // the set-up error is the one to report
			return nil, err
		}
		defer topo.stop()
		m.setupS = append(m.setupS, topo.setup.Seconds())
		if !e2e {
			break
		}
	}
	if m.setupSpeed, err = probe.finish(); err != nil {
		return nil, err
	}

	clients := make([]*client, numClients())
	for i := range clients {
		clients[i] = newClient(topo.base, w.batch, stream)
		defer clients[i].hc.CloseIdleConnections()
	}
	warm := drive(ctx, clients, 0, sc.warmup(w), 0)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %w\n%s", warm.failed, warm.attempted, warm.lastErr, topo.logs())
	}

	// The measured window runs with no instrumentation: counters and
	// CPU are read before and after, nothing in between.
	before, err := topo.scrape(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := topo.usage()
	if err != nil {
		return nil, err
	}
	probe = startProbe()
	m.load = drive(ctx, clients, warm.nextReq, 0, time.Duration(sc.window*float64(time.Second)))
	if m.speed, err = probe.finish(); err != nil {
		return nil, err
	}
	cpu1, err := topo.usage()
	if err != nil {
		return nil, err
	}
	after, err := topo.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if m.rss, err = sumOver(topo.pids(), procPeakRSS); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.cpu = usage{cpu1.servers - cpu0.servers, cpu1.self - cpu0.self}
	m.live = after.since(before)

	// The accuracy sample goes through the same request path as the
	// window, on one more connection.
	c := newClient(topo.base, w.batch, accuracyUs)
	defer c.hc.CloseIdleConnections()
	var vs []uint32
	for req := 0; req*w.batch < len(accuracyUs); req++ {
		vs = reqVertices(accuracyUs, w.batch, req, vs)
		if err := c.do(ctx, vs); err != nil {
			return nil, fmt.Errorf("accuracy request: %w\n%s", err, topo.logs())
		}
		got, err := decodeResults(c.body.Bytes(), w.batch)
		if err != nil {
			return nil, fmt.Errorf("accuracy request: %w", err)
		}
		m.served = append(m.served, got...)
		m.accuracySamples = append(m.accuracySamples, sample{req: req, body: slices.Clone(c.body.Bytes())})
	}
	if m.load.failed > 0 {
		m.logs = topo.logs()
	}
	return m, nil
}

// runWorkload runs one workload end to end. e2e selects the end-to-end
// metrics, traced the per-layer ones; both may be set.
func runWorkload(ctx context.Context, e *env, w workload, sc scale, seed uint64, e2e, traced bool) (*result, error) {
	tmp, err := os.MkdirTemp(e.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// The graph is a fixed data set, the request stream comes from the
	// seed; the programs under test see only the edge-list file and the
	// requests.
	graphPath := filepath.Join(tmp, "graph.txt")
	if err := graph.SaveEdgeListFile(graphPath, genGraph(w, sc.n)); err != nil {
		return nil, err
	}
	stream := genStream(w, sc.n, seed)
	var accuracyUs []uint32
	if e2e {
		accuracyUs = accuracySample(sc.n, accuracyVertices)
	}
	m, err := measure(ctx, e, w, sc, graphPath, stream, accuracyUs, e2e)
	if err != nil {
		return nil, err
	}

	// Verification, after teardown: an in-process oracle over the same
	// file the servers loaded, built with the same options.
	g, err := simrank.LoadEdgeListFile(graphPath)
	if err != nil {
		return nil, err
	}
	opts := servingOptions()
	oracle := simrank.BuildIndex(g, opts)
	bad, firstBad := verifySamples(oracle, stream, w.batch, m.load.samples)
	badAcc, firstBadAcc := verifySamples(oracle, accuracyUs, w.batch, m.accuracySamples)
	if firstBad == nil {
		firstBad = firstBadAcc
	}
	res := &result{
		Attempted: m.load.attempted + len(m.accuracySamples),
		Failed:    m.load.failed + bad + badAcc,
	}
	res.Correct = res.Failed == 0

	if e2e {
		// Times and rates are reported as they would read at the
		// reference machine speed; see probe.go for why.
		queries := float64((m.load.attempted - m.load.failed) * w.batch)
		secs := m.load.elapsed.Seconds()
		p99, at := chunkedTail(m.load.latMS, 0.99)
		all := slices.Concat(m.load.latMS...)
		qps, p50, cpuMS := queries/secs, median(all), ratio(m.cpu.servers*1000, queries)
		precision, ndcg, evaluated, err := accuracy(g, opts, accuracyUs, m.served)
		if err != nil {
			return nil, err
		}
		err = res.fill(endToEnd, map[string]float64{
			"qps":              qps * m.speed,
			"p50_ms":           p50 / m.speed,
			"p99_ms":           p99 / m.speed,
			"cpu_ms_per_query": cpuMS / m.speed,
			"rss_mb":           m.rss,
			"setup_s":          median(m.setupS) / m.setupSpeed,
			"precision_at_20":  precision,
			"ndcg_at_20":       ndcg,
		})
		if err != nil {
			return nil, err
		}
		fmt.Printf("%s: %d requests in %.2fs, %d failed; latency over %d samples, tail at p%.2f of %d-request chunks; accuracy over %d of %d vertices; %d responses verified\n",
			w.name, m.load.attempted, secs, res.Failed, len(all), at*100, tailChunk, evaluated, len(accuracyUs), len(m.load.samples)+len(m.accuracySamples))
		fmt.Printf("%s: as measured, before scaling to the reference speed: qps %.1f, p50 %.4f ms, p99 %.4f ms, cpu %.4f ms/query at speed factor %.3f; set-ups %.3v s at %.3f\n",
			w.name, qps, p50, p99, cpuMS, m.speed, m.setupS, m.setupSpeed)
	}
	if traced {
		tr := newTracer()
		values, err := runLayers(ctx, tr, graphPath, tmp, stream, sc.layerQ(w))
		if err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(e.outDir, w.name+".trace.json")); err != nil {
			return nil, err
		}
		live := m.live
		values["server.prolog_hit_ratio"] = ratio(live[prologHits], live[prologHits]+live[prologMisses])
		values["server.tally_hit_ratio"] = ratio(live[tallyHits], live[tallyHits]+live[tallyMisses])
		values["server.timeouts"] = live[timeouts]
		values["server.bytes_sent_per_req"] = ratio(live[binBytesSent], live[binRequests])
		values["router.encode_ns_per_req"] = ratio(live[routerEncodeNS], live[routerQueries])
		values["router.decode_ns_per_req"] = ratio(live[routerDecodeNS], live[routerQueries])
		values["router.bytes_per_req"] = ratio(live[routerBytes], live[routerQueries])
		values["router.hedges_fired"] = live[routerHedges]
		values["router.attempt_errors"] = live[routerAttemptErrs]
		values["router.failures"] = live[routerFailures]
		if values["loadgen.null_us"], err = nullLatencyUS(ctx, 10000); err != nil {
			return nil, err
		}
		values["loadgen.speed"] = m.speed
		values["loadgen.cpu_share"] = ratio(m.cpu.self, m.cpu.self+m.cpu.servers)
		if err := res.fill(perLayer, values); err != nil {
			return nil, err
		}
	}
	if !res.Correct {
		return res, fmt.Errorf("%s: %d of %d operations failed (last request error: %v; first mismatch: %v)\n%s",
			w.name, res.Failed, res.Attempted, m.load.lastErr, firstBad, m.logs)
	}
	return res, nil
}
