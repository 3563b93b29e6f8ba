package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The load generator is closed-loop: each client sends its next request
// only after the previous reply, because the callers this system has —
// the router tier, batch jobs, a recommender back end — each wait for
// an answer. On the 2-core reference box two clients saturate the
// servers without starving them of a core.
func numClients() int { return min(2, runtime.NumCPU()) }

// sampleEvery keeps every 32nd response body of the window for the
// oracle check after teardown.
const sampleEvery = 32

const topK = 20

// sample is one kept response: which request it answered and the body.
type sample struct {
	req  int
	body []byte
}

// client is one closed-loop caller with one keep-alive connection.
type client struct {
	hc      *http.Client
	base    string
	batch   int
	stream  []uint32
	body    bytes.Buffer // response scratch
	reqBody []byte       // batch request scratch
	vs      []uint32     // request-vertex scratch

	latMS   []float64
	samples []sample
	done    int
	failed  int
	lastErr error
}

func newClient(base string, batch int, stream []uint32) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{
		hc:     &http.Client{Transport: tr, Timeout: 30 * time.Second},
		base:   base,
		batch:  batch,
		stream: stream,
	}
}

func topkPath(endpoint string, u uint32) string {
	return endpoint + "?u=" + strconv.FormatUint(uint64(u), 10) + "&k=" + strconv.Itoa(topK)
}

// appendBatchBody appends the JSON body of a /topk/batch request.
func appendBatchBody(dst []byte, us []uint32) []byte {
	dst = append(dst, `{"queries":[`...)
	for i, u := range us {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(u), 10)
	}
	dst = append(dst, `],"k":`...)
	dst = strconv.AppendInt(dst, topK, 10)
	return append(dst, '}')
}

// reqVertices returns the stream entries request number req carries.
func reqVertices(stream []uint32, batch, req int, dst []uint32) []uint32 {
	dst = dst[:0]
	for i := 0; i < batch; i++ {
		dst = append(dst, stream[(req*batch+i)%len(stream)])
	}
	return dst
}

// do sends one request for vs and leaves the response in c.body. Any
// transport error, timeout or non-200 status is an error.
func (c *client) do(ctx context.Context, vs []uint32) error {
	var req *http.Request
	var err error
	if c.batch == 1 {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+topkPath("/topk", vs[0]), nil)
	} else {
		c.reqBody = appendBatchBody(c.reqBody[:0], vs)
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/topk/batch", bytes.NewReader(c.reqBody))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.body.Reset()
	if _, err := c.body.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, c.body.Bytes())
	}
	return nil
}

// run issues requests first, first+stride, ... until stop says so. With
// record set it keeps latencies and every sampleEvery-th body.
func (c *client) run(ctx context.Context, first, stride int, record bool, stop func(sent int) bool) {
	for i, req := 0, first; !stop(i) && ctx.Err() == nil; i, req = i+1, req+stride {
		c.vs = reqVertices(c.stream, c.batch, req, c.vs)
		t0 := time.Now()
		err := c.do(ctx, c.vs)
		lat := time.Since(t0)
		c.done++
		if err != nil {
			c.failed++
			c.lastErr = err
			continue
		}
		if !record {
			continue
		}
		c.latMS = append(c.latMS, float64(lat.Nanoseconds())/1e6)
		if i%sampleEvery == 0 {
			c.samples = append(c.samples, sample{req: req, body: bytes.Clone(c.body.Bytes())})
		}
	}
}

// loadResult is what one phase of load produced, merged over clients.
type loadResult struct {
	elapsed   time.Duration
	attempted int
	failed    int
	latMS     [][]float64 // per client, successful requests only, in order
	samples   []sample
	lastErr   error
	nextReq   int // first request number no client has used
}

// drive runs the clients in parallel from request number first. With
// count > 0 it sends exactly count requests (the warm-up); otherwise it
// sends for window and records.
func drive(ctx context.Context, clients []*client, first, count int, window time.Duration) loadResult {
	n := len(clients)
	for _, c := range clients {
		c.latMS, c.samples, c.done, c.failed, c.lastErr = c.latMS[:0], nil, 0, 0, nil
	}
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for i, c := range clients {
		stop := func(int) bool { return !time.Now().Before(deadline) }
		if count > 0 {
			share := count / n
			if i < count%n {
				share++
			}
			stop = func(sent int) bool { return sent >= share }
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(ctx, first+i, n, count == 0, stop)
		}()
	}
	wg.Wait()
	res := loadResult{elapsed: time.Since(start)}
	most := 0
	for _, c := range clients {
		res.attempted += c.done
		res.failed += c.failed
		res.latMS = append(res.latMS, c.latMS)
		res.samples = append(res.samples, c.samples...)
		if c.lastErr != nil {
			res.lastErr = c.lastErr
		}
		most = max(most, c.done)
	}
	res.nextReq = first + most*n
	return res
}

// nullLatencyUS is the load generator's own floor: the median latency
// of requests against an in-process handler that returns a canned
// 600-byte body, through the same client code the window uses.
func nullLatencyUS(ctx context.Context, requests int) (float64, error) {
	canned := bytes.Repeat([]byte("x"), 600)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(canned) // a failed write surfaces as a client error
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1, []uint32{0})
	defer c.hc.CloseIdleConnections()
	c.run(ctx, 0, 1, true, func(sent int) bool { return sent >= requests })
	if c.failed > 0 {
		return 0, fmt.Errorf("null server: %d of %d requests failed: %w", c.failed, requests, c.lastErr)
	}
	return median(c.latMS) * 1000, nil
}
