// Command simserver serves top-k SimRank similarity search over HTTP.
//
// The index builds in the background: the server starts listening
// immediately, /healthz reports the process is up, and /readyz flips from
// 503 to 200 once the preprocess finishes and queries are served. Each
// query runs under the request context bounded by -query-timeout, and
// SIGINT/SIGTERM drain in-flight requests for up to -shutdown-grace.
//
// Example:
//
//	gengraph -kind copying -n 100000 -k 8 -o web.txt
//	simserver -graph web.txt -addr :8080
//	curl 'localhost:8080/readyz'
//	curl 'localhost:8080/topk?u=42&k=20'
//	curl 'localhost:8080/pair?u=42&v=99'
//	curl 'localhost:8080/similar?u=42&theta=0.05'
//	curl 'localhost:8080/stats'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	simrank "repro"
	"repro/internal/server"
)

// parseShardSpec parses the -shard flag: "" means stand-alone (0 of 1),
// otherwise "i/n" with 0 <= i < n.
func parseShardSpec(s string) (shardIdx, numShards int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	var i, n int
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("-shard must look like \"i/n\", got %q", s)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("-shard %q out of range: need 0 <= i < n", s)
	}
	return i, n, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("simserver: ")

	graphPath := flag.String("graph", "", "edge-list file (required unless -mmap)")
	indexPath := flag.String("load-index", "", "optional pre-built index file (see simsearch -save-index)")
	useMmap := flag.Bool("mmap", false, "serve -load-index from a memory mapping (off unix: read whole and verified) instead of reading it over -graph: zero-copy load, graph read from the index file itself")
	addr := flag.String("addr", ":8080", "listen address")
	c := flag.Float64("c", 0.6, "decay factor")
	theta := flag.Float64("theta", 0.01, "score threshold")
	seed := flag.Uint64("seed", 1, "Monte-Carlo seed")
	cacheBytes := flag.Int64("cache-bytes", 0, "cross-query tally cache budget in bytes (0 = disabled); results are identical either way")
	queryTimeout := flag.Duration("query-timeout", 10*time.Second, "per-query computation deadline (0 = unlimited)")
	shutdownGrace := flag.Duration("shutdown-grace", 5*time.Second, "how long to drain in-flight requests on SIGINT/SIGTERM")
	shardSpec := flag.String("shard", "", "serve as shard i of n, written \"i/n\" (e.g. -shard 0/3); enables owned-range /shard/* queries for a simrouter tier")
	binAddr := flag.String("bin-addr", "", "also serve the binary shard wire protocol on this TCP address (e.g. :8180); advertised via /shardinfo for the simrouter fast path")
	flag.Parse()

	if *useMmap && *indexPath == "" {
		log.Fatal("-mmap requires -load-index")
	}
	shardIdx, numShards, err := parseShardSpec(*shardSpec)
	if err != nil {
		log.Fatal(err)
	}
	var g *simrank.Graph
	if *graphPath != "" {
		var err error
		start := time.Now()
		g, err = simrank.LoadEdgeListFile(*graphPath)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("graph: %d vertices, %d edges, loaded in %v", g.NumVertices(), g.NumEdges(),
			time.Since(start).Round(time.Millisecond))
	} else if !*useMmap {
		// With -mmap the graph comes out of the index file itself.
		log.Fatal("-graph is required")
	}

	opts := simrank.DefaultOptions()
	opts.DecayFactor = *c
	opts.Threshold = *theta
	opts.Seed = *seed
	opts.CacheBytes = *cacheBytes

	// The query handler is swapped in atomically once the index is ready;
	// until then the bootstrap handler answers /healthz (process is up)
	// and 503s everything else, so orchestrators can distinguish "alive"
	// from "ready" during a long preprocess.
	var ready atomic.Pointer[server.Handler]
	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := ready.Load(); h != nil {
			h.ServeHTTP(w, r)
			return
		}
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ok")
			return
		}
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, server.CodeNotReady, "index not ready")
	})

	buildDone := make(chan error, 1)
	var munmap atomic.Pointer[func() error]
	go func() {
		var idx *simrank.Index
		start := time.Now()
		if *useMmap {
			var closer func() error
			var err error
			idx, closer, err = simrank.LoadIndexMmap(*indexPath, opts)
			if err != nil {
				buildDone <- err
				return
			}
			munmap.Store(&closer)
			if g != nil && (idx.Graph().NumVertices() != g.NumVertices() || idx.Graph().NumEdges() != g.NumEdges()) {
				buildDone <- fmt.Errorf("-graph (%d vertices, %d edges) does not match the mapped index (%d vertices, %d edges)",
					g.NumVertices(), g.NumEdges(), idx.Graph().NumVertices(), idx.Graph().NumEdges())
				return
			}
			log.Printf("mapped index in %v: %d vertices, %d edges",
				time.Since(start).Round(time.Millisecond), idx.Graph().NumVertices(), idx.Graph().NumEdges())
		} else if *indexPath != "" {
			f, err := os.Open(*indexPath)
			if err != nil {
				buildDone <- err
				return
			}
			idx, err = simrank.LoadIndex(g, opts, f)
			f.Close()
			if err != nil {
				buildDone <- err
				return
			}
			log.Printf("loaded index in %v", time.Since(start).Round(time.Millisecond))
		} else {
			idx = simrank.BuildIndex(g, opts)
			st := idx.Stats()
			log.Printf("preprocess in %v: γ %v, index %v (%d KB)", time.Since(start).Round(time.Millisecond),
				st.GammaTime.Round(time.Millisecond), st.IndexTime.Round(time.Millisecond), st.IndexBytes/1024)
		}
		h := server.NewShard(idx, shardIdx, numShards)
		h.QueryTimeout = *queryTimeout
		if *binAddr != "" {
			// The listener lives until the process exits; HTTP Shutdown
			// drains queries, and binary conns die with the process.
			bound, _, err := h.StartBin(*binAddr)
			if err != nil {
				buildDone <- fmt.Errorf("bin listener: %w", err)
				return
			}
			log.Printf("binary wire protocol on %s", bound)
		}
		ready.Store(h)
		if numShards > 1 {
			m := h.Manifest()
			log.Printf("ready (shard %d/%d, vertices [%d, %d))", m.Shard, m.NumShards, m.Lo, m.Hi)
		} else {
			log.Print("ready")
		}
		buildDone <- nil
	}()

	// WriteTimeout backstops the per-query deadline: a handler that
	// somehow exceeds its query budget still cannot hold the connection
	// forever.
	writeTimeout := 0 * time.Second
	if *queryTimeout > 0 {
		writeTimeout = *queryTimeout + 5*time.Second
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           root,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		log.Printf("listening on %s", *addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-buildDone:
		if err != nil {
			log.Fatal(err)
		}
		<-stop
	case <-stop:
	}
	fmt.Println()
	log.Print("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	// All in-flight queries have drained; the mapping can go.
	if c := munmap.Load(); c != nil {
		if err := (*c)(); err != nil {
			log.Fatal(err)
		}
	}
}
