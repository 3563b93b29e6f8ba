// Command simrouter fronts a set of shard simservers: each query goes to
// one of them, taken in rotation, which answers it over the whole vertex
// range; its fragment is replayed through the single-node merge, and the
// answer — results and pruning statistics — is byte-identical to one
// simserver holding the whole query.
//
// The shard servers run simserver -shard i/n over the same graph, seed,
// and parameters; the router probes /readyz and /shardinfo on every
// address until the manifests form one coherent topology, then serves.
// A slow server is hedged to the next server after -hedge-delay and a
// down server fails over immediately (every server holds the full
// snapshot and computes the same answer). Every attempt —
// first, hedged or failed-over — picks its transport the same way:
// the server's binary TCP listener (simserver -bin-addr) when it
// advertises one, binary-negotiated HTTP otherwise, JSON with -wire json.
//
// Example:
//
//	simserver -graph web.txt -shard 0/2 -addr :8081 &
//	simserver -graph web.txt -shard 1/2 -addr :8082 &
//	simrouter -shards http://localhost:8081,http://localhost:8082 -addr :8080
//	curl 'localhost:8080/topk?u=42&k=20'
//	curl 'localhost:8080/statusz'
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
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simrouter: ")

	shards := flag.String("shards", "", "comma-separated shard server base URLs (required)")
	addr := flag.String("addr", ":8080", "listen address")
	hedgeDelay := flag.Duration("hedge-delay", 50*time.Millisecond, "delay before hedging a slow shard to the next server (0 disables hedging)")
	maxAttempts := flag.Int("max-attempts", 2, "servers tried per query (failover + hedging)")
	queryTimeout := flag.Duration("query-timeout", 10*time.Second, "per-query deadline across all attempts (0 = unlimited)")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-address deadline when probing membership")
	probeRetry := flag.Duration("probe-retry", time.Second, "how long to wait between membership probe attempts")
	shutdownGrace := flag.Duration("shutdown-grace", 5*time.Second, "how long to drain in-flight requests on SIGINT/SIGTERM")
	wireMode := flag.String("wire", router.WireBin, "shard transport encoding: bin (persistent TCP / negotiated HTTP) or json (force JSON)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof under /debug/pprof/ on this address of its own (e.g. 127.0.0.1:6061); off when empty, never on -addr")
	flag.Parse()

	if *shards == "" {
		log.Fatal("-shards is required")
	}
	var addrs []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			addrs = append(addrs, s)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("-shards lists no addresses")
	}

	if *wireMode != router.WireBin && *wireMode != router.WireJSON {
		log.Fatalf("-wire must be %q or %q, got %q", router.WireBin, router.WireJSON, *wireMode)
	}
	_, stopDebug, err := server.ServeDebug(*debugAddr)
	if err != nil {
		log.Fatalf("-debug-addr: %v", err)
	}
	defer stopDebug()
	rt := router.New(router.Config{
		Shards:       addrs,
		HedgeDelay:   *hedgeDelay,
		MaxAttempts:  *maxAttempts,
		QueryTimeout: *queryTimeout,
		ProbeTimeout: *probeTimeout,
		Wire:         *wireMode,
	})

	// Serve immediately — the router answers 503 not_ready until the
	// probe succeeds — and keep probing in the background so the shard
	// servers may come up in any order (their index builds take time).
	probeCtx, probeCancel := context.WithCancel(context.Background())
	defer probeCancel()
	go func() {
		for {
			err := rt.Probe(probeCtx)
			if err == nil {
				log.Printf("topology ready: %d shards", len(addrs))
				return
			}
			log.Printf("probe: %v (retrying in %v)", err, *probeRetry)
			select {
			case <-probeCtx.Done():
				return
			case <-time.After(*probeRetry):
			}
		}
	}()

	writeTimeout := 0 * time.Second
	if *queryTimeout > 0 {
		writeTimeout = *queryTimeout + 5*time.Second
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		log.Printf("listening on %s (shards: %s)", *addr, strings.Join(addrs, ", "))
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println()
	log.Print("shutting down")
	probeCancel()
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
}
