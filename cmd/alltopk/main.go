// Command alltopk computes top-k similar vertices for every vertex of a
// graph (the "top-k for all" mode) and writes them as TSV. Jobs are
// restartable (-resume) and shardable across machines (-shard i/M); shard
// outputs concatenate into the full result.
//
// Examples:
//
//	alltopk -graph web.txt -k 20 -o topk.tsv
//	alltopk -graph web.txt -k 20 -o topk.tsv -resume      # continue a crashed run
//	alltopk -graph web.txt -k 20 -shard 2/8 -o shard2.tsv # machine 2 of 8
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	simrank "repro"
	"repro/internal/batch"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("alltopk: ")

	graphPath := flag.String("graph", "", "edge-list file (required)")
	out := flag.String("o", "", "output TSV file (required)")
	k := flag.Int("k", 20, "results per vertex")
	c := flag.Float64("c", 0.6, "decay factor")
	theta := flag.Float64("theta", 0.01, "score threshold")
	seed := flag.Uint64("seed", 1, "Monte-Carlo seed")
	shardSpec := flag.String("shard", "", "process only shard i of M, as \"i/M\"")
	resume := flag.Bool("resume", false, "skip vertices already present in the output file and append")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	flag.Parse()

	if *graphPath == "" || *out == "" {
		log.Fatal("-graph and -o are required")
	}
	shard, numShards := 0, 0
	if *shardSpec != "" {
		if _, err := fmt.Sscanf(strings.TrimSpace(*shardSpec), "%d/%d", &shard, &numShards); err != nil {
			log.Fatalf("bad -shard %q (want \"i/M\"): %v", *shardSpec, err)
		}
	}

	g, err := simrank.LoadEdgeListFile(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("graph: %d vertices, %d edges", g.NumVertices(), g.NumEdges())

	p := core.DefaultParams()
	p.C = *c
	p.Theta = *theta
	p.Seed = *seed
	p.Workers = *workers
	start := time.Now()
	eng := core.Build(g.Internal(), p)
	log.Printf("preprocess: %v", time.Since(start).Round(time.Millisecond))

	var (
		f    *os.File
		done map[uint32]bool
	)
	if *resume {
		f, done, err = batch.Resume(*out)
		if err == nil {
			log.Printf("resuming: %d vertices already done", len(done))
		}
	} else {
		f, err = os.Create(*out)
	}
	if err != nil {
		log.Fatal(err)
	}
	job := batch.Job{
		Engine: eng, K: *k,
		Shard: shard, NumShards: numShards,
		Done: done,
		Progress: func(done, total int) {
			log.Printf("progress: %d/%d vertices", done, total)
		},
	}
	start = time.Now()
	processed, err := batch.Run(job, f)
	if err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d vertices to %s in %v", processed, *out, time.Since(start).Round(time.Millisecond))
}
