// Command dynamic demonstrates similarity search over an evolving graph:
// a stream of edge insertions (a growing web crawl) interleaved with
// queries. The DynamicIndex buffers updates and reruns the preprocess on
// a refresh; queries serve a published snapshot, so each batch is applied
// with an explicit Refresh before re-querying (read-your-writes on
// demand).
//
// Run with:
//
//	go run ./examples/dynamic
package main

import (
	"fmt"
	"log"

	simrank "repro"
)

func main() {
	const n = 2000
	// Start from a seed crawl.
	seed := simrank.GenerateWebGraph(n, 6, 0.3, 21)
	opts := simrank.DefaultOptions()
	opts.Seed = 21
	dx := simrank.NewDynamicIndexFrom(seed, opts)
	defer dx.Close()

	// Pick two quiet pages (at most one in-link) so the incoming
	// co-citations dominate their similarity.
	qa, qb := -1, -1
	for v := 0; v < n && qb < 0; v++ {
		if seed.InDegree(v) <= 1 {
			if qa < 0 {
				qa = v
			} else {
				qb = v
			}
		}
	}
	if qb < 0 {
		log.Fatal("no quiet pages in the generated crawl")
	}

	show := func(when string) {
		top, err := dx.TopK(qa, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: top pages related to %d:\n", when, qa)
		for i, r := range top {
			fmt.Printf("  #%d page %-6d score %.4f\n", i+1, r.Node, r.Score)
		}
		if len(top) == 0 {
			fmt.Println("  (none above threshold)")
		}
		fmt.Println()
	}
	show("before updates")

	// The crawler discovers that pages 100..104 all link to both quiet
	// pages — they become co-cited, so s(qa, qb) should jump.
	before, err := dx.SinglePair(qa, qb)
	if err != nil {
		log.Fatal(err)
	}
	for src := 100; src <= 104; src++ {
		if err := dx.AddEdge(src, qa); err != nil {
			log.Fatal(err)
		}
		if err := dx.AddEdge(src, qb); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("buffered 10 new edges (%d vertices with in-links not yet applied)\n\n", dx.PendingUpdates())

	// Queries would keep serving the pre-update snapshot until the
	// background refresh lands; Refresh applies the batch synchronously.
	if err := dx.Refresh(); err != nil {
		log.Fatal(err)
	}
	after, err := dx.SinglePair(qa, qb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("s(%d, %d): %.4f -> %.4f after co-citation\n\n", qa, qb, before, after)
	show("after updates")

	// Retract the discovery (pages went offline).
	for src := 100; src <= 104; src++ {
		dx.RemoveEdge(src, qa)
		dx.RemoveEdge(src, qb)
	}
	if err := dx.Refresh(); err != nil {
		log.Fatal(err)
	}
	restored, err := dx.SinglePair(qa, qb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after retraction: s(%d, %d) = %.4f (back to the original %.4f)\n",
		qa, qb, restored, before)
}
