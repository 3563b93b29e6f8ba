// Command simsearch builds a top-k SimRank similarity-search index over a
// graph and answers queries.
//
// Examples:
//
//	simsearch -graph web.txt -query 42 -k 20
//	simsearch -graph web.txt -queries 100 -k 20          # random batch, timing
//	simsearch -graph web.txt -save-index web.idx         # persist preprocess
//	simsearch -graph web.txt -load-index web.idx -i      # reuse + REPL
//	gengraph -kind copying -n 50000 | simsearch -k 10 -query 7
//
// In interactive mode (-i), each input line is a query: "7" prints the
// top-k for vertex 7, "7 21" prints the single-pair estimate s(7, 21).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	simrank "repro"
	"repro/internal/rng"
)

// strategies names the -strategy values.
var strategies = map[string]simrank.Strategy{
	"linear": simrank.StrategyLinear,
	"index":  simrank.StrategyIndex,
	"ball":   simrank.StrategyBall,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("simsearch: ")

	graphPath := flag.String("graph", "", "edge-list file (default: read stdin)")
	query := flag.Int("query", -1, "query vertex")
	batch := flag.Int("queries", 0, "run this many random queries and report timing")
	k := flag.Int("k", 20, "number of results")
	c := flag.Float64("c", 0.6, "decay factor")
	theta := flag.Float64("theta", 0.01, "score threshold")
	seed := flag.Uint64("seed", 1, "Monte-Carlo seed")
	workers := flag.Int("workers", 0, "parallelism of the preprocess; a query always runs on one goroutine (0 = GOMAXPROCS)")
	strategy := flag.String("strategy", "linear", "how a query finds its answers: linear (deterministic row, no index), index (the paper's Monte-Carlo search) or ball (exhaustive ball candidates)")
	exactCheck := flag.Bool("exact", false, "also print the deterministic-series ranking for comparison")
	saveIndex := flag.String("save-index", "", "write the preprocess results to this file after building")
	loadIndex := flag.String("load-index", "", "reuse preprocess results from this file instead of rebuilding")
	useMmap := flag.Bool("mmap", false, "serve -load-index from a memory mapping (off unix: read whole and verified) instead of reading it over -graph; the graph is read from the index file (-graph ignored)")
	interactive := flag.Bool("i", false, "interactive mode: read queries from stdin")
	flag.Parse()

	if *useMmap && *loadIndex == "" {
		log.Fatal("-mmap requires -load-index")
	}
	var g *simrank.Graph
	var err error
	if *useMmap {
		// The mapped index embeds the graph CSR; nothing else to read.
	} else if *graphPath != "" {
		g, err = simrank.LoadEdgeListFile(*graphPath)
	} else {
		g, err = simrank.LoadEdgeList(os.Stdin)
	}
	if err != nil {
		log.Fatal(err)
	}
	if g != nil {
		fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	}

	opts := simrank.DefaultOptions()
	opts.DecayFactor = *c
	opts.Threshold = *theta
	opts.Seed = *seed
	opts.Workers = *workers
	var ok bool
	if opts.Strategy, ok = strategies[*strategy]; !ok {
		log.Fatalf("-strategy %q: want linear, index or ball", *strategy)
	}

	var idx *simrank.Index
	if *useMmap {
		start := time.Now()
		var closer func() error
		idx, closer, err = simrank.LoadIndexMmap(*loadIndex, opts)
		if err != nil {
			log.Fatal(err)
		}
		defer closer()
		g = idx.Graph()
		fmt.Printf("mapped index %s in %v: %d vertices, %d edges (%d KB)\n",
			*loadIndex, time.Since(start).Round(time.Millisecond),
			g.NumVertices(), g.NumEdges(), idx.Stats().IndexBytes/1024)
	} else if *loadIndex != "" {
		f, err := os.Open(*loadIndex)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		idx, err = simrank.LoadIndex(g, opts, f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded index %s in %v (%d KB)\n",
			*loadIndex, time.Since(start).Round(time.Millisecond), idx.Stats().IndexBytes/1024)
	} else {
		start := time.Now()
		idx = simrank.BuildIndex(g, opts)
		fmt.Printf("preprocess: %v (index %d KB)\n",
			time.Since(start).Round(time.Millisecond), idx.Stats().IndexBytes/1024)
	}
	if *saveIndex != "" {
		f, err := os.Create(*saveIndex)
		if err != nil {
			log.Fatal(err)
		}
		if err := idx.SaveIndex(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved index to %s\n", *saveIndex)
	}

	runOne := func(u int) {
		start := time.Now()
		res, err := idx.TopK(u, *k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntop-%d for vertex %d (%v):\n", *k, u, time.Since(start).Round(time.Microsecond))
		for i, r := range res {
			fmt.Printf("  #%-3d %-8d %.5f\n", i+1, r.Node, r.Score)
		}
		if len(res) == 0 {
			fmt.Println("  (nothing above the threshold)")
		}
		if *exactCheck {
			ex, err := simrank.ExactTopK(g, opts, u, *k)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("exact (deterministic series):")
			for i, r := range ex {
				fmt.Printf("  #%-3d %-8d %.5f\n", i+1, r.Node, r.Score)
			}
		}
	}

	switch {
	case *interactive:
		repl(idx, *k, os.Stdin, os.Stdout)
	case *batch > 0:
		r := rng.New(*seed + 99)
		var total time.Duration
		for i := 0; i < *batch; i++ {
			u := r.Intn(g.NumVertices())
			start := time.Now()
			if _, err := idx.TopK(u, *k); err != nil {
				log.Fatal(err)
			}
			total += time.Since(start)
		}
		fmt.Printf("ran %d queries, avg %v/query\n", *batch, (total / time.Duration(*batch)).Round(time.Microsecond))
	case *query >= 0:
		runOne(*query)
	default:
		log.Fatal("pass -query, -queries, or -i")
	}
}

// repl reads queries from in: "u" for top-k, "u v" for a single pair.
func repl(idx *simrank.Index, k int, in io.Reader, out io.Writer) {
	sc := bufio.NewScanner(in)
	fmt.Fprintln(out, "interactive mode; enter \"u\" for top-k or \"u v\" for a pair (ctrl-D to quit)")
	for {
		fmt.Fprint(out, "> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return
		}
		fields := strings.Fields(sc.Text())
		switch len(fields) {
		case 0:
			continue
		case 1:
			u, err := strconv.Atoi(fields[0])
			if err != nil {
				fmt.Fprintf(out, "bad vertex %q\n", fields[0])
				continue
			}
			start := time.Now()
			res, err := idx.TopK(u, k)
			if err != nil {
				fmt.Fprintln(out, err)
				continue
			}
			for i, r := range res {
				fmt.Fprintf(out, "  #%-3d %-8d %.5f\n", i+1, r.Node, r.Score)
			}
			fmt.Fprintf(out, "  (%v)\n", time.Since(start).Round(time.Microsecond))
		case 2:
			u, err1 := strconv.Atoi(fields[0])
			v, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil {
				fmt.Fprintf(out, "bad pair %q\n", sc.Text())
				continue
			}
			s, err := idx.SinglePair(u, v)
			if err != nil {
				fmt.Fprintln(out, err)
				continue
			}
			fmt.Fprintf(out, "  s(%d,%d) = %.5f\n", u, v, s)
		default:
			fmt.Fprintln(out, "enter one or two vertex IDs")
		}
	}
}
