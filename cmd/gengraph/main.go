// Command gengraph generates synthetic graphs in the structural classes
// of the paper's evaluation and writes them as edge-list files.
//
// Examples:
//
//	gengraph -kind copying -n 100000 -k 8 -p 0.3 -o web.txt
//	gengraph -kind ba -n 50000 -k 14 -p 0.6 -o social.txt
//	gengraph -dataset web-stanford-sim -o web-stanford.txt
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gengraph: ")

	kind := flag.String("kind", "", "generator kind: er|ba|copying|collab|citation|bipartite|star|cycle|path|grid|complete")
	dataset := flag.String("dataset", "", "generate a named dataset stand-in from the benchmark catalog instead")
	scale := flag.Float64("scale", 1.0, "catalog scale factor (with -dataset)")
	n := flag.Int("n", 10000, "number of vertices (communities for collab; users for bipartite)")
	m := flag.Int("m", 0, "number of edges (er only; default 4n)")
	k := flag.Int("k", 4, "per-vertex edges / community size / ratings")
	p := flag.Float64("p", 0.3, "model probability (ba: reciprocity; copying: beta; collab: p_in)")
	n2 := flag.Int("n2", 0, "second partition size (bipartite; default n/5)")
	rows := flag.Int("rows", 100, "grid rows")
	cols := flag.Int("cols", 100, "grid cols")
	seed := flag.Uint64("seed", 1, "generator seed")
	out := flag.String("o", "", "output file (default stdout)")
	stats := flag.Bool("stats", false, "print structural statistics to stderr")
	flag.Parse()

	g, err := buildGraph(*dataset, *scale, *kind, *n, *m, *k, *p, *n2, *rows, *cols, *seed)
	if err != nil {
		log.Fatal(err)
	}

	if *stats {
		st := graph.ComputeStats(g, 20, *seed)
		fmt.Fprintln(os.Stderr, st)
	}

	if err := writeGraph(g, *out); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s: n=%d m=%d\n", *out, g.N(), g.M())
	}
}

// buildGraph resolves the generation request from either a catalog
// dataset name or an explicit generator spec.
func buildGraph(dataset string, scale float64, kind string, n, m, k int, p float64, n2, rows, cols int, seed uint64) (*graph.Graph, error) {
	switch {
	case dataset != "":
		ds, err := bench.ByName(dataset, scale)
		if err != nil {
			return nil, err
		}
		return ds.Build()
	case kind != "":
		if m == 0 {
			m = 4 * n
		}
		if n2 == 0 {
			n2 = n / 5
		}
		return graph.Generate(graph.GenSpec{
			Kind: kind, N: n, M: m, K: k, P: p,
			N2: n2, Rows: rows, Cols: cols, Seed: seed,
		})
	default:
		return nil, fmt.Errorf("one of -kind or -dataset is required")
	}
}

// writeGraph writes g as an edge list to path, or to stdout when path is
// empty.
func writeGraph(g *graph.Graph, path string) error {
	if path == "" {
		return graph.WriteEdgeList(os.Stdout, g)
	}
	return graph.SaveEdgeListFile(path, g)
}
