// Command benchmark is the repository's one benchmark: it builds the
// real simserver and simrouter binaries, drives four named workloads
// against them from a closed-loop load generator, verifies the answers
// against an in-process oracle, and then times each layer from outside
// through its public functions. BENCHMARK.json at the repository root
// declares the command, the workloads and every metric; README.md in
// this directory says what each one means.
//
//	go run ./benchmark                          all workloads, every metric
//	go run ./benchmark -workload web-zipf-routed -seed 7
//	go run ./benchmark -out a.json              keep the numbers
//	go run ./benchmark -compare a.json b.json   check two sets against the bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Workloads map[string]*result `json:"workloads"`
}

// defaultSeconds is the measured window, and BENCHMARK.json's
// run_seconds. Windows of 4 s wandered by 5-8 % between runs on the
// reference box; 15 s is the shortest that repeats within the bounds
// and still fits the driver's total time.
const defaultSeconds = 15

func main() {
	os.Exit(mainExit())
}

func mainExit() int {
	workloadName := flag.String("workload", "", "run one workload (default: all four)")
	seed := flag.Uint64("seed", 1, "seed for the graph and the request stream")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured window in seconds")
	flag.Float64Var(seconds, "window", defaultSeconds, "alias of -seconds")
	trace := flag.String("trace", "all", "0: end-to-end metrics only; 1: per-layer metrics only (the traced run); all: both")
	smoke := flag.Bool("smoke", false, "tiny scale (n = 2000, 1 s window): a functional check, not a measurement")
	out := flag.String("out", "", "also write the results to this file, for -compare")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments, against the metric bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}

	var e2e, traced bool
	switch *trace {
	case "0":
		e2e = true
	case "1":
		traced = true
	case "all":
		e2e, traced = true, true
	default:
		fmt.Fprintf(os.Stderr, "benchmark: -trace must be 0, 1 or all, got %q\n", *trace)
		return 2
	}
	run := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		run = []workload{w}
	}
	sc := scale{n: fullN, window: *seconds}
	if *smoke {
		sc = scale{n: 2000, window: 1}
	}

	// SIGINT and SIGTERM cancel the context; every exit path below then
	// unwinds through the deferred stop of whatever topology is up.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	e, err := newEnv(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	set := resultSet{Seed: *seed, Seconds: sc.window, Workloads: make(map[string]*result)}
	var failed error
	for _, w := range run {
		res, err := runWorkload(ctx, e, w, sc, *seed, e2e, traced)
		if err != nil {
			// A verification mismatch still has numbers worth reading;
			// any other error has none.
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			failed = errors.Join(failed, err)
			if res == nil {
				continue
			}
		}
		printResult(w.name, res)
		set.Workloads[w.name] = res
	}
	if *out != "" && failed == nil {
		data, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if failed != nil {
		return 1
	}
	// The driver reads the last line of a one-workload run as that
	// workload's result object.
	var line []byte
	if len(run) == 1 {
		line, err = json.Marshal(set.Workloads[run[0].name])
	} else {
		line, err = json.Marshal(set)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printResult lists every metric by name with its unit, in declaration
// order.
func printResult(name string, res *result) {
	fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := res.Metrics[d.name]; ok {
				fmt.Printf("  %-28s %14.4f %s\n", d.name, v.Value, v.Unit)
			}
		}
	}
}
