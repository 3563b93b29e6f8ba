# `make check` runs scripts/ci.sh, the pre-merge gate CI runs, so the gate
# has one definition (ci.sh's header lists its steps). The other targets
# run single steps of it.

GO ?= go

.PHONY: check fmt vet build test race lint loc bench

check:
	sh scripts/ci.sh

# gofmt cleanliness, including analyzer fixtures under testdata/.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# simlint: the two concurrency/confinement rules of internal/analysis
# (DESIGN.md §7 has the table) over the whole module. Any diagnostic
# fails the target — including a //lint:ignore directive that is
# malformed, no longer suppresses anything, or names no rule. There is
# no debt file: a finding is fixed or carries an in-source directive
# with its reason.
lint:
	$(GO) run ./cmd/simlint -time-budget 10s ./...

# Non-test Go lines per package and in total (benchmark/ and analyzer
# fixtures excluded): the size figure ROADMAP quotes.
loc:
	@sh scripts/loc.sh

# Query hot-path microbenchmarks (the 100k-vertex engine build takes a
# couple of minutes the first time). TopKWarm is TopK's graph with the
# query plans cached (Monte-Carlo) or the rows cached (linear, as the
# servers run); TopKZipfThroughput is the linear scorer under a Zipf
# stream, row cache off and on. TopKSocial is the wide-support
# regime (preferential attachment) that the copying-model benchmarks
# never reach — n=20000 with one worker and the caches off, n=100000 as
# simserver builds it for the end-to-end social workload; CandWalks is
# its walk kernel alone, one stream at a time against lane-interleaved,
# and WalkDistLookup one probe of the scoring index, hit and miss.
# RouterTopK/RouterTopKBatch live in internal/router: routed queries over
# a real 3-shard loopback topology (binary wire). WireCodec measures the
# binary codec round-trip alone. BuildIndex (Algorithm 4 over a whole
# n=20000 graph) and LoadEdgeList (internal/graph: the text parser on the
# same graphs) are the set-up path, web and social.
BENCH_RE := 'TopK$$|BuildIndex|LoadEdgeList|TopKWarm|TopKSocial|SinglePairOneSided|QueryDist|PlanMiss|ComputeL1|WalkStep|CandWalks|WalkDistLookup|ColdStartLoad|TopKDuringRefresh|TopKZipfThroughput|RouterTopK$$|RouterTopKBatch$$|WireCodec'
BENCH_PKGS := ./internal/core ./internal/graph ./internal/router ./internal/wire

bench:
	$(GO) test -bench $(BENCH_RE) -run - $(BENCH_PKGS)
