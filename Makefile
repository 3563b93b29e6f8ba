# Tier-1 verification gate. `make check` is what CI and pre-merge runs:
# formatting, vet, build, the full test suite (shuffled, so test-order
# coupling can't hide), a race pass over every package, and the simlint
# determinism/concurrency rules (cmd/simlint) over ./... .
# scripts/ci.sh runs the same sequence standalone.

GO ?= go

.PHONY: check fmt vet build test race lint loc bench

check: fmt vet build test race lint

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

# simlint: the nine determinism/concurrency rules of internal/analysis
# (DESIGN.md §7 has the table) over the whole module, in one load. Any
# diagnostic fails the target — including a //lint:ignore directive that
# is malformed or no longer suppresses anything. There is no debt file:
# a finding is fixed or carries an in-source directive with its reason.
lint:
	$(GO) run ./cmd/simlint -time-budget 10s ./...

# Non-test Go lines per package and in total (benchmark/ and analyzer
# fixtures excluded): the size figure ROADMAP quotes.
loc:
	@sh scripts/loc.sh

# Query hot-path microbenchmarks (the 100k-vertex engine build takes a
# couple of minutes the first time). TopKWarm is TopK with the query
# plans cached (tally cache off and warm). TopKSocial is the wide-support
# regime (preferential attachment) that the copying-model benchmarks
# never reach — n=20000 with one worker and the caches off, n=100000 as
# simserver builds it for the end-to-end social workload; CandWalks is
# its walk kernel alone, one stream at a time against lane-interleaved,
# and WalkDistLookup one probe of each directory kind, hit and miss.
# RouterTopK/RouterTopKBatch live in internal/router: routed queries over
# a real 3-shard loopback topology (binary wire). WireCodec measures the
# binary codec round-trip alone. BuildIndex (Algorithm 4 over a whole
# n=20000 graph) and LoadEdgeList (internal/graph: the text parser on the
# same graphs) are the set-up path, web and social.
BENCH_RE := 'TopK$$|BuildIndex|LoadEdgeList|TopKWarm|TopKSocial|SinglePairOneSided|SampleWalkDist|PushWalkDist|GammaPreprocessPerVertex|PlanMiss|ComputeL1|WalkStep|CandWalks|WalkDistLookup|ColdStartLoad|TopKDuringRefresh|TopKZipfThroughput|RouterTopK$$|RouterTopKBatch$$|WireCodec'
BENCH_PKGS := ./internal/core ./internal/graph ./internal/router ./internal/wire

bench:
	$(GO) test -bench $(BENCH_RE) -run - $(BENCH_PKGS)
