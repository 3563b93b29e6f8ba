#!/bin/sh
# ci.sh — the full pre-merge gate, exactly as CI runs it. Exits nonzero
# on the first failure, including any simlint diagnostic.
#
# Sequence: gofmt cleanliness, go vet (host and windows), build, full shuffled test suite,
# race pass over every package, simlint over ./... (findings and stale or
# malformed suppressions alike, in one module load), a one-iteration
# benchmark smoke pass, short fuzzes of the scoring index, the edge-list
# parser, the walk kernels, the query-side push, the candidate walks, the
# linear row, the index loader and the wire decoder, a run of each
# examples/ program, and the multi-shard smoke; the tree's size
# (scripts/loc.sh) closes the log.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

# The !unix files (LoadIndexMmap's read-image body) are never built on
# the CI host; vetting for windows compiles them and their tests.
# benchmark/ is linux-only by design (Setpgid, Pdeathsig, Getrusage).
echo "==> GOOS=windows go vet (all but benchmark/)"
GOOS=windows go vet $(go list ./... | grep -v '/benchmark$')

echo "==> go build ./..."
go build ./...

echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

echo "==> go test -race ./..."
go test -race ./...

# The wire codec and the router's pooled transport are the two places
# where a data race would silently corrupt answers (shared decode
# buffers, connection reuse); run them under the race detector
# explicitly and unshuffled so a failure here names the culprit.
echo "==> go test -race ./internal/router/... ./internal/wire/..."
go test -race -count=1 ./internal/router/... ./internal/wire/...

# One load runs every rule and judges every //lint:ignore directive: a
# finding fails the gate, and so does a suppression that is malformed,
# stale (its rule ran and it suppresses nothing — rot that would silently
# excuse the next real violation on that line) or names no rule. The
# wall-clock budget is for the linter itself: both rules read syntax
# only, so a run takes well under a second and 10s leaves room for any
# machine.
echo "==> simlint ./..."
go run ./cmd/simlint -time-budget 10s ./...

# One iteration of every benchmark: catches bit-rot in bench-only code
# paths without paying for real measurements.
echo "==> bench smoke (1 iteration each)"
go test -run - -bench . -benchtime 1x ./...

# Ten seconds of fuzzing over the scoring index (slotIndex): several
# steps of arbitrary, overlapping id sets below arbitrary n, every id
# probed against a binary search, and the union map all zero after each
# clear; the seed corpus alone already runs in the test pass above.
echo "==> fuzz smoke (scoring index: FuzzWalkDistDirectory, 10s)"
go test -run - -fuzz '^FuzzWalkDistDirectory$' -fuzztime 10s ./internal/core

# Five seconds of the edge-list parser against the Scanner/Fields/ParseUint
# parser it replaced: same verdict, same CSR.
echo "==> fuzz smoke (FuzzReadEdgeList, 5s)"
go test -run - -fuzz FuzzReadEdgeList -fuzztime 5s ./internal/graph

# Five seconds of the two batched walk kernels against the one-walk
# reference on small random graphs: StepWalks against a loop of single
# steps, WalkLanes at random widths and walk-range cuts against each
# lane's walks alone — same positions, same final generator state.
echo "==> fuzz smoke (FuzzWalkKernels, 5s)"
go test -run - -fuzz '^FuzzWalkKernels$' -fuzztime 5s ./internal/graph

# Five seconds of the query-side push on small random graphs, from random
# vertices under random RAlpha: the dense recurrence bit for bit, no cell
# above the unthresholded push, no step relaxing more than RAlpha times
# the mass it starts from.
echo "==> fuzz smoke (FuzzQueryPush, 5s)"
go test -run - -fuzz '^FuzzQueryPush$' -fuzztime 5s ./internal/core

# Five seconds of the candidate walks on small random graphs whose walks
# die: walks cut at a random step and a random walk count write what a
# full run writes up to that step and nothing past it, and the full run is
# the walks drawn one at a time on their own generators.
echo "==> fuzz smoke (FuzzCandWalks, 5s)"
go test -run - -fuzz '^FuzzCandWalks$' -fuzztime 5s ./internal/core

# Five seconds of the linear scorer on small random graphs, from random
# vertices at random θ: no cell above the exact series nor more than the
# query's Δ below it, the dense recurrence under the same prune rule to
# 1e-12, and the same plan bit for bit on a second run.
echo "==> fuzz smoke (FuzzLinearRow, 5s)"
go test -run - -fuzz '^FuzzLinearRow$' -fuzztime 5s ./internal/core

# Five seconds of corrupt index files through every loader policy: the
# v3 index is the input this tree takes from outside besides edge lists.
echo "==> fuzz smoke (FuzzLoadIndex, 5s)"
go test -run - -fuzz '^FuzzLoadIndex$' -fuzztime 5s ./internal/core

# Five seconds of arbitrary bytes through the frame parser and every
# typed wire decoder: frames are what a router takes from its shards.
# No panic, and no decode larger than the input that describes it.
echo "==> fuzz smoke (FuzzWireDecode, 5s)"
go test -run - -fuzz '^FuzzWireDecode$' -fuzztime 5s ./internal/wire

# Each examples/ program once, end to end (about 1.5 s warm): the build
# above only compiles them, and examples/dynamic is the one program that
# drives a DynamicIndex refresh. A nonzero exit fails the gate.
echo "==> examples smoke (each examples/ program once)"
for ex in examples/*/; do
	if ! out="$(go run "./$ex" 2>&1)"; then
		echo "$ex failed:"
		echo "$out"
		exit 1
	fi
done

# Multi-shard smoke: two simserver shards behind simrouter on loopback
# must answer a query corpus byte-identically — results, ordering, and
# scan statistics — to a stand-alone simserver over the same graph and
# seed: /topk and /similar (theta 0.02, the threshold exchange) per
# query, and the corpus as one /topk/batch, larger than the router's 16
# queries in flight. The router sends each query to one shard, taken in
# rotation, and asks it for the whole vertex range. Run twice: once over
# the binary wire protocol (shards advertise TCP bin listeners, the
# router's default) and once with the router forced to JSON, so both
# encodings of the routed path are proven identical end-to-end across
# real processes. topkdiff reads the router's /statusz afterwards: every
# shard must have been some query's primary (requests_total > 0), so a
# router that pins one server fails here, and it prints the transport
# the shards were reached over (wire_format bin only with request frames
# encoded and TCP connections accepted); each run must name the one it
# claims to test — the default router hedges, and until hedged attempts
# could travel over TCP this smoke was diffing negotiated HTTP under the
# "binary" label.
echo "==> multi-shard smoke (2 shards + router vs single node)"
smoketmp="$(mktemp -d)"
smoke_cleanup() {
	kill $(cat "$smoketmp"/*.pid 2>/dev/null) 2>/dev/null || true
	rm -rf "$smoketmp"
}
trap smoke_cleanup EXIT
go build -o "$smoketmp/gengraph" ./cmd/gengraph
go build -o "$smoketmp/simserver" ./cmd/simserver
go build -o "$smoketmp/simrouter" ./cmd/simrouter
go build -o "$smoketmp/topkdiff" ./cmd/topkdiff
"$smoketmp/gengraph" -kind copying -n 2000 -k 5 -p 0.3 -seed 21 -o "$smoketmp/graph.txt"
"$smoketmp/simserver" -graph "$smoketmp/graph.txt" -addr 127.0.0.1:19481 >"$smoketmp/single.log" 2>&1 &
echo $! > "$smoketmp/single.pid"
"$smoketmp/simserver" -graph "$smoketmp/graph.txt" -shard 0/2 -addr 127.0.0.1:19482 \
	-bin-addr 127.0.0.1:19485 >"$smoketmp/shard0.log" 2>&1 &
echo $! > "$smoketmp/shard0.pid"
"$smoketmp/simserver" -graph "$smoketmp/graph.txt" -shard 1/2 -addr 127.0.0.1:19483 \
	-bin-addr 127.0.0.1:19486 >"$smoketmp/shard1.log" 2>&1 &
echo $! > "$smoketmp/shard1.pid"
"$smoketmp/simrouter" -shards http://127.0.0.1:19482,http://127.0.0.1:19483 \
	-addr 127.0.0.1:19484 >"$smoketmp/router.log" 2>&1 &
echo $! > "$smoketmp/router.pid"
"$smoketmp/simrouter" -shards http://127.0.0.1:19482,http://127.0.0.1:19483 \
	-wire json -addr 127.0.0.1:19487 >"$smoketmp/router-json.log" 2>&1 &
echo $! > "$smoketmp/router-json.pid"
# smoke_diff <router> <label> <wire_format> <router log>
smoke_diff() {
	if ! out="$("$smoketmp/topkdiff" -a "$1" -b http://127.0.0.1:19481 -count 50 -k 20 -wait 60s)"; then
		echo "multi-shard smoke ($2) failed; router log:"
		cat "$4"
		exit 1
	fi
	echo "$out"
	case "$out" in
	*"wire_format=$3)"*) ;;
	*)
		echo "multi-shard smoke ($2): the shards were not reached over wire_format=$3"
		exit 1
		;;
	esac
}
smoke_diff http://127.0.0.1:19484 "binary wire" bin "$smoketmp/router.log"
smoke_diff http://127.0.0.1:19487 "forced JSON" json "$smoketmp/router-json.log"
smoke_cleanup
trap - EXIT

echo "==> non-test Go lines (make loc)"
sh scripts/loc.sh

echo "==> gate clean"
