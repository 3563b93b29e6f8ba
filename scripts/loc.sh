#!/bin/sh
# loc.sh — non-test Go lines per package directory and in total: the
# figure ROADMAP's deletion passes are measured in. Left out: _test.go
# files, benchmark/ (a fixed harness, not this tree's to shrink) and the
# analyzers' testdata fixtures. `make loc` runs this; ci.sh prints it at
# the end of every gate, so each PR's log carries the number.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" { d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1; t += $1 }
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'
