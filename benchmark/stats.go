package main

import (
	"math"
	"slices"
)

// tailBeyond is how many samples must lie beyond a reported percentile
// for it to mean anything: with fewer, the number is one or two
// outliers, not a property of the system.
const tailBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// tailPercentile reports the q-quantile when at least tailBeyond
// samples lie beyond it, and otherwise the highest quantile that does
// have tailBeyond samples beyond it. at is the quantile actually
// reported, so the caller can print "p99" honestly; with tailBeyond
// samples or fewer there is no tail to report and at is 0.
func tailPercentile(sorted []float64, q float64) (value, at float64) {
	n := len(sorted)
	if n <= tailBeyond {
		return 0, 0
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if limit := n - 1 - tailBeyond; rank > limit {
		rank = limit
		q = float64(rank+1) / float64(n)
	}
	return sorted[rank], q
}

// tailChunk is how many consecutive requests one tail estimate covers:
// the fewest with tailBeyond samples beyond p99.
const tailChunk = 1000

// chunkedTail estimates the q-quantile of each client's latencies over
// consecutive chunks of tailChunk requests and returns the median of
// the estimates, with the lowest quantile any chunk could support. A
// few bad seconds inflate the tail of a whole window but only of the
// chunks they touch, so the median over chunks repeats much better on a
// shared box. A client with no full chunk is one short chunk, on which
// tailPercentile steps down to what its samples support.
func chunkedTail(perClient [][]float64, q float64) (value, at float64) {
	var estimates []float64
	at = q
	for _, lat := range perClient {
		for len(lat) > 0 {
			chunk := lat
			if len(lat) >= 2*tailChunk {
				chunk = lat[:tailChunk]
			}
			lat = lat[len(chunk):]
			sorted := slices.Clone(chunk)
			slices.Sort(sorted)
			v, a := tailPercentile(sorted, q)
			if a == 0 {
				continue
			}
			estimates = append(estimates, v)
			at = min(at, a)
		}
	}
	if len(estimates) == 0 {
		return 0, 0
	}
	return median(estimates), at
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, 0.5)
}

// ratio is a/b with 0/0 = 0, for hit ratios and per-request averages
// over windows in which the denominator's layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
