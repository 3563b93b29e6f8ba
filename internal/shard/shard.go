// Package shard owns the topology layer of the distributed serving
// tier: the contiguous vertex-range partition function, shard manifests
// (what a shard must prove about itself before a router will merge its
// fragments). The merge of the fragments is the root package's
// MergeShardTopKScratch.
//
// The partition is contiguous: shard i of S owns vertices
// [i*n/S, (i+1)*n/S). Contiguous ranges keep each shard's candidate
// scoring cache-local in the CSR arrays and make the ownership test two
// comparisons. In process the engine has one worker pool
// (core's forEachIndexParallel), which hands out items — the
// preprocess's 256-vertex chunks, the queries of a batch — from a shared
// cursor rather than by range, and runs each query on one goroutine.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/wire"
)

// Range returns the vertex range [lo, hi) owned by shard i of total
// over n vertices. Every vertex belongs to exactly one shard; ranges
// are contiguous and cover [0, n) in shard order.
func Range(i, total, n int) (lo, hi int) {
	if total <= 1 {
		return 0, n
	}
	return i * n / total, (i + 1) * n / total
}

// Manifest is what a shard publishes on /shardinfo: its place in the
// topology and the fingerprints a router checks before trusting its
// fragments. Two snapshots with equal Graph/Params fingerprints (the
// params fingerprint folds in the seed) answer every query
// byte-identically, so fragments from manifest-compatible shards merge
// into exactly the single-node answer.
type Manifest struct {
	// Shard / NumShards locate this server in the topology. A
	// stand-alone simserver is shard 0 of 1.
	Shard     int `json:"shard"`
	NumShards int `json:"num_shards"`
	// Lo / Hi is the owned vertex range [Lo, Hi), always equal to
	// Range(Shard, NumShards, Vertices).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Vertices is the graph's vertex count (every shard holds the full
	// graph; the partition splits scoring work, not data).
	Vertices int `json:"vertices"`
	// GraphFP / ParamsFP are the structure and parameter digests
	// (graph.Fingerprint, Params.Fingerprint).
	GraphFP  uint64 `json:"graph_fp"`
	ParamsFP uint64 `json:"params_fp"`
	// Seed is the snapshot's deterministic seed (also folded into
	// ParamsFP; exposed for humans and logs).
	Seed uint64 `json:"seed"`
	// Theta is the serving pruning threshold — the fixed floor shard
	// fragments are scored at, which the router must feed back into the
	// merge replay.
	Theta float64 `json:"theta"`
	// Version is the wire protocol version the shard speaks
	// (wire.Version): what its /shard/* answers look like on every
	// transport, JSON included. A router refuses a shard whose version is
	// not its own.
	Version int `json:"version"`
	// BinAddr, when non-empty, is the host:port of the shard's binary
	// wire listener (internal/wire over persistent TCP) — an optional
	// transport hint, deliberately excluded from topology validation: a
	// router falls back to HTTP when it is absent or unreachable. An
	// unspecified host (":9090", "0.0.0.0:9090") means "same host as
	// the HTTP endpoint".
	BinAddr string `json:"bin_addr,omitempty"`
}

// Build returns the manifest for shard i of total over an index with
// the given identity.
func Build(i, total, vertices int, graphFP, paramsFP, seed uint64, theta float64) Manifest {
	lo, hi := Range(i, total, vertices)
	return Manifest{
		Shard:     i,
		NumShards: total,
		Lo:        lo,
		Hi:        hi,
		Vertices:  vertices,
		GraphFP:   graphFP,
		ParamsFP:  paramsFP,
		Seed:      seed,
		Theta:     theta,
		Version:   wire.Version,
	}
}

// ValidateTopology checks that a set of manifests forms one coherent
// topology: identical identity (graph, params, seed, theta, vertex
// count, shard count), every shard index 0..NumShards-1 present exactly
// once, and every owned range equal to the canonical partition. Returns
// the manifests sorted by shard index.
func ValidateTopology(ms []Manifest) ([]Manifest, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("shard: no manifests")
	}
	ref := ms[0]
	for _, m := range ms[1:] {
		switch {
		case m.GraphFP != ref.GraphFP:
			return nil, fmt.Errorf("shard: graph fingerprint mismatch: shard %d has %016x, shard %d has %016x",
				ref.Shard, ref.GraphFP, m.Shard, m.GraphFP)
		case m.ParamsFP != ref.ParamsFP:
			return nil, fmt.Errorf("shard: params fingerprint mismatch: shard %d has %016x, shard %d has %016x",
				ref.Shard, ref.ParamsFP, m.Shard, m.ParamsFP)
		case m.Seed != ref.Seed:
			return nil, fmt.Errorf("shard: seed mismatch: %d vs %d", ref.Seed, m.Seed)
		case m.Theta != ref.Theta:
			return nil, fmt.Errorf("shard: theta mismatch: %g vs %g", ref.Theta, m.Theta)
		case m.Vertices != ref.Vertices:
			return nil, fmt.Errorf("shard: vertex count mismatch: %d vs %d", ref.Vertices, m.Vertices)
		case m.NumShards != ref.NumShards:
			return nil, fmt.Errorf("shard: topology size mismatch: %d vs %d", ref.NumShards, m.NumShards)
		}
	}
	if len(ms) != ref.NumShards {
		return nil, fmt.Errorf("shard: topology of %d needs %d shards, have %d manifests",
			ref.NumShards, ref.NumShards, len(ms))
	}
	sorted := make([]Manifest, len(ms))
	copy(sorted, ms)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Shard < sorted[j].Shard })
	for i, m := range sorted {
		if m.Shard != i {
			return nil, fmt.Errorf("shard: shard %d missing or duplicated (found index %d at position %d)",
				i, m.Shard, i)
		}
		lo, hi := Range(i, m.NumShards, m.Vertices)
		if m.Lo != lo || m.Hi != hi {
			return nil, fmt.Errorf("shard: shard %d owns [%d, %d), canonical partition says [%d, %d)",
				i, m.Lo, m.Hi, lo, hi)
		}
	}
	return sorted, nil
}
