package graph

import (
	"bytes"
	"testing"
)

func benchGraph(b *testing.B) *Graph {
	b.Helper()
	return CopyingModel(20000, 8, 0.3, 1)
}

func BenchmarkBuilderBuild(b *testing.B) {
	src := benchGraph(b)
	var edges []Edge
	src.Edges(func(u, v uint32) bool { edges = append(edges, Edge{u, v}); return true })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromEdges(src.N(), edges)
	}
}

func BenchmarkUndirectedBall(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.UndirectedBall(uint32(i%g.N()), 3)
	}
}

func BenchmarkCopyingModelGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		CopyingModel(5000, 8, 0.3, uint64(i))
	}
}

func BenchmarkPreferentialAttachmentGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		PreferentialAttachment(5000, 8, 0.3, uint64(i))
	}
}

func BenchmarkRMATGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RMAT(13, 40000, 0.57, 0.19, 0.19, uint64(i))
	}
}

func BenchmarkSampleAverageDistance(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleAverageDistance(g, 10, uint64(i))
	}
}

// BenchmarkLoadEdgeList parses the text edge list of an n = 20 000 graph of
// each family the end-to-end workloads serve, from memory, into its CSR.
func BenchmarkLoadEdgeList(b *testing.B) {
	for _, fx := range []struct {
		name string
		g    *Graph
	}{
		{"web", CopyingModel(20000, 8, 0.3, 1)},
		{"social", PreferentialAttachment(20000, 10, 0.4, 1)},
	} {
		b.Run(fx.name, func(b *testing.B) {
			var text bytes.Buffer
			if err := WriteEdgeList(&text, fx.g); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(text.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReadEdgeList(bytes.NewReader(text.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
