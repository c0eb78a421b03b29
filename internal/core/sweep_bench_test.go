package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

// sweepBenchEngine converts el in codec and opens an engine on it the way
// the repo benchmark's two scans do: tile bits 12, file backend, memory a
// quarter of the tile data, segments an eighth of the memory, min(nproc, 4)
// threads.
func sweepBenchEngine(b *testing.B, el *graph.EdgeList, codec string) (*Engine, Options) {
	g, err := tile.Convert(el, b.TempDir(), "g", tile.ConvertOptions{
		TileBits: 12, GroupQ: 8, Symmetry: true, Codec: codec, Degrees: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { g.Close() })
	opts := DefaultOptions()
	opts.Backend = "file"
	opts.Threads = min(runtime.NumCPU(), 4)
	opts.MemoryBytes = g.DataBytes() / 4
	opts.SegmentSize = opts.MemoryBytes / 8
	e, err := NewEngine(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	return e, opts
}

// BenchmarkSweepPageRank runs 5-iteration PageRank through Engine.Run the
// way the repo benchmark's scan-pr-v3 workload configures it (kron-18, edge
// factor 16, see sweepBenchEngine), once per codec, and reports input edges
// × iterations per second and the share of the workers' time spent on
// edges, ΣWorkerBusy ÷ (Threads × Elapsed).
func BenchmarkSweepPageRank(b *testing.B) {
	const iterations = 5
	el, err := gen.Generate(gen.Graph500Config(18, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, codec := range []string{"snb", "v3"} {
		b.Run(codec, func(b *testing.B) {
			e, opts := sweepBenchEngine(b, el, codec)
			var busy, elapsed time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := e.Run(context.Background(), algo.NewPageRank(iterations))
				if err != nil {
					b.Fatal(err)
				}
				elapsed += st.Elapsed
				for _, d := range st.WorkerBusy {
					busy += d
				}
			}
			b.ReportMetric(float64(len(el.Edges))*iterations*float64(b.N)/elapsed.Seconds(), "edges/s")
			b.ReportMetric(busy.Seconds()/(float64(opts.Threads)*elapsed.Seconds()), "worker_util")
		})
	}
}

// BenchmarkSweepBFS is the traverse-bfs-snb counterpart: one op is a BFS
// through Engine.Run from each of 100 seeded roots of the largest component
// of the same graph. Besides Graph500 TEPS (input edges × queries per
// second) and worker_util it reports what selective fetching and tile
// retirement decide: tiles processed and MB read per query.
func BenchmarkSweepBFS(b *testing.B) {
	el, err := gen.Generate(gen.Graph500Config(18, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	labels := graph.RefWCC(el)
	size := make(map[graph.VertexID]int)
	for _, l := range labels {
		size[l]++
	}
	var members []uint32
	for v, l := range labels {
		if 2*size[l] > len(labels) { // kron graphs have one giant component
			members = append(members, uint32(v))
		}
	}
	rng := rand.New(rand.NewSource(1))
	roots := make([]uint32, 100)
	for i := range roots {
		roots[i] = members[rng.Intn(len(members))]
	}
	for _, codec := range []string{"snb", "v3"} {
		b.Run(codec, func(b *testing.B) {
			e, opts := sweepBenchEngine(b, el, codec)
			var busy, elapsed time.Duration
			var tiles, bytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, root := range roots {
					st, err := e.Run(context.Background(), algo.NewBFS(root))
					if err != nil {
						b.Fatal(err)
					}
					elapsed += st.Elapsed
					tiles += st.TilesProcessed
					bytes += st.BytesRead
					for _, d := range st.WorkerBusy {
						busy += d
					}
				}
			}
			queries := float64(b.N * len(roots))
			b.ReportMetric(float64(len(el.Edges))*queries/elapsed.Seconds(), "edges/s")
			b.ReportMetric(float64(tiles)/queries, "tiles/query")
			b.ReportMetric(float64(bytes)/queries/1e6, "MB_read/query")
			b.ReportMetric(busy.Seconds()/(float64(opts.Threads)*elapsed.Seconds()), "worker_util")
		})
	}
}
