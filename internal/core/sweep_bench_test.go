package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/tile"
)

// BenchmarkSweepPageRank runs 5-iteration PageRank through Engine.Run the
// way the repo benchmark's scan-pr-v3 workload configures it — kron-18,
// edge factor 16, tile bits 12, file backend, memory a quarter of the tile
// data, segments an eighth of the memory, min(nproc, 4) threads — once per
// codec, and reports input edges × iterations per second and the share of
// the workers' time spent on edges, ΣWorkerBusy ÷ (Threads × Elapsed).
func BenchmarkSweepPageRank(b *testing.B) {
	const iterations = 5
	el, err := gen.Generate(gen.Graph500Config(18, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, codec := range []string{"snb", "v3"} {
		b.Run(codec, func(b *testing.B) {
			g, err := tile.Convert(el, b.TempDir(), "g", tile.ConvertOptions{
				TileBits: 12, GroupQ: 8, Symmetry: true, Codec: codec, Degrees: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			opts := DefaultOptions()
			opts.Backend = "file"
			opts.Threads = min(runtime.NumCPU(), 4)
			opts.MemoryBytes = g.DataBytes() / 4
			opts.SegmentSize = opts.MemoryBytes / 8
			e, err := NewEngine(g, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
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
