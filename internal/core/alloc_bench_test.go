package core

import (
	"context"
	"os"
	"sync"
	"testing"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/tile"
)

// benchGraph builds one small Kronecker graph shared by the allocation
// benchmarks (sync.Once so repeated -bench invocations reuse it within a
// process). It lives in its own temp dir, not b.TempDir, because the
// latter is removed when the first benchmark ends.
var benchGraphOnce struct {
	sync.Once
	g   *tile.Graph
	err error
}

func allocBenchGraph(b *testing.B) *tile.Graph {
	b.Helper()
	benchGraphOnce.Do(func() {
		el, err := gen.Generate(gen.Graph500Config(11, 8, 77))
		if err != nil {
			benchGraphOnce.err = err
			return
		}
		dir, err := os.MkdirTemp("", "gstore-allocbench")
		if err != nil {
			benchGraphOnce.err = err
			return
		}
		benchGraphOnce.g, benchGraphOnce.err = tile.Convert(el, dir, "ab", tile.ConvertOptions{
			TileBits: 6, GroupQ: 4, Symmetry: true, Degrees: true,
		})
	})
	if benchGraphOnce.err != nil {
		b.Fatal(benchGraphOnce.err)
	}
	return benchGraphOnce.g
}

// BenchmarkRunHotLoopAllocs measures per-Run allocations of the SCR hot
// loop on a reused engine: iteration planning (needed/inCache), segment
// plans, the completion buffer, and dispatch bookkeeping. Run with
// -benchmem; the per-iteration scratch reuse exists to keep allocs/op
// flat as iteration counts grow.
func BenchmarkRunHotLoopAllocs(b *testing.B) {
	g := allocBenchGraph(b)
	opts := DefaultOptions()
	opts.MemoryBytes = 1 << 20
	opts.SegmentSize = 64 << 10
	opts.Threads = 4
	e, err := NewEngine(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(ctx, algo.NewPageRank(5)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunHotLoopAllocsMerged measures the base∪delta read path: a
// v3 graph with a delta layer whose ops are re-toggled every Run, so each
// Run reads freshly mutated tiles. Reads mask and add edges as they
// decode and allocate nothing per mutated tile, so allocs/op here is
// Apply's plus a plain Run's (TestDeltaReadAllocsMatchPristine pins the
// difference).
func BenchmarkRunHotLoopAllocsMerged(b *testing.B) {
	el, err := gen.Generate(gen.Graph500Config(11, 8, 77))
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	g, err := tile.Convert(el, dir, "mb", tile.ConvertOptions{
		TileBits: 6, GroupQ: 4, Symmetry: true, Codec: "v3", Degrees: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	ds, err := delta.Open(g, g.BasePath(), delta.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()

	// Edges spread across the vertex range so many tiles carry deltas.
	nv := g.Meta.NumVertices
	ops := make([]delta.Op, 0, 128)
	for i := uint32(0); i < 128; i++ {
		ops = append(ops, delta.Op{Src: (i * 131) % nv, Dst: (i*197 + 7) % nv})
	}

	opts := DefaultOptions()
	opts.MemoryBytes = 1 << 20
	opts.SegmentSize = 64 << 10
	opts.Threads = 4
	e, err := NewEngine(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	e.SetDeltaStore(ds)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Toggle between inserted and deleted so every Run sees a new
		// view with dirty tiles.
		for j := range ops {
			ops[j].Del = i%2 == 0
		}
		if _, err := ds.Apply(ops); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(ctx, algo.NewPageRank(2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunHotLoopAllocsBFS is the selective-fetch variant: many
// iterations with small per-iteration need sets, the worst case for
// per-iteration planning allocations.
func BenchmarkRunHotLoopAllocsBFS(b *testing.B) {
	g := allocBenchGraph(b)
	opts := DefaultOptions()
	opts.MemoryBytes = 1 << 20
	opts.SegmentSize = 64 << 10
	opts.Threads = 4
	e, err := NewEngine(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(ctx, algo.NewBFS(0)); err != nil {
			b.Fatal(err)
		}
	}
}
