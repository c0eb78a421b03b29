package algo

import (
	"testing"

	"github.com/gwu-systems/gstore/internal/tile"
)

// BenchmarkBFSKernel times the traversal kernels alone: a resident kron-16
// graph in the serve-point shape (edge factor 16, tile bits 10, snb),
// decoded once outside the timer, then one worker feeding each kernel the
// tiles it asks for in engine-sized batches. ns/tuple is time per tuple the
// kernel was handed; tuples/query is how many that was, which is what tile
// retirement lowers.
func BenchmarkBFSKernel(b *testing.B) {
	el := kronEL(b, 16, 16, 1)
	mg := load(b, el, tile.ConvertOptions{TileBits: 10, GroupQ: 8, Symmetry: true, Codec: "snb"})
	g, tiles := mg.g, mg.decoded(b)
	ctx := *mg.ctx
	ctx.Workers = 1
	for _, k := range []struct {
		name string
		make func(root uint32) Algorithm
	}{
		{"bfs", func(root uint32) Algorithm { return NewBFS(root) }},
		{"msbfs", func(root uint32) Algorithm { return NewMSBFS([]uint32{root}) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			var tuples int64
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				// An edge's source is never isolated, and on a kron graph
				// nearly always in the giant component.
				a := k.make(el.Edges[(n*7919)%len(el.Edges)].Src)
				if err := a.Init(&ctx); err != nil {
					b.Fatal(err)
				}
				for iter, done := 0, false; !done; iter++ {
					a.BeforeIteration(iter)
					for i, t := range tiles {
						c := g.Layout.CoordAt(i)
						if !a.NeedTileThisIter(c.Row, c.Col) {
							continue
						}
						for lo := 0; lo < len(t.src); lo += tile.V3BlockTuples {
							hi := min(lo+tile.V3BlockTuples, len(t.src))
							a.ProcessEdges(0, c.Row, c.Col, t.src[lo:hi], t.dst[lo:hi])
						}
						tuples += int64(len(t.src))
					}
					done = a.AfterIteration(iter)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples), "ns/tuple")
			b.ReportMetric(float64(tuples)/float64(b.N), "tuples/query")
		})
	}
}
