package algo

import (
	"testing"

	"github.com/gwu-systems/gstore/internal/tile"
)

// BenchmarkBFSKernel times the traversal kernels alone: a resident kron-16
// graph in the serve-point shape (edge factor 16, tile bits 10, snb),
// decoded once outside the timer, then one worker feeding each kernel the
// tiles it asks for in engine-sized batches. A query is one run: one root
// for bfs, eight for msbfs (the server hands msbfs only windows of two or
// more roots; one root runs bfs). ns/tuple is time per tuple the kernel was
// handed; tuples/query is how many that was, which is what tile retirement
// lowers.
func BenchmarkBFSKernel(b *testing.B) {
	el := kronEL(b, 16, 16, 1)
	mg := load(b, el, tile.ConvertOptions{TileBits: 10, GroupQ: 8, Symmetry: true, Codec: "snb"})
	g, tiles := mg.g, mg.decoded(b)
	ctx := *mg.ctx
	ctx.Workers = 1
	// root is query n's i-th root. An edge's source is never isolated, and
	// on a kron graph nearly always in the giant component.
	root := func(n, i int) uint32 { return el.Edges[(n*7919+i*104729)%len(el.Edges)].Src }
	for _, k := range []struct {
		name string
		make func(n int) Algorithm
	}{
		{"bfs", func(n int) Algorithm { return NewBFS(root(n, 0)) }},
		{"msbfs", func(n int) Algorithm {
			roots := make([]uint32, 8)
			for i := range roots {
				roots[i] = root(n, i)
			}
			return NewMSBFS(roots)
		}},
	} {
		b.Run(k.name, func(b *testing.B) {
			var tuples int64
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				a := k.make(n)
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
