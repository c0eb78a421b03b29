package tile

import (
	"testing"

	"github.com/gwu-systems/gstore/internal/gen"
)

// sinkEdges keeps the benchmark's decoded edges alive.
var sinkEdges uint32

// BenchmarkDecodeBlock times the engine's decode loop — DecodeBlock until
// the tile is consumed — over every tile of a kron-16 graph (edge factor
// 16, tile bits 10, the shape the repo benchmark's probes use), one codec
// per sub-benchmark, and reports ns per stored edge.
func BenchmarkDecodeBlock(b *testing.B) {
	el, err := gen.Generate(gen.Graph500Config(16, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, codec := range []string{"snb", "raw", "v3"} {
		b.Run(codec, func(b *testing.B) {
			g, err := Convert(el, b.TempDir(), "g", ConvertOptions{
				TileBits: 10, GroupQ: 8, Symmetry: true, Codec: codec, Degrees: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			type resident struct {
				rowBase, colBase uint32
				data             []byte
			}
			var tiles []resident
			for i := 0; i < g.Layout.NumTiles(); i++ {
				data, err := g.ReadTile(i, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(data) == 0 {
					continue
				}
				c := g.Layout.CoordAt(i)
				rb, _ := g.Layout.VertexRange(c.Row)
				cb, _ := g.Layout.VertexRange(c.Col)
				tiles = append(tiles, resident{rb, cb, append([]byte(nil), data...)})
			}
			c := g.Meta.TupleCodec()
			var src, dst [V3BlockTuples]uint32
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				edges := int64(0)
				for _, t := range tiles {
					for rest := t.data; len(rest) > 0; {
						n, next, err := DecodeBlock(rest, c, t.rowBase, t.colBase, &src, &dst)
						if err != nil {
							b.Fatal(err)
						}
						sinkEdges += src[n-1] ^ dst[0]
						edges += int64(n)
						rest = next
					}
				}
				if edges != g.Meta.NumStored {
					b.Fatalf("decoded %d edges, graph stores %d", edges, g.Meta.NumStored)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.Meta.NumStored), "ns/edge")
		})
	}
}
