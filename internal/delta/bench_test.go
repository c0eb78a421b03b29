package delta

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

// benchInput converts kron-16 (edge factor 16, seed 1) at tile bits 10 in
// codec, the repo benchmark's serve-point and ingest-query graph, and
// draws nBatches batches of 2048 ops shaped like that benchmark's op
// stream: 90 % inserts between vertices of the largest component, 10 %
// deletes of base edges.
func benchInput(b *testing.B, codec string, nBatches int) (*tile.Graph, string, [][]Op) {
	b.Helper()
	el, err := gen.Generate(gen.Graph500Config(16, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	el.Canonicalize()
	dir := b.TempDir()
	g, err := tile.Convert(el, dir, "g", tile.ConvertOptions{
		TileBits: 10, GroupQ: 8, Symmetry: true, Codec: codec, Degrees: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { g.Close() })

	labels := graph.RefWCC(el)
	size := make(map[graph.VertexID]int)
	for _, l := range labels {
		size[l]++
	}
	var best graph.VertexID
	for l, n := range size {
		if n > size[best] || (n == size[best] && l < best) {
			best = l
		}
	}
	var members []uint32
	for v, l := range labels {
		if l == best {
			members = append(members, uint32(v))
		}
	}
	rng := gen.NewRNG(2)
	n := func(k int) int { return int(rng.Next() % uint64(k)) }
	batches := make([][]Op, nBatches)
	for i := range batches {
		ops := make([]Op, 2048)
		for j := range ops {
			if n(10) == 0 {
				e := el.Edges[n(len(el.Edges))]
				ops[j] = Op{Del: true, Src: e.Src, Dst: e.Dst}
				continue
			}
			src, dst := members[n(len(members))], members[n(len(members))]
			for dst == src {
				dst = members[n(len(members))]
			}
			ops[j] = Op{Src: src, Dst: dst}
		}
		batches[i] = ops
	}
	return g, tile.BasePath(dir, "g"), batches
}

// resetStore removes the write-path files a closed store left next to
// base, so the next Open starts from an empty delta.
func resetStore(b *testing.B, base string) {
	b.Helper()
	if err := os.RemoveAll(walDir(base)); err != nil {
		b.Fatal(err)
	}
	snaps, err := filepath.Glob(base + ".delta.*")
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range snaps {
		if err := os.Remove(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApply times Store.Apply of 2048-op batches while the delta
// grows from empty to 32 batches, the repo benchmark's closing write
// phase on kron-16. ms/batch is the median batch; last-ms/batch the
// median of each iteration's final batch, which shows whether a batch
// costs more as the delta grows; base-tuples/batch the mean number of
// base tuples a batch decodes to count the keys it names, an exact count.
func BenchmarkApply(b *testing.B) {
	for _, codec := range []string{"snb", "v3"} {
		b.Run(codec, func(b *testing.B) {
			g, base, batches := benchInput(b, codec, 32)
			var lat, last []float64
			var decoded int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				resetStore(b, base)
				s, err := Open(g, base, Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, ops := range batches {
					begin := time.Now()
					if _, err := s.Apply(ops); err != nil {
						b.Fatal(err)
					}
					lat = append(lat, float64(time.Since(begin).Microseconds())/1e3)
				}
				last = append(last, lat[len(lat)-1])
				decoded += s.scratch.decoded
				b.StopTimer()
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(median(lat), "ms/batch")
			b.ReportMetric(median(last), "last-ms/batch")
			b.ReportMetric(float64(decoded)/float64(len(lat)), "base-tuples/batch")
		})
	}
}

// BenchmarkMerge times Merge of every delta tile of a view grown by 64
// batches of 2048 ops, the repo benchmark's ingest-query write phase on
// kron-16: what rewriting every mutated tile as a fresh conversion would
// store costs across the whole graph. Reads never merge. Base tiles are
// read before the timer starts.
func BenchmarkMerge(b *testing.B) {
	for _, codec := range []string{"snb", "v3"} {
		b.Run(codec, func(b *testing.B) {
			g, base, batches := benchInput(b, codec, 64)
			s, err := Open(g, base, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for _, ops := range batches {
				if _, err := s.Apply(ops); err != nil {
					b.Fatal(err)
				}
			}
			v := s.View()
			type job struct {
				td     *TileDelta
				data   []byte
				rb, cb uint32
			}
			var jobs []job
			var edges int64
			for _, di := range v.TileIndexes() {
				data, err := g.ReadTile(di, nil)
				if err != nil {
					b.Fatal(err)
				}
				c := g.Layout.CoordAt(di)
				rb, _ := g.Layout.VertexRange(c.Row)
				cb, _ := g.Layout.VertexRange(c.Col)
				jobs = append(jobs, job{v.Tile(di), data, rb, cb})
				edges += g.TupleCount(di)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, j := range jobs {
					if _, err := j.td.Merge(j.data, g.Meta.TupleCodec(), g.Layout.TileBits, j.rb, j.cb); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/view")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/base-edge")
		})
	}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}
