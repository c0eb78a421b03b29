package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

// chunkSizes spans the interesting regimes: chunking disabled (-1: one
// view per tile), the pathological one-tuple chunk (4 bytes is one SNB
// tuple, rounds up to one raw tuple, and cuts v3 at every decode block),
// a few odd small sizes (7 rounds down to 4), and the production default.
var chunkSizes = []int64{-1, 4, 7, 64, 1 << 10, defaultChunkBytes}

// TestChunkedEquivalence pins every kernel against the sequential
// in-memory references for every codec and chunk size: BFS-family, WCC
// and SCC results exact, ranks within 1e-9. Every kernel is dispatched
// in chunks, so at the small sizes batches of one tile race on four
// workers — which is what -race is pointed at here.
func TestChunkedEquivalence(t *testing.T) {
	const iters = 10
	el := kron(t, 10, 8, 21)
	csr := graph.NewCSR(el, false)
	del, err := gen.Generate(gen.TwitterLikeConfig(9, 8, 23))
	if err != nil {
		t.Fatal(err)
	}
	roots := []uint32{0, 3, 77, 500, 1023}
	wantDepth := make([][]int32, len(roots))
	for i, r := range roots {
		wantDepth[i] = graph.RefBFS(csr, graph.VertexID(r))
	}
	wantWCC := graph.RefWCC(el)
	wantSCC := graph.RefSCC(del)
	wantPR := graph.RefPageRank(csr, graph.DefaultPageRank(iters))
	wantPPR := graph.RefPersonalizedPageRank(csr, 77, graph.DefaultPageRank(iters))

	exact := func(t *testing.T, what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s differs from the reference", what)
		}
	}
	ranks := func(t *testing.T, got, want []float64) {
		t.Helper()
		for v, r := range got {
			if d := math.Abs(r - want[v]); d > 1e-9 {
				t.Fatalf("rank[%d] = %v, want %v (|Δ| = %g)", v, r, want[v], d)
			}
		}
	}
	kernels := []struct {
		name     string
		directed bool
		new      func() algo.Algorithm
		check    func(t *testing.T, a algo.Algorithm)
	}{
		{"bfs", false, func() algo.Algorithm { return algo.NewBFS(0) },
			func(t *testing.T, a algo.Algorithm) { exact(t, "depths", a.(*algo.BFS).Depths(), wantDepth[0]) }},
		{"asyncbfs", false, func() algo.Algorithm { return algo.NewAsyncBFS(0) },
			func(t *testing.T, a algo.Algorithm) { exact(t, "depths", a.(*algo.AsyncBFS).Depths(), wantDepth[0]) }},
		{"msbfs", false, func() algo.Algorithm { return algo.NewMSBFS(roots) },
			func(t *testing.T, a algo.Algorithm) {
				for i := range roots {
					exact(t, fmt.Sprintf("source #%d depths", i), a.(*algo.MSBFS).Depth(i), wantDepth[i])
				}
			}},
		{"wcc", false, func() algo.Algorithm { return algo.NewWCC() },
			func(t *testing.T, a algo.Algorithm) { exact(t, "labels", a.(*algo.WCC).Labels(), wantWCC) }},
		{"scc", true, func() algo.Algorithm { return algo.NewSCC() },
			func(t *testing.T, a algo.Algorithm) { exact(t, "labels", a.(*algo.SCC).Labels(), wantSCC) }},
		{"pagerank", false, func() algo.Algorithm { return algo.NewPageRank(iters) },
			func(t *testing.T, a algo.Algorithm) { ranks(t, a.(*algo.PageRank).Ranks(), wantPR) }},
		{"ppr", false, func() algo.Algorithm { return algo.NewPPR(77, iters) },
			func(t *testing.T, a algo.Algorithm) { ranks(t, a.(*algo.PPR).Ranks(), wantPPR) }},
	}
	for _, codec := range []string{"snb", "raw", "v3"} {
		g := convertCodec(t, el, 6, 4, codec)
		dg, err := tile.Convert(del, t.TempDir(), "d", tile.ConvertOptions{
			TileBits: 7, GroupQ: 2, Codec: codec, Degrees: true, // tiles dense enough to hold several v3 blocks
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dg.Close() })
		for _, k := range kernels {
			for _, cb := range chunkSizes {
				t.Run(fmt.Sprintf("%s/%s/chunk=%d", k.name, codec, cb), func(t *testing.T) {
					opts := smallOpts()
					opts.chunkBytes = cb
					a := k.new()
					kg := g
					if k.directed {
						kg = dg
					}
					st := runAlg(t, kg, opts, a)
					k.check(t, a)
					if cb == 4 && st.Chunks <= st.TilesProcessed {
						t.Fatalf("Chunks = %d not above TilesProcessed = %d", st.Chunks, st.TilesProcessed)
					}
				})
			}
		}
	}
}

// The per-run worker accounting must be self-consistent: one entry per
// worker, chunk counts summing to the dispatched total, and an imbalance
// reading at least 1 whenever the run did measurable compute.
func TestChunkedWorkerStats(t *testing.T) {
	el := kron(t, 11, 8, 24)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.chunkBytes = 256 // force many chunks per dense tile
	p := algo.NewPageRank(5)
	st := runAlg(t, g, opts, p)
	if len(st.WorkerBusy) != opts.Threads || len(st.WorkerChunks) != opts.Threads {
		t.Fatalf("worker stats lengths %d/%d, want %d", len(st.WorkerBusy), len(st.WorkerChunks), opts.Threads)
	}
	var sum int64
	for _, c := range st.WorkerChunks {
		sum += c
	}
	if sum != st.Chunks {
		t.Fatalf("sum(WorkerChunks) = %d, want Chunks = %d", sum, st.Chunks)
	}
	if st.Chunks <= st.TilesProcessed {
		t.Fatalf("Chunks = %d, want more than TilesProcessed = %d at 256-byte chunks", st.Chunks, st.TilesProcessed)
	}
	if st.Imbalance < 1 {
		t.Fatalf("Imbalance = %v, want >= 1", st.Imbalance)
	}
	// A second run on the same engine-free helper must not inherit the
	// first run's busy time: the deltas are per run.
	st2 := runAlg(t, g, opts, algo.NewPageRank(1))
	var busy1, busy2 int64
	for i := range st.WorkerBusy {
		busy1 += int64(st.WorkerBusy[i])
	}
	for i := range st2.WorkerBusy {
		busy2 += int64(st2.WorkerBusy[i])
	}
	if busy2 > busy1 {
		t.Logf("note: 1-iteration run busier than 5-iteration run (%v vs %v)", busy2, busy1)
	}
}
