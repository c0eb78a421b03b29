package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/delta"
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
// workers — which is what -race is pointed at here. The undirected
// kernels also run on a mutated graph (mutatedGraph), checked against
// references over its final edge list: the masked positions its store's
// loader recomputed are dropped view by view, and at chunk=4 they fall
// in views other than the one that carries the tile's inserts.
func TestChunkedEquivalence(t *testing.T) {
	const iters = 10
	el := kron(t, 10, 8, 21)
	del, err := gen.Generate(gen.TwitterLikeConfig(9, 8, 23))
	if err != nil {
		t.Fatal(err)
	}
	roots := []uint32{0, 3, 77, 500, 1023}
	type refs struct {
		depth   [][]int32
		wcc     []graph.VertexID
		pr, ppr []float64
	}
	refsOf := func(el *graph.EdgeList) *refs {
		csr := graph.NewCSR(el, false)
		r := &refs{
			wcc: graph.RefWCC(el),
			pr:  graph.RefPageRank(csr, graph.DefaultPageRank(iters)),
			ppr: graph.RefPersonalizedPageRank(csr, 77, graph.DefaultPageRank(iters)),
		}
		for _, root := range roots {
			r.depth = append(r.depth, graph.RefBFS(csr, graph.VertexID(root)))
		}
		return r
	}
	wantSCC := graph.RefSCC(del)

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
		check    func(t *testing.T, a algo.Algorithm, r *refs)
	}{
		{"bfs", false, func() algo.Algorithm { return algo.NewBFS(0) },
			func(t *testing.T, a algo.Algorithm, r *refs) { exact(t, "depths", a.(*algo.BFS).Depths(), r.depth[0]) }},
		{"asyncbfs", false, func() algo.Algorithm { return algo.NewAsyncBFS(0) },
			func(t *testing.T, a algo.Algorithm, r *refs) {
				exact(t, "depths", a.(*algo.AsyncBFS).Depths(), r.depth[0])
			}},
		{"msbfs", false, func() algo.Algorithm { return algo.NewMSBFS(roots) },
			func(t *testing.T, a algo.Algorithm, r *refs) {
				for i := range roots {
					exact(t, fmt.Sprintf("source #%d depths", i), a.(*algo.MSBFS).Depth(i), r.depth[i])
				}
			}},
		{"wcc", false, func() algo.Algorithm { return algo.NewWCC() },
			func(t *testing.T, a algo.Algorithm, r *refs) { exact(t, "labels", a.(*algo.WCC).Labels(), r.wcc) }},
		{"scc", true, func() algo.Algorithm { return algo.NewSCC() },
			func(t *testing.T, a algo.Algorithm, _ *refs) { exact(t, "labels", a.(*algo.SCC).Labels(), wantSCC) }},
		{"pagerank", false, func() algo.Algorithm { return algo.NewPageRank(iters) },
			func(t *testing.T, a algo.Algorithm, r *refs) { ranks(t, a.(*algo.PageRank).Ranks(), r.pr) }},
		{"ppr", false, func() algo.Algorithm { return algo.NewPPR(77, iters) },
			func(t *testing.T, a algo.Algorithm, r *refs) { ranks(t, a.(*algo.PPR).Ranks(), r.ppr) }},
	}
	want := refsOf(el)
	for _, codec := range []string{"snb", "raw", "v3"} {
		g := convertCodec(t, el, 6, 4, codec)
		dg, err := tile.Convert(del, t.TempDir(), "d", tile.ConvertOptions{
			TileBits: 7, GroupQ: 2, Codec: codec, Degrees: true, // tiles dense enough to hold several v3 blocks
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dg.Close() })
		mg, ds, final := mutatedGraph(t, el, codec)
		wantMut := refsOf(final)
		inputs := []struct {
			suffix string
			g      *tile.Graph
			ds     *delta.Store
			want   *refs
		}{{"", g, nil, want}, {"+delta", mg, ds, wantMut}}
		for _, k := range kernels {
			for _, in := range inputs {
				if k.directed && in.ds != nil {
					continue
				}
				for _, cb := range chunkSizes {
					t.Run(fmt.Sprintf("%s/%s%s/chunk=%d", k.name, codec, in.suffix, cb), func(t *testing.T) {
						opts := smallOpts()
						opts.chunkBytes = cb
						a := k.new()
						kg := in.g
						if k.directed {
							kg = dg
						}
						st := runAlgDelta(t, kg, in.ds, opts, a)
						k.check(t, a, in.want)
						if cb == 4 && st.Chunks <= st.TilesProcessed {
							t.Fatalf("Chunks = %d not above TilesProcessed = %d", st.Chunks, st.TilesProcessed)
						}
						var sum int64
						for _, c := range st.WorkerChunks {
							sum += c
						}
						if sum != st.Chunks {
							t.Fatalf("sum(WorkerChunks) = %d, want Chunks = %d", sum, st.Chunks)
						}
						if in.ds != nil && st.DeltaTiles == 0 {
							t.Fatal("no tile was read with its delta")
						}
					})
				}
			}
		}
	}
}

// mutatedGraph converts el in codec and mutates it through a delta store:
// deletes of base edges the graph holds twice, inserts of absent edges
// and, in a later batch, re-inserts of some deleted edges. It then
// flushes and reopens the store, so the loader recomputes the masked
// positions, and checks that at 4-byte chunks some tile's masked tuples
// fall in more than one view. It returns the graph, the reopened store
// and the final edge list.
func mutatedGraph(t *testing.T, el *graph.EdgeList, codec string) (*tile.Graph, *delta.Store, *graph.EdgeList) {
	t.Helper()
	g := convertCodec(t, el, 6, 4, codec)
	count := make(map[uint64]int)
	for _, e := range el.Edges {
		count[canonKey(e.Src, e.Dst)]++
	}
	var twice []uint64
	for k, c := range count {
		if c == 2 && uint32(k>>32) != uint32(k) {
			twice = append(twice, k)
		}
	}
	slices.Sort(twice)
	var dels, reins, ins []delta.Op
	for i := 0; i < len(twice) && len(dels) < 40; i += max(1, len(twice)/40) {
		k := twice[i]
		dels = append(dels, delta.Op{Del: true, Src: uint32(k), Dst: uint32(k >> 32)})
		if len(dels)%4 == 0 {
			reins = append(reins, delta.Op{Src: uint32(k >> 32), Dst: uint32(k)})
		}
	}
	nv := el.NumVertices
	for x := uint32(1); len(ins) < 40; x += 2654435761 % nv {
		s, d := x%nv, (x*31+7)%nv
		if k := canonKey(s, d); s != d && count[k] == 0 {
			count[k] = -1 // not drawn twice
			ins = append(ins, delta.Op{Src: s, Dst: d})
		}
	}
	ds, err := delta.Open(g, g.BasePath(), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]delta.Op{dels, ins, reins}
	for _, b := range batches {
		if _, err := ds.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if ds, err = delta.Open(g, g.BasePath(), delta.Options{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })

	for _, b := range batches {
		for _, op := range b {
			k := canonKey(op.Src, op.Dst)
			if count[k] = 1; op.Del {
				count[k] = 0
			}
		}
	}
	final := &graph.EdgeList{NumVertices: nv}
	for k, c := range count {
		for range c {
			final.Edges = append(final.Edges, graph.Edge{Src: uint32(k >> 32), Dst: uint32(k)})
		}
	}

	straddles := false
	v := ds.View()
	for _, di := range v.TileIndexes() {
		data, err := g.ReadTile(di, nil)
		if err != nil {
			t.Fatal(err)
		}
		views := map[int]bool{}
		first := 0
		masked, err := v.Tile(di).Masked()
		if err != nil {
			t.Fatal(err)
		}
		for i, view := range tile.SplitViews(nil, data, g.Meta.TupleCodec(), 4) {
			n, err := tile.Tuples(view, g.Meta.TupleCodec())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range masked {
				if p >= first && p < first+n {
					views[i] = true
				}
			}
			first += n
		}
		straddles = straddles || len(views) > 1
	}
	if !straddles {
		t.Fatalf("%s: no tile has masked tuples in more than one 4-byte-chunk view", codec)
	}
	return g, ds, final
}

// runAlgDelta is runAlg on an engine with ds (nil: none) attached.
func runAlgDelta(t *testing.T, g *tile.Graph, ds *delta.Store, opts Options, a algo.Algorithm) *Stats {
	t.Helper()
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if ds != nil {
		e.SetDeltaStore(ds)
	}
	st, err := e.Run(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	return st
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
