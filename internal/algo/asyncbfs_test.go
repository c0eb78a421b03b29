package algo

import (
	"testing"
	"testing/quick"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

func TestAsyncBFSMatchesReference(t *testing.T) {
	el := kronEL(t, 9, 8, 21)
	mg := load(t, el, defaultOpts())
	b := NewAsyncBFS(0)
	mg.run(t, b, true, 1000)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
}

func TestAsyncBFSDirected(t *testing.T) {
	el, err := gen.Generate(gen.TwitterLikeConfig(9, 8, 22))
	if err != nil {
		t.Fatal(err)
	}
	mg := load(t, el, defaultOpts())
	b := NewAsyncBFS(0)
	mg.run(t, b, true, 1000)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
}

// The asynchronous variant's selling point (§II-B, [26]): it needs fewer
// full passes than the level count of the graph.
func TestAsyncBFSFewerIterations(t *testing.T) {
	// A long path: sync BFS needs ~n iterations, async collapses them
	// because depths propagate within a pass in disk order.
	n := uint32(256)
	el := &graph.EdgeList{NumVertices: n}
	for v := uint32(0); v+1 < n; v++ {
		el.Edges = append(el.Edges, graph.Edge{Src: v, Dst: v + 1})
	}
	mg := load(t, el, tile.ConvertOptions{TileBits: 4, GroupQ: 2, Symmetry: true, Degrees: true})

	sync := NewBFS(0)
	syncIters := mg.run(t, sync, false, 10000)
	async := NewAsyncBFS(0)
	asyncIters := mg.run(t, async, false, 10000)
	if asyncIters*4 > syncIters {
		t.Fatalf("async took %d iterations vs sync %d; expected far fewer", asyncIters, syncIters)
	}
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range async.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
}

func TestAsyncBFSRootValidation(t *testing.T) {
	el := kronEL(t, 6, 4, 23)
	mg := load(t, el, defaultOpts())
	b := NewAsyncBFS(1 << 30)
	if err := b.Init(mg.ctx); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

// Property: async BFS equals sync BFS on random graphs and roots.
func TestQuickAsyncEqualsSync(t *testing.T) {
	f := func(seed uint64, rawRoot uint16) bool {
		el, err := gen.Generate(gen.Graph500Config(7, 4, seed))
		if err != nil {
			return false
		}
		g, err := tile.Convert(el, t.TempDir(), "q", defaultOpts())
		if err != nil {
			return false
		}
		defer g.Close()
		ctx := &Context{
			NumVertices: g.Meta.NumVertices, Layout: g.Layout,
			Directed: g.Meta.Directed, Half: g.Meta.Half, Workers: testWorkers,
		}
		var tiles [][]byte
		for i := 0; i < g.Layout.NumTiles(); i++ {
			data, err := g.ReadTile(i, nil)
			if err != nil {
				return false
			}
			tiles = append(tiles, append([]byte(nil), data...))
		}
		root := uint32(rawRoot) % el.NumVertices
		runKernel := func(a Algorithm) bool {
			if err := a.Init(ctx); err != nil {
				return false
			}
			for iter := 0; iter < 1<<16; iter++ {
				a.BeforeIteration(iter)
				for i, data := range tiles {
					co := g.Layout.CoordAt(i)
					if !a.NeedTileThisIter(co.Row, co.Col) {
						continue
					}
					feed(t, a, 0, g, co.Row, co.Col, data)
				}
				if a.AfterIteration(iter) {
					return true
				}
			}
			return false
		}
		s := NewBFS(root)
		a := NewAsyncBFS(root)
		if !runKernel(s) || !runKernel(a) {
			return false
		}
		sd, ad := s.Depths(), a.Depths()
		for v := range sd {
			if sd[v] != ad[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
