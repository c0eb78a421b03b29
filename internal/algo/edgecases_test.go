package algo

import (
	"testing"

	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

// Degenerate graphs must work through every kernel: a single vertex, a
// single self loop, a single edge, and a star.

func tinyOpts() tile.ConvertOptions {
	return tile.ConvertOptions{TileBits: 1, GroupQ: 1, Symmetry: true, Degrees: true}
}

func runAll(t *testing.T, el *graph.EdgeList, opts tile.ConvertOptions) (*BFS, *PageRank, *WCC) {
	t.Helper()
	mg := load(t, el, opts)
	b := NewBFS(0)
	mg.run(t, b, false, 100)
	p := NewPageRank(5)
	mg.run(t, p, false, 5)
	w := NewWCC()
	mg.run(t, w, false, 100)
	return b, p, w
}

func TestSingleVertexNoEdges(t *testing.T) {
	el := &graph.EdgeList{NumVertices: 1}
	b, p, w := runAll(t, el, tinyOpts())
	if b.Depths()[0] != 0 {
		t.Fatalf("depth = %v", b.Depths())
	}
	if r := p.Ranks()[0]; r < 0.999 || r > 1.001 {
		t.Fatalf("rank = %v", r)
	}
	if w.Labels()[0] != 0 {
		t.Fatalf("label = %v", w.Labels())
	}
}

func TestSelfLoopOnly(t *testing.T) {
	el := &graph.EdgeList{NumVertices: 2, Edges: []graph.Edge{{Src: 0, Dst: 0}}}
	b, p, w := runAll(t, el, tinyOpts())
	if b.Depths()[0] != 0 || b.Depths()[1] != -1 {
		t.Fatalf("depths = %v", b.Depths())
	}
	sum := p.Ranks()[0] + p.Ranks()[1]
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("ranks sum to %v", sum)
	}
	if w.Labels()[0] != 0 || w.Labels()[1] != 1 {
		t.Fatalf("labels = %v", w.Labels())
	}
}

func TestSingleEdge(t *testing.T) {
	el := &graph.EdgeList{NumVertices: 2, Edges: []graph.Edge{{Src: 0, Dst: 1}}}
	b, _, w := runAll(t, el, tinyOpts())
	if b.Depths()[1] != 1 {
		t.Fatalf("depths = %v", b.Depths())
	}
	if w.Labels()[1] != 0 {
		t.Fatalf("labels = %v", w.Labels())
	}
}

func TestStarGraph(t *testing.T) {
	// Hub 0 with 31 leaves spread across tiles.
	el := &graph.EdgeList{NumVertices: 32}
	for v := uint32(1); v < 32; v++ {
		el.Edges = append(el.Edges, graph.Edge{Src: 0, Dst: v})
	}
	opts := tile.ConvertOptions{TileBits: 3, GroupQ: 2, Symmetry: true, Degrees: true}
	b, p, w := runAll(t, el, opts)
	for v := 1; v < 32; v++ {
		if b.Depths()[v] != 1 {
			t.Fatalf("depth[%d] = %d", v, b.Depths()[v])
		}
		if w.Labels()[v] != 0 {
			t.Fatalf("label[%d] = %d", v, w.Labels()[v])
		}
	}
	// The hub must dominate PageRank.
	for v := 1; v < 32; v++ {
		if p.Ranks()[0] <= p.Ranks()[v] {
			t.Fatalf("hub rank %v <= leaf rank %v", p.Ranks()[0], p.Ranks()[v])
		}
	}
}

func TestDisconnectedRootComponent(t *testing.T) {
	// Root in a small component; the rest of the graph unreachable.
	el := &graph.EdgeList{NumVertices: 64, Edges: []graph.Edge{
		{Src: 0, Dst: 1},
		{Src: 40, Dst: 41}, {Src: 41, Dst: 42},
	}}
	opts := tile.ConvertOptions{TileBits: 3, GroupQ: 2, Symmetry: true, Degrees: true}
	mg := load(t, el, opts)
	b := NewBFS(0)
	iters := mg.run(t, b, false, 100)
	// Selective fetching should converge quickly: the frontier dies after
	// one level.
	if iters > 3 {
		t.Fatalf("took %d iterations for a 2-vertex component", iters)
	}
	if b.Depths()[40] != -1 || b.Depths()[1] != 1 {
		t.Fatalf("depths = %v", b.Depths()[:4])
	}
}
