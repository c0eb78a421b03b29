package algo

import (
	"reflect"
	"testing"
	"testing/quick"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

func sccOpts() tile.ConvertOptions {
	return tile.ConvertOptions{TileBits: 5, GroupQ: 2, Degrees: true}
}

func runSCC(t *testing.T, el *graph.EdgeList) []uint32 {
	t.Helper()
	mg := load(t, el, sccOpts())
	s := NewSCC()
	mg.run(t, s, true, 100000)
	return s.Labels()
}

func TestSCCRejectsUndirected(t *testing.T) {
	el := kronEL(t, 6, 4, 41)
	mg := load(t, el, defaultOpts())
	if err := NewSCC().Init(mg.ctx); err == nil {
		t.Fatal("undirected graph accepted")
	}
}

func TestSCCSimpleCycle(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 is one SCC; 3 hangs off it.
	el := &graph.EdgeList{NumVertices: 4, Directed: true, Edges: []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 2, Dst: 3},
	}}
	labels := runSCC(t, el)
	want := []uint32{0, 0, 0, 3}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
}

func TestSCCTwoCycles(t *testing.T) {
	// Two 2-cycles bridged one-way: distinct SCCs.
	el := &graph.EdgeList{NumVertices: 4, Directed: true, Edges: []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0},
		{Src: 2, Dst: 3}, {Src: 3, Dst: 2},
		{Src: 1, Dst: 2},
	}}
	labels := runSCC(t, el)
	want := []uint32{0, 0, 2, 2}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
}

func TestSCCDAGIsAllSingletons(t *testing.T) {
	el := &graph.EdgeList{NumVertices: 8, Directed: true}
	for v := uint32(0); v+1 < 8; v++ {
		el.Edges = append(el.Edges, graph.Edge{Src: v, Dst: v + 1})
	}
	labels := runSCC(t, el)
	for v, l := range labels {
		if l != uint32(v) {
			t.Fatalf("DAG vertex %d labeled %d", v, l)
		}
	}
}

func TestSCCMatchesReferenceRMAT(t *testing.T) {
	el, err := gen.Generate(gen.TwitterLikeConfig(9, 4, 42))
	if err != nil {
		t.Fatal(err)
	}
	labels := runSCC(t, el)
	want := graph.RefSCC(el)
	for v := range labels {
		if labels[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, labels[v], want[v])
		}
	}
}

func TestRefSCCBasics(t *testing.T) {
	el := &graph.EdgeList{NumVertices: 5, Directed: true, Edges: []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0},
		{Src: 1, Dst: 2},
		{Src: 2, Dst: 3}, {Src: 3, Dst: 4}, {Src: 4, Dst: 2},
	}}
	want := []graph.VertexID{0, 0, 2, 2, 2}
	if got := graph.RefSCC(el); !reflect.DeepEqual(got, want) {
		t.Fatalf("RefSCC = %v, want %v", got, want)
	}
}

// Property: the tile SCC kernel equals Tarjan on random directed graphs.
func TestQuickSCCEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := gen.TwitterLikeConfig(7, 3, seed)
		el, err := gen.Generate(cfg)
		if err != nil {
			return false
		}
		g, err := tile.Convert(el, t.TempDir(), "q", sccOpts())
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
		s := NewSCC()
		if err := s.Init(ctx); err != nil {
			return false
		}
		for iter := 0; iter < 1<<20; iter++ {
			s.BeforeIteration(iter)
			for i, data := range tiles {
				co := g.Layout.CoordAt(i)
				feed(t, s, 0, g, co.Row, co.Col, data)
			}
			if s.AfterIteration(iter) {
				break
			}
		}
		want := graph.RefSCC(el)
		got := s.Labels()
		for v := range got {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: Tarjan's SCC refines WCC — vertices in one SCC are in one WCC.
func TestQuickSCCRefinesWCC(t *testing.T) {
	f := func(raw []uint16, nv uint8) bool {
		n := uint32(nv)%48 + 2
		el := &graph.EdgeList{NumVertices: n, Directed: true}
		for i := 0; i+1 < len(raw); i += 2 {
			el.Edges = append(el.Edges,
				graph.Edge{Src: uint32(raw[i]) % n, Dst: uint32(raw[i+1]) % n})
		}
		scc := graph.RefSCC(el)
		wcc := graph.RefWCC(el)
		for v := range scc {
			if wcc[scc[v]] != wcc[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
