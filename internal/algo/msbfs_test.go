package algo

import (
	"testing"
	"testing/quick"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

func TestMSBFSValidation(t *testing.T) {
	el := kronEL(t, 6, 4, 71)
	mg := load(t, el, defaultOpts())
	if err := NewMSBFS(nil).Init(mg.ctx); err == nil {
		t.Fatal("zero roots accepted")
	}
	roots := make([]uint32, 65)
	if err := NewMSBFS(roots).Init(mg.ctx); err == nil {
		t.Fatal("65 roots accepted")
	}
	if err := NewMSBFS([]uint32{1 << 30}).Init(mg.ctx); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestMSBFSMatchesIndividualBFS(t *testing.T) {
	el := kronEL(t, 9, 8, 72)
	mg := load(t, el, defaultOpts())
	roots := []uint32{0, 1, 17, 100, 255, 300}
	ms := NewMSBFS(roots)
	mg.run(t, ms, true, 1000)
	csr := graph.NewCSR(el, false)
	for i, r := range roots {
		want := graph.RefBFS(csr, r)
		got := ms.Depth(i)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("source %d: depth[%d] = %d, want %d", r, v, got[v], want[v])
			}
		}
	}
}

func TestMSBFSDirected(t *testing.T) {
	el, err := gen.Generate(gen.TwitterLikeConfig(9, 8, 73))
	if err != nil {
		t.Fatal(err)
	}
	mg := load(t, el, defaultOpts())
	roots := []uint32{0, 5, 99}
	ms := NewMSBFS(roots)
	mg.run(t, ms, true, 1000)
	csr := graph.NewCSR(el, false)
	for i, r := range roots {
		want := graph.RefBFS(csr, r)
		got := ms.Depth(i)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("source %d: depth[%d] = %d, want %d", r, v, got[v], want[v])
			}
		}
	}
}

func TestMSBFSSixtyFourSources(t *testing.T) {
	el := kronEL(t, 8, 8, 74)
	mg := load(t, el, defaultOpts())
	roots := make([]uint32, 64)
	for i := range roots {
		roots[i] = uint32(i * 3)
	}
	ms := NewMSBFS(roots)
	mg.run(t, ms, true, 1000)
	csr := graph.NewCSR(el, false)
	for _, i := range []int{0, 31, 63} {
		want := graph.RefBFS(csr, roots[i])
		got := ms.Depth(i)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("source #%d: depth[%d] = %d, want %d", i, v, got[v], want[v])
			}
		}
	}
}

// The point of MSBFS: one shared pass serves all sources, so the tile
// visits are far below roots x single-BFS visits.
func TestMSBFSSharesPasses(t *testing.T) {
	el := kronEL(t, 9, 8, 75)
	mg := load(t, el, defaultOpts())

	countVisits := func(a Algorithm) int {
		if err := a.Init(mg.ctx); err != nil {
			t.Fatal(err)
		}
		visits := 0
		for iter := 0; iter < 1000; iter++ {
			a.BeforeIteration(iter)
			for i, data := range mg.tiles {
				c := mg.g.Layout.CoordAt(i)
				if !a.NeedTileThisIter(c.Row, c.Col) {
					continue
				}
				visits++
				feed(t, a, 0, mg.g, c.Row, c.Col, data)
			}
			if a.AfterIteration(iter) {
				return visits
			}
		}
		t.Fatal("did not converge")
		return 0
	}

	roots := []uint32{0, 9, 33, 70, 111, 222, 333, 444}
	shared := countVisits(NewMSBFS(roots))
	individual := 0
	for _, r := range roots {
		individual += countVisits(NewBFS(r))
	}
	if shared*2 > individual {
		t.Fatalf("msbfs visited %d tiles, individual BFS total %d; expected >=2x sharing",
			shared, individual)
	}
}

// Property: msbfs depths equal single-source BFS for random root sets.
func TestQuickMSBFSEquivalence(t *testing.T) {
	f := func(seed uint64, rawRoots [4]uint16) bool {
		el, err := gen.Generate(gen.Graph500Config(7, 4, seed))
		if err != nil {
			return false
		}
		g, err := convertQuick(t, el)
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
		roots := make([]uint32, len(rawRoots))
		for i, r := range rawRoots {
			roots[i] = uint32(r) % el.NumVertices
		}
		ms := NewMSBFS(roots)
		if err := ms.Init(ctx); err != nil {
			return false
		}
		for iter := 0; iter < 1<<16; iter++ {
			ms.BeforeIteration(iter)
			for i, data := range tiles {
				c := g.Layout.CoordAt(i)
				if !ms.NeedTileThisIter(c.Row, c.Col) {
					continue
				}
				feed(t, ms, 0, g, c.Row, c.Col, data)
			}
			if ms.AfterIteration(iter) {
				break
			}
		}
		csr := graph.NewCSR(el, false)
		for i, r := range roots {
			want := graph.RefBFS(csr, r)
			got := ms.Depth(i)
			for v := range got {
				if got[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func convertQuick(t *testing.T, el *graph.EdgeList) (*tile.Graph, error) {
	t.Helper()
	return tile.Convert(el, t.TempDir(), "q", defaultOpts())
}
