package algo

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

// traversal is what the retirement oracle needs of a traversal kernel
// beyond Algorithm: its retirement state, whether root i has visited v, and
// root i's depths.
type traversal struct {
	Algorithm
	roots   []uint32
	tiles   *retirement
	visited func(i int, v uint32) bool
	depths  func(i int) []int32
}

func bfsTraversal(roots []uint32) traversal {
	b := NewBFS(roots[0])
	return traversal{b, roots, &b.tiles,
		func(_ int, v uint32) bool { return b.depth[v] >= 0 },
		func(int) []int32 { return b.Depths() }}
}

func msbfsTraversal(roots []uint32) traversal {
	m := NewMSBFS(roots)
	return traversal{m, roots, &m.tiles,
		func(i int, v uint32) bool { return m.visited[v]>>uint(i)&1 != 0 },
		m.Depth}
}

// reachOf counts the vertices a reference BFS from v reaches, v included.
func reachOf(csr *graph.CSR, v uint32) int {
	n := 0
	for _, d := range graph.RefBFS(csr, v) {
		if d >= 0 {
			n++
		}
	}
	return n
}

// TestRetirementOracle drives both traversal kernels the way the engine
// does — the tiles NeedTileThisIter asks for, cut into batches of chunk
// tuples, on one worker or racing on four — and checks retirement against
// the tiles themselves after every iteration: a retired tile, decoded with
// tile.DecodeTuples, holds no tuple that could still discover anything — for
// every root one endpoint was visited before the iteration that retired it
// began, so by its end the other is too —, a retired tile stays retired, and
// the iteration each tile retires in is the same however the batches were
// cut and raced. The depths must still equal the reference, and something
// must retire before the last iteration, or the oracle has checked nothing.
func TestRetirementOracle(t *testing.T) {
	sym := kronEL(t, 9, 8, 31)
	dir, err := gen.Generate(gen.TwitterLikeConfig(9, 8, 32))
	if err != nil {
		t.Fatal(err)
	}
	// Kronecker IDs are ordered by degree, so under symmetry storage a
	// tuple's source is nearly always visited before its destination; the
	// same graph with the IDs reversed makes the source the late endpoint.
	rev := &graph.EdgeList{NumVertices: sym.NumVertices}
	for _, e := range sym.Edges {
		rev.Edges = append(rev.Edges, graph.Edge{Src: sym.NumVertices - 1 - e.Src, Dst: sym.NumVertices - 1 - e.Dst})
	}
	kernels := []struct {
		name string
		new  func(roots []uint32) traversal
	}{
		{"bfs", func(roots []uint32) traversal { return bfsTraversal(roots[:1]) }},
		{"msbfs1", func(roots []uint32) traversal { return msbfsTraversal(roots[:1]) }},
		{"msbfs8", func(roots []uint32) traversal { return msbfsTraversal(roots[:8]) }},
		{"msbfs64", func(roots []uint32) traversal { return msbfsTraversal(roots[:64]) }},
	}
	for gi, el := range []*graph.EdgeList{sym, rev, dir} {
		// One root that reaches little keeps every tile live for MSBFS, so
		// all 64 come from the vertices that reach (nearly) the most.
		csr := graph.NewCSR(el, false)
		reach := make([]int, el.NumVertices)
		most := 0
		for v := range reach {
			reach[v] = reachOf(csr, uint32(v))
			most = max(most, reach[v])
		}
		var roots []uint32
		for v := 0; v < len(reach) && len(roots) < 64; v++ {
			if 10*reach[v] >= 9*most {
				roots = append(roots, uint32(v))
			}
		}
		if len(roots) < 64 {
			t.Fatalf("only %d vertices reach nearly as many as the %d the best does", len(roots), most)
		}
		for _, codec := range []string{"snb", "raw", "v3"} {
			mg := load(t, el, tile.ConvertOptions{TileBits: 5, GroupQ: 2, Symmetry: true, Codec: codec})
			for _, k := range kernels {
				var first []int // the iteration each tile retired in, first configuration
				for _, workers := range []int{1, 4} {
					for _, chunk := range []int{1, 7, tile.V3BlockTuples} {
						name := fmt.Sprintf("%s/%s/graph%d/workers=%d/chunk=%d", k.name, codec, gi, workers, chunk)
						t.Run(name, func(t *testing.T) {
							got := mg.checkRetirement(t, csr, k.new(roots), workers, chunk)
							if first == nil {
								first = got
							} else if !slices.Equal(got, first) {
								t.Fatalf("tiles retired in iterations %v, with one worker and one-tuple batches in %v", got, first)
							}
						})
					}
				}
			}
		}
	}
}

// checkRetirement returns the iteration each tile retired in (-1: never).
func (mg *memGraph) checkRetirement(t *testing.T, csr *graph.CSR, k traversal, workers, chunk int) []int {
	if err := k.Init(mg.ctx); err != nil {
		t.Fatal(err)
	}
	layout := mg.g.Layout
	tiles := mg.decoded(t)
	type batch struct {
		tile   int
		lo, hi int
	}
	want := make([][]int32, len(k.roots))
	for r, root := range k.roots {
		want[r] = graph.RefBFS(csr, root)
	}
	retiredIn := make([]int, len(tiles))
	for i := range retiredIn {
		retiredIn[i] = -1
	}
	retiredEarly := 0
	for iter := 0; ; iter++ {
		if iter > 1000 {
			t.Fatal("did not converge")
		}
		k.BeforeIteration(iter)
		work := make(chan batch)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for b := range work {
					c, e := layout.CoordAt(b.tile), tiles[b.tile]
					k.ProcessEdges(w, c.Row, c.Col, e.src[b.lo:b.hi], e.dst[b.lo:b.hi])
				}
			}(w)
		}
		for i, e := range tiles {
			c := layout.CoordAt(i)
			if len(e.src) == 0 || !k.NeedTileThisIter(c.Row, c.Col) {
				continue
			}
			if retiredIn[i] >= 0 {
				t.Fatalf("iteration %d asks for tile %d, retired earlier", iter, i)
			}
			for lo := 0; lo < len(e.src); lo += chunk {
				work <- batch{i, lo, min(lo+chunk, len(e.src))}
			}
		}
		close(work)
		wg.Wait()
		done := k.AfterIteration(iter)
		for i, e := range tiles {
			c := layout.CoordAt(i)
			retired := k.tiles.retired(c.Row, c.Col)
			if retiredIn[i] >= 0 && !retired {
				t.Fatalf("tile %d un-retired in iteration %d", i, iter)
			}
			if !retired {
				continue
			}
			if k.NeedTileNextIter(c.Row, c.Col) {
				t.Fatalf("iteration %d: retired tile %d is still predicted needed", iter, i)
			}
			if retiredIn[i] < 0 {
				retiredIn[i] = iter
				if !done {
					retiredEarly++
				}
			}
			for j, s := range e.src {
				d := e.dst[j]
				for r := range k.roots {
					if !k.visited(r, d) || mg.ctx.Half && !k.visited(r, s) {
						t.Fatalf("iteration %d: retired tile %d holds (%d, %d), still live for root #%d", iter, i, s, d, r)
					}
				}
			}
		}
		if done {
			break
		}
	}
	if retiredEarly == 0 {
		t.Fatal("no tile retired before the last iteration")
	}
	for r, root := range k.roots {
		for v, d := range k.depths(r) {
			if d != want[r][v] {
				t.Fatalf("root %d: depth[%d] = %d, want %d", root, v, d, want[r][v])
			}
		}
	}
	return retiredIn
}
