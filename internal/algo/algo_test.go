package algo

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

// loadTiles converts el and loads every tile into memory for the
// mini-engine below.
type memGraph struct {
	g     *tile.Graph
	ctx   *Context
	tiles [][]byte
}

func load(t testing.TB, el *graph.EdgeList, opts tile.ConvertOptions) *memGraph {
	t.Helper()
	g, err := tile.Convert(el, t.TempDir(), "t", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	mg := &memGraph{g: g}
	var deg tile.DegreeSource
	if g.Meta.DegreeFormat != "" {
		deg, err = g.Degrees()
		if err != nil {
			t.Fatal(err)
		}
	}
	mg.ctx = &Context{
		NumVertices: g.Meta.NumVertices,
		Layout:      g.Layout,
		Directed:    g.Meta.Directed,
		Half:        g.Meta.Half,
		Degrees:     deg,
		Workers:     testWorkers,
	}
	for i := 0; i < g.Layout.NumTiles(); i++ {
		data, err := g.ReadTile(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		mg.tiles = append(mg.tiles, append([]byte(nil), data...))
	}
	return mg
}

// edges is one tile decoded to full-ID tuples.
type edges struct{ src, dst []uint32 }

// decoded returns every tile's tuples, for drivers that cut their own
// batches.
func (mg *memGraph) decoded(t testing.TB) []edges {
	t.Helper()
	out := make([]edges, len(mg.tiles))
	for i, data := range mg.tiles {
		c := mg.g.Layout.CoordAt(i)
		rowBase, _ := mg.g.Layout.VertexRange(c.Row)
		colBase, _ := mg.g.Layout.VertexRange(c.Col)
		e := &out[i]
		err := tile.DecodeTuples(data, mg.g.Meta.TupleCodec(), rowBase, colBase, func(s, d uint32) {
			e.src, e.dst = append(e.src, s), append(e.dst, d)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// testWorkers is the worker count the mini-engine announces to kernels
// and uses for parallel runs.
const testWorkers = 4

// feed decodes one tile and hands the kernel its edges in batches on
// behalf of worker, the way the engine's workers do.
func feed(t testing.TB, a Algorithm, worker int, g *tile.Graph, row, col uint32, data []byte) {
	rowBase, _ := g.Layout.VertexRange(row)
	colBase, _ := g.Layout.VertexRange(col)
	var src, dst [tile.V3BlockTuples]uint32
	for len(data) > 0 {
		n, rest, err := tile.DecodeBlock(data, g.Meta.TupleCodec(), rowBase, colBase, &src, &dst)
		if err != nil {
			t.Errorf("tile (%d, %d): %v", row, col, err)
			return
		}
		a.ProcessEdges(worker, row, col, src[:n], dst[:n])
		data = rest
	}
}

// run drives an algorithm the way the engine does: iterate, process the
// tiles the kernel asks for (on testWorkers concurrent workers when
// parallel is set), stop at convergence. It returns the iteration count.
func (mg *memGraph) run(t *testing.T, a Algorithm, parallel bool, maxIter int) int {
	t.Helper()
	if err := a.Init(mg.ctx); err != nil {
		t.Fatal(err)
	}
	workers := 1
	if parallel {
		workers = testWorkers
	}
	for iter := 0; iter < maxIter; iter++ {
		a.BeforeIteration(iter)
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range work {
					c := mg.g.Layout.CoordAt(i)
					feed(t, a, w, mg.g, c.Row, c.Col, mg.tiles[i])
				}
			}(w)
		}
		for i := range mg.tiles {
			c := mg.g.Layout.CoordAt(i)
			if a.NeedTileThisIter(c.Row, c.Col) {
				work <- i
			}
		}
		close(work)
		wg.Wait()
		if a.AfterIteration(iter) {
			return iter + 1
		}
	}
	t.Fatalf("%s did not converge in %d iterations", a.Name(), maxIter)
	return maxIter
}

func defaultOpts() tile.ConvertOptions {
	return tile.ConvertOptions{TileBits: 5, GroupQ: 2, Symmetry: true, Degrees: true}
}

func kronEL(t testing.TB, scale uint, ef int, seed uint64) *graph.EdgeList {
	t.Helper()
	el, err := gen.Generate(gen.Graph500Config(scale, ef, seed))
	if err != nil {
		t.Fatal(err)
	}
	return el
}

// --- BFS ---

func TestBFSMatchesReferenceUndirected(t *testing.T) {
	el := kronEL(t, 9, 8, 1)
	mg := load(t, el, defaultOpts())
	b := NewBFS(0)
	mg.run(t, b, true, 1000)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
}

func TestBFSDirected(t *testing.T) {
	el, err := gen.Generate(gen.TwitterLikeConfig(9, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	mg := load(t, el, defaultOpts())
	if mg.ctx.Half {
		t.Fatal("directed graph loaded as half")
	}
	b := NewBFS(0)
	mg.run(t, b, true, 1000)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
}

func TestBFSWithoutSNB(t *testing.T) {
	el := kronEL(t, 8, 8, 3)
	opts := defaultOpts()
	opts.Codec = "raw"
	mg := load(t, el, opts)
	b := NewBFS(0)
	mg.run(t, b, false, 1000)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
}

func TestBFSRootValidation(t *testing.T) {
	el := kronEL(t, 6, 4, 4)
	mg := load(t, el, defaultOpts())
	b := NewBFS(1 << 30)
	if err := b.Init(mg.ctx); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestBFSSelectiveSkipsTiles(t *testing.T) {
	// A path graph 0-1-2-...-n spread across tiles: in any given
	// iteration only the tiles containing the single frontier vertex are
	// needed.
	n := uint32(128)
	el := &graph.EdgeList{NumVertices: n}
	for v := uint32(0); v+1 < n; v++ {
		el.Edges = append(el.Edges, graph.Edge{Src: v, Dst: v + 1})
	}
	mg := load(t, el, tile.ConvertOptions{TileBits: 4, GroupQ: 2, Symmetry: true, Degrees: true})
	b := NewBFS(0)
	if err := b.Init(mg.ctx); err != nil {
		t.Fatal(err)
	}
	needed := 0
	total := 0
	for iter := 0; iter < int(n); iter++ {
		b.BeforeIteration(iter)
		for i, data := range mg.tiles {
			c := mg.g.Layout.CoordAt(i)
			total++
			if !b.NeedTileThisIter(c.Row, c.Col) {
				continue
			}
			needed++
			feed(t, b, 0, mg.g, c.Row, c.Col, data)
		}
		if b.AfterIteration(iter) {
			break
		}
	}
	if needed >= total/2 {
		t.Fatalf("selective fetch processed %d of %d tile visits; expected a small fraction", needed, total)
	}
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
}

// --- PageRank ---

func TestPageRankMatchesReference(t *testing.T) {
	el := kronEL(t, 8, 8, 5)
	mg := load(t, el, defaultOpts())
	iters := 15
	p := NewPageRank(iters)
	if got := mg.run(t, p, true, iters); got != iters {
		t.Fatalf("ran %d iterations, want %d", got, iters)
	}
	want := graph.RefPageRank(graph.NewCSR(el, false), graph.DefaultPageRank(iters))
	for v, r := range p.Ranks() {
		if math.Abs(r-want[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want %v", v, r, want[v])
		}
	}
}

func TestPageRankDirected(t *testing.T) {
	el, err := gen.Generate(gen.TwitterLikeConfig(8, 8, 6))
	if err != nil {
		t.Fatal(err)
	}
	mg := load(t, el, defaultOpts())
	iters := 10
	p := NewPageRank(iters)
	mg.run(t, p, true, iters)
	want := graph.RefPageRank(graph.NewCSR(el, false), graph.DefaultPageRank(iters))
	for v, r := range p.Ranks() {
		if math.Abs(r-want[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want %v", v, r, want[v])
		}
	}
}

func TestPageRankEpsilonStopsEarly(t *testing.T) {
	el := kronEL(t, 8, 8, 7)
	mg := load(t, el, defaultOpts())
	p := NewPageRank(500)
	p.Epsilon = 1e-7
	iters := mg.run(t, p, false, 500)
	if iters >= 500 {
		t.Fatalf("epsilon stop did not trigger (%d iterations)", iters)
	}
	if p.Delta() >= 1e-7 {
		t.Fatalf("final delta %v above epsilon", p.Delta())
	}
}

// The per-iteration vertex pass runs on Context.Workers goroutines; with
// the edges fed by one worker in a fixed order, two runs must agree to the
// last bit — ranks and Delta — however those goroutines were scheduled.
func TestPageRankReduceIndependentOfScheduling(t *testing.T) {
	el := kronEL(t, 9, 8, 11)
	mg := load(t, el, defaultOpts())
	for _, mk := range []func() (Algorithm, *PageRank){
		func() (Algorithm, *PageRank) { p := NewPageRank(6); return p, p },
		func() (Algorithm, *PageRank) { p := NewPPR(3, 6); return p, &p.PageRank },
	} {
		a, first := mk()
		mg.run(t, a, false, 6)
		for rep := 0; rep < 5; rep++ {
			b, again := mk()
			mg.run(t, b, false, 6)
			if again.Delta() != first.Delta() {
				t.Fatalf("%s: delta %v, then %v", a.Name(), first.Delta(), again.Delta())
			}
			for v, r := range again.Ranks() {
				if r != first.Ranks()[v] {
					t.Fatalf("%s: rank[%d] = %v, then %v", a.Name(), v, first.Ranks()[v], r)
				}
			}
		}
	}
}

func TestPageRankRequiresDegrees(t *testing.T) {
	el := kronEL(t, 6, 4, 8)
	opts := defaultOpts()
	opts.Degrees = false
	mg := load(t, el, opts)
	p := NewPageRank(5)
	if err := p.Init(mg.ctx); err == nil {
		t.Fatal("PageRank accepted a graph without degrees")
	}
}

func TestPageRankSumInvariant(t *testing.T) {
	el := kronEL(t, 9, 4, 9)
	mg := load(t, el, defaultOpts())
	p := NewPageRank(8)
	mg.run(t, p, true, 8)
	sum := 0.0
	for _, r := range p.Ranks() {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %v", sum)
	}
}

// --- WCC ---

func TestWCCMatchesReference(t *testing.T) {
	// A sparse graph with many components.
	el := kronEL(t, 9, 1, 10)
	mg := load(t, el, defaultOpts())
	w := NewWCC()
	mg.run(t, w, true, 10000)
	want := graph.RefWCC(el)
	for v, l := range w.Labels() {
		if l != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, l, want[v])
		}
	}
	if graph.ComponentCount(w.Labels()) < 2 {
		t.Skip("graph unexpectedly fully connected; skew seed")
	}
}

func TestWCCDirectedIsWeak(t *testing.T) {
	// Directed chain a->b<-c: weakly one component.
	el := &graph.EdgeList{NumVertices: 3, Directed: true,
		Edges: []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}}}
	mg := load(t, el, tile.ConvertOptions{TileBits: 1, GroupQ: 1, Degrees: true})
	w := NewWCC()
	mg.run(t, w, false, 100)
	for v, l := range w.Labels() {
		if l != 0 {
			t.Fatalf("label[%d] = %d, want 0", v, l)
		}
	}
}

func TestWCCSelectiveConvergesFast(t *testing.T) {
	el := kronEL(t, 10, 2, 11)
	mg := load(t, el, defaultOpts())
	w := NewWCC()
	iters := mg.run(t, w, true, 1000)
	// Min-label propagation over tiles converges in few iterations
	// (the paper: "all CCs are identified in very few iterations").
	if iters > 60 {
		t.Fatalf("WCC took %d iterations", iters)
	}
	want := graph.RefWCC(el)
	for v, l := range w.Labels() {
		if l != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, l, want[v])
		}
	}
}

// --- metadata hooks ---

func TestMetadataBytesPositive(t *testing.T) {
	el := kronEL(t, 8, 4, 12)
	mg := load(t, el, defaultOpts())
	for _, a := range []Algorithm{NewBFS(0), NewPageRank(3), NewWCC()} {
		if err := a.Init(mg.ctx); err != nil {
			t.Fatal(err)
		}
		if a.MetadataBytes() <= 0 {
			t.Fatalf("%s MetadataBytes = %d", a.Name(), a.MetadataBytes())
		}
	}
}

func TestPageRankAlwaysNeedsAllTiles(t *testing.T) {
	el := kronEL(t, 8, 4, 13)
	mg := load(t, el, defaultOpts())
	p := NewPageRank(3)
	if err := p.Init(mg.ctx); err != nil {
		t.Fatal(err)
	}
	if !p.NeedTileThisIter(0, 0) || !p.NeedTileNextIter(3, 1) {
		t.Fatal("PageRank must always need every tile")
	}
}

// Property: BFS equals the reference on random graphs, random roots,
// random tile widths, with concurrent tile processing.
func TestQuickBFSEquivalence(t *testing.T) {
	f := func(seed uint64, rawRoot uint16, rawBits uint8) bool {
		el, err := gen.Generate(gen.Graph500Config(7, 4, seed))
		if err != nil {
			return false
		}
		opts := defaultOpts()
		opts.TileBits = uint(rawBits)%4 + 3
		g, err := tile.Convert(el, t.TempDir(), "q", opts)
		if err != nil {
			return false
		}
		defer g.Close()
		mg := &memGraph{g: g, ctx: &Context{
			NumVertices: g.Meta.NumVertices, Layout: g.Layout,
			Directed: g.Meta.Directed, Half: g.Meta.Half, Workers: testWorkers,
		}}
		for i := 0; i < g.Layout.NumTiles(); i++ {
			data, err := g.ReadTile(i, nil)
			if err != nil {
				return false
			}
			mg.tiles = append(mg.tiles, append([]byte(nil), data...))
		}
		root := uint32(rawRoot) % el.NumVertices
		b := NewBFS(root)
		mg.run(t, b, true, 1<<16)
		want := graph.RefBFS(graph.NewCSR(el, false), root)
		for v, d := range b.Depths() {
			if d != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: WCC labels match the union-find reference on random graphs.
func TestQuickWCCEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		el, err := gen.Generate(gen.Graph500Config(7, 2, seed))
		if err != nil {
			return false
		}
		g, err := tile.Convert(el, t.TempDir(), "q", defaultOpts())
		if err != nil {
			return false
		}
		defer g.Close()
		mg := &memGraph{g: g, ctx: &Context{
			NumVertices: g.Meta.NumVertices, Layout: g.Layout,
			Directed: g.Meta.Directed, Half: g.Meta.Half, Workers: testWorkers,
		}}
		for i := 0; i < g.Layout.NumTiles(); i++ {
			data, err := g.ReadTile(i, nil)
			if err != nil {
				return false
			}
			mg.tiles = append(mg.tiles, append([]byte(nil), data...))
		}
		w := NewWCC()
		mg.run(t, w, false, 1<<16)
		want := graph.RefWCC(el)
		for v, l := range w.Labels() {
			if l != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
