package gstore_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	gstore "github.com/gwu-systems/gstore"
	"github.com/gwu-systems/gstore/internal/graph"
)

func TestEndToEnd(t *testing.T) {
	edges, err := gstore.GenerateKronecker(11, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := gstore.DefaultConvertOptions()
	opts.TileBits = 6
	opts.GroupQ = 4
	g, err := gstore.Convert(edges, dir, "kron-11-8", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	eopts := gstore.DefaultEngineOptions()
	eopts.MemoryBytes = 4 << 20
	eopts.SegmentSize = 256 << 10
	eng, err := gstore.NewEngine(g, eopts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	depths, bst, err := eng.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	wantD := graph.RefBFS(graph.NewCSR(edges, false), 0)
	for v, d := range depths {
		if d != wantD[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, wantD[v])
		}
	}
	if bst.MTEPS(g.Meta.NumOriginal) <= 0 {
		t.Fatal("MTEPS not positive")
	}

	ranks, _, err := eng.PageRank(8)
	if err != nil {
		t.Fatal(err)
	}
	wantR := graph.RefPageRank(graph.NewCSR(edges, false), graph.DefaultPageRank(8))
	for v, r := range ranks {
		if math.Abs(r-wantR[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want %v", v, r, wantR[v])
		}
	}

	labels, _, err := eng.WCC()
	if err != nil {
		t.Fatal(err)
	}
	wantL := graph.RefWCC(edges)
	for v, l := range labels {
		if l != wantL[v] {
			t.Fatalf("label[%d] = %d, want %d", v, l, wantL[v])
		}
	}
}

func TestOpenRoundTrip(t *testing.T) {
	edges, err := gstore.GenerateUniform(9, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := gstore.DefaultConvertOptions()
	opts.TileBits = 5
	g, err := gstore.Convert(edges, dir, "u", opts)
	if err != nil {
		t.Fatal(err)
	}
	g.Close()

	g2, err := gstore.Open(filepath.Join(dir, "u"))
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if g2.Meta.NumOriginal != int64(len(edges.Edges)) {
		t.Fatalf("reopened edge count %d, want %d", g2.Meta.NumOriginal, len(edges.Edges))
	}
}

func TestPageRankUntil(t *testing.T) {
	edges, err := gstore.GenerateKronecker(9, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	opts := gstore.DefaultConvertOptions()
	opts.TileBits = 5
	g, err := gstore.Convert(edges, t.TempDir(), "p", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	eopts := gstore.DefaultEngineOptions()
	eopts.MemoryBytes = 2 << 20
	eopts.SegmentSize = 128 << 10
	eng, err := gstore.NewEngine(g, eopts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, st, err := eng.PageRankUntil(1e-7, 500)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations >= 500 || st.Iterations < 2 {
		t.Fatalf("iterations = %d", st.Iterations)
	}
}

func TestGenerateTwitterLikeDirected(t *testing.T) {
	edges, err := gstore.GenerateTwitterLike(8, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !edges.Directed {
		t.Fatal("twitter-like graph should be directed")
	}
}

func ExampleEngine_BFS() {
	edges, _ := gstore.GenerateKronecker(10, 8, 1)
	dir, _ := os.MkdirTemp("", "gstore-example")
	defer os.RemoveAll(dir)
	opts := gstore.DefaultConvertOptions()
	opts.TileBits = 6
	g, err := gstore.Convert(edges, dir, "example", opts)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer g.Close()
	eopts := gstore.DefaultEngineOptions()
	eopts.MemoryBytes = 4 << 20
	eopts.SegmentSize = 256 << 10
	eng, err := gstore.NewEngine(g, eopts)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer eng.Close()
	depths, _, err := eng.BFS(0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(depths[0])
	// Output: 0
}

func TestFacadeExtendedAlgorithms(t *testing.T) {
	edges, err := gstore.GenerateKronecker(10, 8, 44)
	if err != nil {
		t.Fatal(err)
	}
	opts := gstore.DefaultConvertOptions()
	opts.TileBits = 6
	g, err := gstore.Convert(edges, t.TempDir(), "ext", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	eopts := gstore.DefaultEngineOptions()
	eopts.MemoryBytes = 4 << 20
	eopts.SegmentSize = 256 << 10
	eng, err := gstore.NewEngine(g, eopts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	sync, _, err := eng.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	async, ast, err := eng.AsyncBFS(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range sync {
		if sync[v] != async[v] {
			t.Fatalf("async depth[%d] = %d, sync %d", v, async[v], sync[v])
		}
	}
	if ast.Iterations < 1 {
		t.Fatal("async stats empty")
	}

	multi, _, err := eng.MSBFS([]uint32{0, 3, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != 3 {
		t.Fatalf("MSBFS returned %d results", len(multi))
	}
	for v := range sync {
		if multi[0][v] != sync[v] {
			t.Fatalf("msbfs depth[%d] = %d, bfs %d", v, multi[0][v], sync[v])
		}
	}

	// SCC must reject the undirected graph.
	if _, _, err := eng.SCC(); err == nil {
		t.Fatal("SCC accepted an undirected graph")
	}
}

func TestFacadeSCCDirected(t *testing.T) {
	edges, err := gstore.GenerateTwitterLike(9, 4, 45)
	if err != nil {
		t.Fatal(err)
	}
	opts := gstore.DefaultConvertOptions()
	opts.TileBits = 5
	g, err := gstore.Convert(edges, t.TempDir(), "scc", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	eopts := gstore.DefaultEngineOptions()
	eopts.MemoryBytes = 2 << 20
	eopts.SegmentSize = 128 << 10
	eng, err := gstore.NewEngine(g, eopts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	labels, st, err := eng.SCC()
	if err != nil {
		t.Fatal(err)
	}
	want := graph.RefSCC(edges)
	for v := range labels {
		if labels[v] != want[v] {
			t.Fatalf("scc label[%d] = %d, want %d", v, labels[v], want[v])
		}
	}
	if st.Iterations < 2 {
		t.Fatalf("iterations = %d", st.Iterations)
	}
}

func TestFacadeInMemory(t *testing.T) {
	edges, err := gstore.GenerateKronecker(9, 8, 46)
	if err != nil {
		t.Fatal(err)
	}
	opts := gstore.DefaultConvertOptions()
	opts.TileBits = 5
	g, err := gstore.Convert(edges, t.TempDir(), "mem", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	mg, err := gstore.LoadInMemory(g)
	if err != nil {
		t.Fatal(err)
	}
	depths, _, err := mg.BFS(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.RefBFS(graph.NewCSR(edges, false), 0)
	for v := range depths {
		if depths[v] != want[v] {
			t.Fatalf("in-memory depth[%d] = %d, want %d", v, depths[v], want[v])
		}
	}
	ranks, _, err := mg.PageRank(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantR := graph.RefPageRank(graph.NewCSR(edges, false), graph.DefaultPageRank(6))
	for v := range ranks {
		if math.Abs(ranks[v]-wantR[v]) > 1e-9 {
			t.Fatalf("in-memory rank[%d] = %v, want %v", v, ranks[v], wantR[v])
		}
	}
	labels, _, err := mg.WCC(2)
	if err != nil {
		t.Fatal(err)
	}
	wantL := graph.RefWCC(edges)
	for v := range labels {
		if labels[v] != wantL[v] {
			t.Fatalf("in-memory label[%d] = %d, want %d", v, labels[v], wantL[v])
		}
	}
}

func TestFacadeHDDTier(t *testing.T) {
	edges, err := gstore.GenerateKronecker(9, 8, 47)
	if err != nil {
		t.Fatal(err)
	}
	opts := gstore.DefaultConvertOptions()
	opts.TileBits = 5
	g, err := gstore.Convert(edges, t.TempDir(), "hdd", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	eopts := gstore.DefaultEngineOptions()
	eopts.MemoryBytes = 2 << 20
	eopts.SegmentSize = 128 << 10
	eopts.HDD = &gstore.HDDTier{Fraction: 0.5, Disks: 1, Bandwidth: 1 << 30}
	eng, err := gstore.NewEngine(g, eopts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	depths, _, err := eng.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.RefBFS(graph.NewCSR(edges, false), 0)
	for v := range depths {
		if depths[v] != want[v] {
			t.Fatalf("tiered depth[%d] = %d, want %d", v, depths[v], want[v])
		}
	}
}

func TestFacadeFsckAndStats(t *testing.T) {
	edges, err := gstore.GenerateKronecker(9, 8, 48)
	if err != nil {
		t.Fatal(err)
	}
	opts := gstore.DefaultConvertOptions()
	opts.TileBits = 5
	g, err := gstore.Convert(edges, t.TempDir(), "vs", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if r := gstore.Fsck(g.BasePath()); !r.OK() {
		t.Fatalf("Fsck: %v", r.Findings)
	}
	st := gstore.CollectStats(g)
	if st.TotalTuples != int64(len(edges.Edges)) || st.Tiles == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFacadeConvertExternal(t *testing.T) {
	edges, err := gstore.GenerateKronecker(9, 4, 49)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	edgePath := filepath.Join(dir, "edges.bin")
	if err := graph.WriteEdgeListFile(edgePath, edges); err != nil {
		t.Fatal(err)
	}
	opts := gstore.ConvertExternalOptions{}
	opts.TileBits = 5
	opts.GroupQ = 2
	opts.Symmetry = true
	opts.Degrees = true
	opts.MemoryBudget = 1 << 16
	g, err := gstore.ConvertExternal(edgePath, edges.NumVertices, false, dir, "ext", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Meta.NumStored != int64(len(edges.Edges)) {
		t.Fatalf("stored %d, want %d", g.Meta.NumStored, len(edges.Edges))
	}
	if r := gstore.Fsck(g.BasePath()); !r.OK() {
		t.Fatalf("Fsck after external convert: %v", r.Findings)
	}
}
