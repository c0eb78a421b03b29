package core

import (
	"context"
	"math"
	"os"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

func convert(t *testing.T, el *graph.EdgeList, bits uint, q uint32) *tile.Graph {
	t.Helper()
	g, err := tile.Convert(el, t.TempDir(), "g", tile.ConvertOptions{
		TileBits: bits, GroupQ: q, Symmetry: true, Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func smallOpts() Options {
	o := DefaultOptions()
	o.MemoryBytes = 1 << 20
	o.SegmentSize = 64 << 10
	o.Threads = 4
	return o
}

func runAlg(t *testing.T, g *tile.Graph, opts Options, a algo.Algorithm) *Stats {
	t.Helper()
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	st, err := e.Run(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func kron(t *testing.T, scale uint, ef int, seed uint64) *graph.EdgeList {
	t.Helper()
	el, err := gen.Generate(gen.Graph500Config(scale, ef, seed))
	if err != nil {
		t.Fatal(err)
	}
	return el
}

func TestEngineBFSMatchesReference(t *testing.T) {
	el := kron(t, 11, 8, 1)
	g := convert(t, el, 6, 4)
	b := algo.NewBFS(0)
	st := runAlg(t, g, smallOpts(), b)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
	if st.Iterations < 2 {
		t.Fatalf("BFS converged suspiciously fast: %d iterations", st.Iterations)
	}
	if st.TilesProcessed == 0 || st.BytesRead == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestEnginePageRankMatchesReference(t *testing.T) {
	el := kron(t, 10, 8, 2)
	g := convert(t, el, 6, 4)
	iters := 10
	p := algo.NewPageRank(iters)
	st := runAlg(t, g, smallOpts(), p)
	if st.Iterations != iters {
		t.Fatalf("iterations = %d, want %d", st.Iterations, iters)
	}
	want := graph.RefPageRank(graph.NewCSR(el, false), graph.DefaultPageRank(iters))
	for v, r := range p.Ranks() {
		if math.Abs(r-want[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want %v", v, r, want[v])
		}
	}
}

func TestEngineWCCMatchesReference(t *testing.T) {
	el := kron(t, 11, 2, 3)
	g := convert(t, el, 6, 4)
	w := algo.NewWCC()
	runAlg(t, g, smallOpts(), w)
	want := graph.RefWCC(el)
	for v, l := range w.Labels() {
		if l != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, l, want[v])
		}
	}
}

func TestEngineDirectedGraph(t *testing.T) {
	el, err := gen.Generate(gen.TwitterLikeConfig(10, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	g, err := tile.Convert(el, t.TempDir(), "d", tile.ConvertOptions{
		TileBits: 6, GroupQ: 4, Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	b := algo.NewBFS(0)
	runAlg(t, g, smallOpts(), b)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
}

// All cache policies and I/O modes must give identical results; only
// performance differs.
func TestEnginePolicyEquivalence(t *testing.T) {
	el := kron(t, 10, 4, 5)
	g := convert(t, el, 6, 4)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)

	cases := []struct {
		name string
		mod  func(*Options)
	}{
		{"proactive", func(o *Options) { o.Cache = CacheProactive }},
		{"lru", func(o *Options) { o.Cache = CacheLRU }},
		{"none", func(o *Options) { o.Cache = CacheNone }},
		{"sync-io", func(o *Options) { o.SyncIO = true }},
		{"no-selective", func(o *Options) { o.Selective = false }},
		{"one-thread", func(o *Options) { o.Threads = 1 }},
		{"one-disk", func(o *Options) { o.Disks = 1 }},
		{"tiny-memory", func(o *Options) { o.MemoryBytes = 128 << 10; o.SegmentSize = 64 << 10 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOpts()
			tc.mod(&opts)
			b := algo.NewBFS(0)
			runAlg(t, g, opts, b)
			for v, d := range b.Depths() {
				if d != want[v] {
					t.Fatalf("policy %s: depth[%d] = %d, want %d", tc.name, v, d, want[v])
				}
			}
		})
	}
}

// Proactive caching must reduce bytes read across PageRank iterations
// when the pool can hold the graph: iterations 2..n should come from
// cache.
func TestProactiveCachingCutsIO(t *testing.T) {
	el := kron(t, 10, 8, 6)
	g := convert(t, el, 6, 4)

	opts := smallOpts()
	opts.MemoryBytes = 8 << 20 // plenty: whole graph fits in the pool
	p1 := algo.NewPageRank(5)
	cached := runAlg(t, g, opts, p1)

	opts2 := smallOpts()
	opts2.Cache = CacheNone
	p2 := algo.NewPageRank(5)
	uncached := runAlg(t, g, opts2, p2)

	if cached.BytesRead >= uncached.BytesRead {
		t.Fatalf("proactive caching did not cut I/O: %d vs %d bytes",
			cached.BytesRead, uncached.BytesRead)
	}
	// With the whole graph cached, later iterations read nothing: total
	// reads should be about one graph's worth vs five.
	if cached.BytesRead > uncached.BytesRead/3 {
		t.Fatalf("expected ~5x read reduction, got %d vs %d",
			cached.BytesRead, uncached.BytesRead)
	}
	if cached.TilesFromCache == 0 {
		t.Fatal("no cache hits recorded")
	}
}

// Selective fetching must cut BFS I/O relative to reading everything.
func TestSelectiveFetchingCutsIO(t *testing.T) {
	// Path graph: huge diameter, tiny frontier.
	n := uint32(1 << 10)
	el := &graph.EdgeList{NumVertices: n}
	for v := uint32(0); v+1 < n; v++ {
		el.Edges = append(el.Edges, graph.Edge{Src: v, Dst: v + 1})
	}
	g := convert(t, el, 5, 2)

	opts := smallOpts()
	opts.Cache = CacheNone
	sel := runAlg(t, g, opts, algo.NewBFS(0))

	opts.Selective = false
	all := runAlg(t, g, opts, algo.NewBFS(0))

	if sel.BytesRead*4 > all.BytesRead {
		t.Fatalf("selective fetching saved too little: %d vs %d bytes",
			sel.BytesRead, all.BytesRead)
	}
	if sel.TilesSkipped == 0 {
		t.Fatal("no tiles skipped")
	}
}

func TestEngineSegmentTooSmall(t *testing.T) {
	el := kron(t, 10, 8, 7)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.SegmentSize = 64 // smaller than the largest tile
	opts.MemoryBytes = 128
	if _, err := NewEngine(g, opts); err == nil {
		t.Fatal("engine accepted a memory budget below two tile-sized segments")
	}
	// With enough memory the engine grows the segments instead.
	opts.MemoryBytes = 1 << 20
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatalf("engine did not auto-grow segments: %v", err)
	}
	e.Close()
}

// A budget far above the graph is a ceiling, not an allocation: on a
// kron-12 graph (256 KiB of tiles) the default 64 MiB budget yields a pool
// and segments of the graph's size, and a BFS → PageRank → BFS sequence
// fetches, caches, reads, copies and evicts exactly what it did when the
// engine reserved the whole budget (the counts were recorded with a
// 48 MiB pool and 8 MiB segments, under both retention policies).
func TestEngineSizesMemoryToGraph(t *testing.T) {
	g := convert(t, kron(t, 12, 16, 3), 6, 4)
	type counts struct {
		fetched, fromCache, bytes, requests, copied, evicted int64
	}
	want := []counts{
		{1651, 672, 262144, 32, 262144, 0},
		{1651, 6604, 262144, 1, 524288, 0},
		{1651, 1099, 262144, 448, 786432, 0},
	}
	for _, policy := range []CachePolicy{CacheProactive, CacheLRU} {
		opts := DefaultOptions()
		opts.Threads = 2
		opts.Cache = policy
		e, err := NewEngine(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if data := g.DataBytes(); e.mm.PoolCap() != data || e.mm.SegmentSize() != data {
			t.Fatalf("%v: pool %d, segments %d; want both capped at the graph's %d tile bytes",
				policy, e.mm.PoolCap(), e.mm.SegmentSize(), data)
		}
		for i, a := range []algo.Algorithm{algo.NewBFS(0), algo.NewPageRank(5), algo.NewBFS(77)} {
			st, err := e.Run(context.Background(), a)
			if err != nil {
				t.Fatal(err)
			}
			got := counts{st.TilesFetched, st.TilesFromCache, st.BytesRead, st.IORequests,
				st.Mem.CopiedBytes, st.Mem.EvictedTiles}
			if got != want[i] {
				t.Fatalf("%v run %d (%s): %+v, want %+v", policy, i, a.Name(), got, want[i])
			}
		}
	}
}

func TestEngineReadFailure(t *testing.T) {
	el := kron(t, 9, 4, 8)
	g := convert(t, el, 5, 2)
	e, err := NewEngine(g, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Truncate the tiles file behind the engine's back: reads past the
	// new EOF must surface as run errors, not corrupt results.
	if err := os.Truncate(g.BasePath()+".tiles", 16); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), algo.NewBFS(0)); err == nil {
		t.Fatal("engine ignored read failure")
	}
}

func TestEngineThrottledRun(t *testing.T) {
	el := kron(t, 10, 4, 9)
	g := convert(t, el, 6, 4)
	opts := smallOpts()
	opts.Cache = CacheNone
	opts.Bandwidth = 200 << 20
	opts.Latency = 50 * time.Microsecond
	opts.Disks = 2
	b := algo.NewBFS(0)
	st := runAlg(t, g, opts, b)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
	if st.Storage.BusyTime == 0 {
		t.Fatal("throttle model charged no busy time")
	}
}

func TestStatsMTEPS(t *testing.T) {
	s := Stats{Elapsed: time.Second}
	if got := s.MTEPS(2_000_000); got != 2 {
		t.Fatalf("MTEPS = %v", got)
	}
	var zero Stats
	if zero.MTEPS(100) != 0 {
		t.Fatal("zero-elapsed MTEPS should be 0")
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{SegmentSize: 0, MemoryBytes: 100}
	if err := o.normalize(); err != nil {
		t.Fatal(err)
	}
	if o.SegmentSize != 12 {
		t.Fatalf("zero segment size should derive memory/8 = 12, got %d", o.SegmentSize)
	}
	o = Options{SegmentSize: -1, MemoryBytes: 100}
	if err := o.normalize(); err == nil {
		t.Fatal("negative segment size accepted")
	}
	o = Options{SegmentSize: 0, MemoryBytes: -100}
	if err := o.normalize(); err == nil {
		t.Fatal("negative memory accepted")
	}
	o = Options{SegmentSize: 0, MemoryBytes: 7}
	if err := o.normalize(); err == nil {
		t.Fatal("memory too small for a segment accepted")
	}
	o = Options{SegmentSize: 100, MemoryBytes: 100}
	if err := o.normalize(); err == nil {
		t.Fatal("memory < 2 segments accepted")
	}
	o = Options{SegmentSize: 50, MemoryBytes: 1000, Cache: CacheNone}
	if err := o.normalize(); err != nil {
		t.Fatal(err)
	}
	if o.SegmentSize != 500 {
		t.Fatalf("CacheNone should split memory in two segments, got %d", o.SegmentSize)
	}
	if o.Threads <= 0 || o.chunkBytes <= 0 || o.retryBackoff <= 0 || o.Disks <= 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
}

// TestNewEngineDerivesMemory: a zero budget is the paper's semi-external
// regime, a quarter of the graph's tile bytes with a 1 MiB floor, and a
// zero segment an eighth of the budget.
func TestNewEngineDerivesMemory(t *testing.T) {
	for _, tc := range []struct {
		name      string
		g         *tile.Graph
		wantLarge bool
	}{
		{"small", convertCodec(t, kron(t, 13, 8, 3), 6, 4, "raw"), false},
		{"large", convertCodec(t, kron(t, 16, 10, 3), 8, 16, "raw"), true},
	} {
		data := tc.g.DataBytes()
		if large := data/4 > 1<<20; large != tc.wantLarge {
			t.Fatalf("%s: graph has %d tile bytes, want large=%v", tc.name, data, tc.wantLarge)
		}
		e, err := NewEngine(tc.g, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		budget := int64(1 << 20)
		if tc.wantLarge {
			budget = data / 4
		}
		seg := budget / 8
		pool := min(budget-2*seg, data)
		if e.mm.SegmentSize() != seg || e.mm.PoolCap() != pool {
			t.Errorf("%s (%d tile bytes): segments %d, pool %d; want %d and %d from a %d-byte budget",
				tc.name, data, e.mm.SegmentSize(), e.mm.PoolCap(), seg, pool, budget)
		}
		e.Close()
	}
}

func TestCachePolicyString(t *testing.T) {
	if CacheProactive.String() != "proactive" || CacheLRU.String() != "lru" ||
		CacheNone.String() != "none" {
		t.Fatal("CachePolicy strings wrong")
	}
}

// Reusing one engine for several runs must work (the harness does this).
func TestEngineReuse(t *testing.T) {
	el := kron(t, 10, 4, 10)
	g := convert(t, el, 6, 4)
	e, err := NewEngine(g, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	wantD := graph.RefBFS(graph.NewCSR(el, false), 0)
	for round := 0; round < 3; round++ {
		b := algo.NewBFS(0)
		if _, err := e.Run(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		for v, d := range b.Depths() {
			if d != wantD[v] {
				t.Fatalf("round %d: depth[%d] = %d, want %d", round, v, d, wantD[v])
			}
		}
	}
	w := algo.NewWCC()
	if _, err := e.Run(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	wantL := graph.RefWCC(el)
	for v, l := range w.Labels() {
		if l != wantL[v] {
			t.Fatalf("label[%d] = %d, want %d", v, l, wantL[v])
		}
	}
}
