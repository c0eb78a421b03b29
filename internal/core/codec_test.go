package core

import (
	"context"
	"math"
	"testing"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/mem"
	"github.com/gwu-systems/gstore/internal/tile"
)

func convertCodec(t *testing.T, el *graph.EdgeList, bits uint, q uint32, codec string) *tile.Graph {
	t.Helper()
	g, err := tile.Convert(el, t.TempDir(), "g", tile.ConvertOptions{
		TileBits: bits, GroupQ: q, Symmetry: true, Codec: codec, Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// TestCodecsAgreeOnQueries is the codec acceptance test: the same graph
// stored with each tuple codec must answer BFS and WCC bit-identically
// and PageRank within 1e-9, and the v3 store must be strictly smaller
// than both fixed-width stores.
func TestCodecsAgreeOnQueries(t *testing.T) {
	el := kron(t, 11, 8, 5)
	graphs := map[string]*tile.Graph{
		"snb": convertCodec(t, el, 6, 4, "snb"),
		"raw": convertCodec(t, el, 6, 4, "raw"),
		"v3":  convertCodec(t, el, 6, 4, "v3"),
	}
	if v3, snb := graphs["v3"].DataBytes(), graphs["snb"].DataBytes(); v3 >= snb {
		t.Fatalf("v3 tiles (%d bytes) not smaller than snb (%d bytes)", v3, snb)
	}

	depths := map[string][]int32{}
	labels := map[string][]uint32{}
	ranks := map[string][]float64{}
	for name, g := range graphs {
		b := algo.NewBFS(0)
		runAlg(t, g, smallOpts(), b)
		depths[name] = b.Depths()
		w := algo.NewWCC()
		runAlg(t, g, smallOpts(), w)
		labels[name] = w.Labels()
		p := algo.NewPageRank(10)
		runAlg(t, g, smallOpts(), p)
		ranks[name] = p.Ranks()
	}
	for _, name := range []string{"raw", "v3"} {
		for v := range depths["snb"] {
			if depths[name][v] != depths["snb"][v] {
				t.Fatalf("%s: BFS depth[%d] = %d, snb says %d", name, v, depths[name][v], depths["snb"][v])
			}
			if labels[name][v] != labels["snb"][v] {
				t.Fatalf("%s: WCC label[%d] = %d, snb says %d", name, v, labels[name][v], labels["snb"][v])
			}
			if d := math.Abs(ranks[name][v] - ranks["snb"][v]); d > 1e-9 {
				t.Fatalf("%s: PageRank[%d] differs from snb by %g", name, v, d)
			}
		}
	}
}

// TestCodecV3MutateThenQuery runs the delta-layer acceptance test on a v3
// store: after mutations through the WAL-backed delta layer, queries must
// match a fresh v3 conversion of the final edge set.
func TestCodecV3MutateThenQuery(t *testing.T) {
	el := kron(t, 10, 8, 9)
	g := convertCodec(t, el, 6, 4, "v3")
	ds, err := delta.Open(g, g.BasePath(), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	baseCount := make(map[uint64]int)
	for _, e := range el.Edges {
		baseCount[canonKey(e.Src, e.Dst)]++
	}
	var ops []delta.Op
	seen := make(map[uint64]bool)
	for i := 0; i < len(el.Edges) && len(ops) < 20; i += 83 {
		e := el.Edges[i]
		k := canonKey(e.Src, e.Dst)
		if seen[k] || e.Src == e.Dst {
			continue
		}
		seen[k] = true
		ops = append(ops, delta.Op{Del: true, Src: e.Src, Dst: e.Dst})
	}
	nv := g.Meta.NumVertices
	for x := uint32(3); len(ops) < 45; x += 2654435761 % nv {
		s, d := x%nv, (x*37+11)%nv
		k := canonKey(s, d)
		if baseCount[k] > 0 || seen[k] {
			continue
		}
		seen[k] = true
		ops = append(ops, delta.Op{Src: s, Dst: d})
	}
	if _, err := ds.Apply(ops); err != nil {
		t.Fatal(err)
	}

	final := make(map[uint64]int, len(baseCount))
	for k, c := range baseCount {
		final[k] = c
	}
	for _, op := range ops {
		if op.Del {
			final[canonKey(op.Src, op.Dst)] = 0
		} else {
			final[canonKey(op.Src, op.Dst)] = 1
		}
	}
	finalEl := &graph.EdgeList{NumVertices: nv}
	for k, c := range final {
		for i := 0; i < c; i++ {
			finalEl.Edges = append(finalEl.Edges, graph.Edge{Src: uint32(k >> 32), Dst: uint32(k)})
		}
	}
	fresh := convertCodec(t, finalEl, 6, 4, "v3")

	em, err := NewEngine(g, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()
	em.SetDeltaStore(ds)

	bm, bf := algo.NewBFS(0), algo.NewBFS(0)
	stm, err := em.Run(context.Background(), bm)
	if err != nil {
		t.Fatal(err)
	}
	if stm.DeltaTiles == 0 {
		t.Fatalf("mutated v3 run reported no delta-merged tiles: %+v", stm)
	}
	runAlg(t, fresh, smallOpts(), bf)
	for v := range bm.Depths() {
		if bm.Depths()[v] != bf.Depths()[v] {
			t.Fatalf("BFS depth[%d]: mutated v3 %d, fresh v3 %d", v, bm.Depths()[v], bf.Depths()[v])
		}
	}

	pm, pf := algo.NewPageRank(10), algo.NewPageRank(10)
	if _, err := em.Run(context.Background(), pm); err != nil {
		t.Fatal(err)
	}
	runAlg(t, fresh, smallOpts(), pf)
	for v := range pm.Ranks() {
		if d := math.Abs(pm.Ranks()[v] - pf.Ranks()[v]); d > 1e-9 {
			t.Fatalf("PageRank[%d]: mutated v3 differs from fresh by %g", v, d)
		}
	}
}

// TestConvertFsckRunMutateRoundTrip drives every codec through the full
// lifecycle — convert, offline fsck, query, mutate through the WAL-backed
// delta layer, query again, fsck again — and requires all codecs to agree
// with the snb reference at each step.
func TestConvertFsckRunMutateRoundTrip(t *testing.T) {
	el := kron(t, 10, 8, 21)
	ops := []delta.Op{
		{Src: 1, Dst: 2},
		{Del: true, Src: el.Edges[0].Src, Dst: el.Edges[0].Dst},
		{Src: 5, Dst: 900},
		{Del: true, Src: el.Edges[len(el.Edges)/2].Src, Dst: el.Edges[len(el.Edges)/2].Dst},
	}
	before := map[string][]int32{}
	after := map[string][]int32{}
	for _, codec := range []string{"snb", "raw", "v3"} {
		g := convertCodec(t, el, 5, 2, codec)
		if r := tile.Fsck(g.BasePath()); !r.OK() {
			t.Fatalf("%s: fsck after convert: %v", codec, r.Findings)
		}
		b := algo.NewBFS(0)
		runAlg(t, g, smallOpts(), b)
		before[codec] = b.Depths()

		ds, err := delta.Open(g, g.BasePath(), delta.Options{})
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if _, err := ds.Apply(ops); err != nil {
			t.Fatalf("%s: apply: %v", codec, err)
		}
		e, err := NewEngine(g, smallOpts())
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		e.SetDeltaStore(ds)
		bm := algo.NewBFS(0)
		if _, err := e.Run(context.Background(), bm); err != nil {
			t.Fatalf("%s: mutated run: %v", codec, err)
		}
		after[codec] = bm.Depths()
		e.Close()
		if err := ds.Close(); err != nil {
			t.Fatalf("%s: close: %v", codec, err)
		}
		if r := tile.Fsck(g.BasePath()); !r.OK() {
			t.Fatalf("%s: fsck after mutate: %v", codec, r.Findings)
		}
	}
	for _, codec := range []string{"raw", "v3"} {
		for v := range before["snb"] {
			if before[codec][v] != before["snb"][v] {
				t.Fatalf("%s: pristine depth[%d] = %d, snb says %d",
					codec, v, before[codec][v], before["snb"][v])
			}
			if after[codec][v] != after["snb"][v] {
				t.Fatalf("%s: mutated depth[%d] = %d, snb says %d",
					codec, v, after[codec][v], after["snb"][v])
			}
		}
	}
}

// TestUnattributedBytesCounted pins the shared-fetch accounting fix: a
// fetched tile whose interested runs all finished before dispatch must
// land on the engine's unattributed counter instead of disappearing.
func TestUnattributedBytesCounted(t *testing.T) {
	el := kron(t, 9, 8, 3)
	g := convert(t, el, 6, 4)
	e, err := NewEngine(g, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	r := &runState{finished: true, stats: &Stats{}}
	grp := &e.groups[0]
	grp.begin()
	ref := mem.TileRef{DiskIdx: 0, Row: 0, Col: 0, Data: make([]byte, 64)}
	if err := e.dispatchTile([]*runState{r}, 1, ref, 4096, grp, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := grp.finish(); err != nil {
		t.Fatal(err)
	}
	if got := e.Counters().UnattributedBytes; got != 4096 {
		t.Fatalf("UnattributedBytes = %d, want 4096", got)
	}
	// A dispatch with a live interested run charges the run, not the
	// engine counter.
	live := &runState{stats: &Stats{}, ctx: context.Background(), alg: algo.NewWCC()}
	if err := live.alg.Init(&algo.Context{
		NumVertices: g.Meta.NumVertices, Layout: g.Layout,
		Half: g.Meta.Half, Workers: e.opts.Threads,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := g.ReadTile(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Layout.CoordAt(0)
	ref = mem.TileRef{DiskIdx: 0, Row: c.Row, Col: c.Col, Data: data}
	grp.begin()
	if err := e.dispatchTile([]*runState{live}, 1, ref, 512, grp, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := grp.finish(); err != nil {
		t.Fatal(err)
	}
	if got := e.Counters().UnattributedBytes; got != 4096 {
		t.Fatalf("live dispatch leaked %d unattributed bytes", got-4096)
	}
	if live.bytesFrac != 512 {
		t.Fatalf("live run charged %v bytes, want 512", live.bytesFrac)
	}
}
