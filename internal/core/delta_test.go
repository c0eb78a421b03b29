package core

import (
	"context"
	"math"
	"testing"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/graph"
)

func canonKey(s, d uint32) uint64 {
	if s > d {
		s, d = d, s
	}
	return uint64(s)<<32 | uint64(d)
}

// TestMutateThenQueryMatchesFreshConversion is the write-path acceptance
// test: a graph mutated through the delta layer must answer BFS and WCC
// bit-identically — and PageRank within 1e-9 — to a fresh conversion of
// the same final edge set.
func TestMutateThenQueryMatchesFreshConversion(t *testing.T) {
	el := kron(t, 10, 8, 7)
	g := convert(t, el, 6, 4)
	ds, err := delta.Open(g, g.BasePath(), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	// Canonical multiset of the base edges (half-stored layout).
	baseCount := make(map[uint64]int)
	for _, e := range el.Edges {
		baseCount[canonKey(e.Src, e.Dst)]++
	}

	// Deletes: a deterministic sample of existing edges. Inserts: probed
	// pairs absent from the base. One deleted edge is re-inserted in a
	// later batch, and one insert lands in a tile the base left empty.
	var dels, ins []delta.Op
	seen := make(map[uint64]bool)
	for i := 0; i < len(el.Edges) && len(dels) < 25; i += 97 {
		e := el.Edges[i]
		k := canonKey(e.Src, e.Dst)
		if seen[k] || e.Src == e.Dst {
			continue
		}
		seen[k] = true
		dels = append(dels, delta.Op{Del: true, Src: e.Dst, Dst: e.Src})
	}
	nv := g.Meta.NumVertices
	for x := uint32(1); len(ins) < 25; x += 2654435761 % nv {
		s, d := x%nv, (x*31+7)%nv
		k := canonKey(s, d)
		if baseCount[k] > 0 || seen[k] {
			continue
		}
		seen[k] = true
		ins = append(ins, delta.Op{Src: s, Dst: d})
	}
	for i := 0; i < g.Layout.NumTiles(); i++ {
		if g.TupleCount(i) != 0 {
			continue
		}
		c := g.Layout.CoordAt(i)
		rLo, _ := g.Layout.VertexRange(c.Row)
		cLo, _ := g.Layout.VertexRange(c.Col)
		if k := canonKey(rLo, cLo); !seen[k] {
			seen[k] = true
			ins = append(ins, delta.Op{Src: rLo, Dst: cLo})
			break
		}
	}
	reinsert := delta.Op{Src: dels[0].Dst, Dst: dels[0].Src}

	batches := [][]delta.Op{dels, ins, {reinsert}}
	for _, b := range batches {
		if _, err := ds.Apply(b); err != nil {
			t.Fatal(err)
		}
	}

	// The equivalent final edge multiset: deletes to zero, inserts to
	// exactly one, last write wins.
	final := make(map[uint64]int, len(baseCount))
	for k, c := range baseCount {
		final[k] = c
	}
	for _, b := range batches {
		for _, op := range b {
			if op.Del {
				final[canonKey(op.Src, op.Dst)] = 0
			} else {
				final[canonKey(op.Src, op.Dst)] = 1
			}
		}
	}
	finalEl := &graph.EdgeList{NumVertices: nv}
	for k, c := range final {
		for i := 0; i < c; i++ {
			finalEl.Edges = append(finalEl.Edges, graph.Edge{Src: uint32(k >> 32), Dst: uint32(k)})
		}
	}
	fresh := convert(t, finalEl, 6, 4)

	em, err := NewEngine(g, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()
	em.SetDeltaStore(ds)

	// BFS: exact depths.
	bm, bf := algo.NewBFS(0), algo.NewBFS(0)
	stm, err := em.Run(context.Background(), bm)
	if err != nil {
		t.Fatal(err)
	}
	if stm.DeltaTiles == 0 {
		t.Fatalf("mutated run reported no delta-merged tiles: %+v", stm)
	}
	runAlg(t, fresh, smallOpts(), bf)
	for v := range bm.Depths() {
		if bm.Depths()[v] != bf.Depths()[v] {
			t.Fatalf("BFS depth[%d]: mutated %d, fresh %d", v, bm.Depths()[v], bf.Depths()[v])
		}
	}

	// WCC: exact labels, under every cache policy: the delta-only tile
	// rides the rewind even when the base policy leaves the pool empty.
	wf := algo.NewWCC()
	runAlg(t, fresh, smallOpts(), wf)
	for _, policy := range []CachePolicy{CacheProactive, CacheNone} {
		opts := smallOpts()
		opts.Cache = policy
		e, err := NewEngine(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		e.SetDeltaStore(ds)
		wm := algo.NewWCC()
		_, err = e.Run(context.Background(), wm)
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		for v := range wm.Labels() {
			if wm.Labels()[v] != wf.Labels()[v] {
				t.Fatalf("%v: WCC label[%d]: mutated %d, fresh %d", policy, v, wm.Labels()[v], wf.Labels()[v])
			}
		}
	}

	// PageRank: 1e-9 (summation order differs between the merged tile
	// stream and the fresh conversion's layout).
	pm, pf := algo.NewPageRank(20), algo.NewPageRank(20)
	if _, err := em.Run(context.Background(), pm); err != nil {
		t.Fatal(err)
	}
	runAlg(t, fresh, smallOpts(), pf)
	for v := range pm.Ranks() {
		if d := math.Abs(pm.Ranks()[v] - pf.Ranks()[v]); d > 1e-9 {
			t.Fatalf("PageRank[%d]: mutated %g, fresh %g (|Δ|=%g)", v, pm.Ranks()[v], pf.Ranks()[v], d)
		}
	}
}

// TestDeltaVisibleAtIterationBoundary pins the visibility contract:
// a batch applied between two runs is seen by the second run even on a
// warm engine, because each sweep iteration captures the store's
// current view.
func TestDeltaVisibleBetweenRuns(t *testing.T) {
	el := kron(t, 9, 8, 3)
	g := convert(t, el, 6, 4)
	ds, err := delta.Open(g, g.BasePath(), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	e, err := NewEngine(g, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetDeltaStore(ds)

	w1 := algo.NewWCC()
	if _, err := e.Run(context.Background(), w1); err != nil {
		t.Fatal(err)
	}
	// Bridge every component to vertex 0: afterwards WCC must be a
	// single component.
	labels := w1.Labels()
	var ops []delta.Op
	rootSeen := map[uint32]bool{}
	for v, l := range labels {
		if !rootSeen[l] {
			rootSeen[l] = true
			if uint32(v) != 0 {
				ops = append(ops, delta.Op{Src: 0, Dst: uint32(v)})
			}
		}
	}
	if _, err := ds.Apply(ops); err != nil {
		t.Fatal(err)
	}
	w2 := algo.NewWCC()
	if _, err := e.Run(context.Background(), w2); err != nil {
		t.Fatal(err)
	}
	for v, l := range w2.Labels() {
		if l != 0 {
			t.Fatalf("vertex %d still labeled %d after bridging all components to 0", v, l)
		}
	}
}

// TestDeltaReadAllocsMatchPristine pins that a mutated tile is read in
// edge space, with no buffer per tile: applying a toggling batch to the
// attached store and running PageRank(2) must allocate within a small
// constant of the same Apply on a store the engine does not read followed
// by a run on the pristine graph.
func TestDeltaReadAllocsMatchPristine(t *testing.T) {
	el := kron(t, 11, 8, 77)
	step := func(attached bool) func() {
		g := convertCodec(t, el, 6, 4, "v3")
		ds, err := delta.Open(g, g.BasePath(), delta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		e, err := NewEngine(g, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		if attached {
			e.SetDeltaStore(ds)
		}
		// Edges spread across the vertex range so many tiles carry deltas.
		nv := g.Meta.NumVertices
		ops := make([]delta.Op, 128)
		for i := range ops {
			ops[i] = delta.Op{Src: uint32(i*131) % nv, Dst: uint32(i*197+7) % nv}
		}
		i := 0
		return func() {
			for j := range ops {
				ops[j].Del = i%2 == 0
			}
			i++
			if _, err := ds.Apply(ops); err != nil {
				t.Fatal(err)
			}
			st, err := e.Run(context.Background(), algo.NewPageRank(2))
			if err != nil {
				t.Fatal(err)
			}
			if attached && st.DeltaTiles == 0 {
				t.Fatal("no tile was read with its delta")
			}
		}
	}
	mutated := testing.AllocsPerRun(20, step(true))
	pristine := testing.AllocsPerRun(20, step(false))
	t.Logf("allocs per Apply+Run: %.0f read through the delta, %.0f pristine", mutated, pristine)
	if mutated > pristine+8 {
		t.Fatalf("reading through the delta allocates %.0f per Apply+Run, the pristine graph %.0f", mutated, pristine)
	}
}
