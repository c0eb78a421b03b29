package delta

import (
	"bytes"
	"testing"

	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

func convertV3(t *testing.T, el *graph.EdgeList, name string) (*tile.Graph, string) {
	t.Helper()
	dir := t.TempDir()
	if !el.Directed {
		el.Canonicalize()
	}
	g, err := tile.Convert(el, dir, name, tile.ConvertOptions{
		TileBits: 2, GroupQ: 2, Symmetry: true, Codec: "v3", Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, tile.BasePath(dir, name)
}

// TestV3MergeMatchesFreshConversionBits pins the strongest v3 merge
// property: merging a tile's delta over its base blocks must produce the
// exact bytes a fresh v3 conversion of the mutated edge list would store
// for that tile (both paths sort and re-encode, so bit identity holds).
func TestV3MergeMatchesFreshConversionBits(t *testing.T) {
	el := undirected(t)
	g, base := convertV3(t, el, "v3mut")
	s, err := Open(g, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ops := []Op{
		{Src: 9, Dst: 2},
		{Del: true, Src: 10, Dst: 5},
		{Del: true, Src: 7, Dst: 8},
		{Src: 11, Dst: 11},
	}
	if _, err := s.Apply(ops); err != nil {
		t.Fatal(err)
	}
	want := &graph.EdgeList{NumVertices: 12, Edges: []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 5}, {Src: 1, Dst: 6}, {Src: 2, Dst: 3},
		{Src: 4, Dst: 9}, {Src: 3, Dst: 11}, {Src: 6, Dst: 6},
		{Src: 2, Dst: 9}, {Src: 11, Dst: 11},
	}}
	fresh, _ := convertV3(t, want, "v3fresh")

	v := s.View()
	var buf, fbuf []byte
	for i := 0; i < g.Layout.NumTiles(); i++ {
		data, err := g.ReadTile(i, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = data
		merged := data
		if td := v.Tile(i); td != nil {
			c := g.Layout.CoordAt(i)
			rb, _ := g.Layout.VertexRange(c.Row)
			cb, _ := g.Layout.VertexRange(c.Col)
			merged, err = td.Merge(data, tile.CodecV3, g.Layout.TileBits, rb, cb)
			if err != nil {
				t.Fatal(err)
			}
		}
		fdata, err := fresh.ReadTile(i, fbuf)
		if err != nil {
			t.Fatal(err)
		}
		fbuf = fdata
		if !bytes.Equal(merged, fdata) {
			t.Fatalf("tile %d: merged v3 bytes differ from fresh conversion (%d vs %d bytes)",
				i, len(merged), len(fdata))
		}
	}
	sameEdges(t, effectiveEdges(t, g, v), storedSet(want, true))
}

// TestMergeCachesPerGeneration pins the per-dispatch allocation fix:
// repeated Merge calls on one TileDelta return the same buffer, and the
// pristine base data is never written to.
func TestMergeCachesPerGeneration(t *testing.T) {
	el := undirected(t)
	g, base := convert(t, el, "cache")
	s, err := Open(g, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Apply([]Op{{Src: 9, Dst: 2}, {Del: true, Src: 0, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	v := s.View()
	merged := 0
	for i := 0; i < g.Layout.NumTiles(); i++ {
		td := v.Tile(i)
		if td == nil {
			continue
		}
		data, err := g.ReadTile(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		pristine := append([]byte(nil), data...)
		c := g.Layout.CoordAt(i)
		rb, _ := g.Layout.VertexRange(c.Row)
		cb, _ := g.Layout.VertexRange(c.Col)
		a, err := td.Merge(data, g.Meta.TupleCodec(), g.Layout.TileBits, rb, cb)
		if err != nil {
			t.Fatal(err)
		}
		b, err := td.Merge(data, g.Meta.TupleCodec(), g.Layout.TileBits, rb, cb)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) > 0 && &a[0] != &b[0] {
			t.Fatalf("tile %d: second Merge reallocated instead of reusing the cache", i)
		}
		if !bytes.Equal(data, pristine) {
			t.Fatalf("tile %d: Merge mutated the pristine base data", i)
		}
		merged++
	}
	if merged == 0 {
		t.Fatal("no delta tiles exercised")
	}

	// A new view generation builds a new TileDelta, so its cache starts
	// empty and reflects the new state — stale merges can never leak.
	if _, err := s.Apply([]Op{{Del: true, Src: 2, Dst: 3}}); err != nil {
		t.Fatal(err)
	}
	sameEdges(t, effectiveEdges(t, g, s.View()), storedSet(&graph.EdgeList{
		NumVertices: 12, Edges: []graph.Edge{
			{Src: 0, Dst: 5}, {Src: 1, Dst: 6},
			{Src: 4, Dst: 9}, {Src: 5, Dst: 10}, {Src: 7, Dst: 8}, {Src: 3, Dst: 11},
			{Src: 6, Dst: 6}, {Src: 2, Dst: 9},
		}}, true))
}

// TestMergeRejectsTruncatedBase pins the truncation fix: a fixed-width
// base buffer with a trailing partial tuple must surface as corruption,
// not be silently dropped.
func TestMergeRejectsTruncatedBase(t *testing.T) {
	td := newTileDelta([]uint64{key(1, 2)}, []bool{true}, tile.CodecSNB, 3)

	base := make([]byte, 4*tile.SNBTupleBytes)
	if _, err := td.Merge(base, tile.CodecSNB, 2, 0, 0); err != nil {
		t.Fatalf("aligned base rejected: %v", err)
	}
	td2 := newTileDelta([]uint64{key(1, 2)}, []bool{true}, tile.CodecSNB, 3)
	if _, err := td2.Merge(base[:len(base)-1], tile.CodecSNB, 2, 0, 0); err == nil {
		t.Fatal("truncated SNB base accepted")
	}
	td3 := newTileDelta([]uint64{key(1, 2)}, []bool{true}, tile.CodecRaw, 3)
	if _, err := td3.Merge(make([]byte, 13), tile.CodecRaw, 2, 0, 0); err == nil {
		t.Fatal("truncated raw base accepted")
	}
	// Corrupt v3 framing must surface too.
	td4 := newTileDelta([]uint64{key(1, 2)}, []bool{true}, tile.CodecV3, 3)
	if _, err := td4.Merge([]byte{0xff, 0x01}, tile.CodecV3, 2, 0, 0); err == nil {
		t.Fatal("corrupt v3 base accepted")
	}
}
