package delta

import (
	"bytes"
	"slices"
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

// TestMergeLeavesBasePristine pins that Merge never writes to the base
// bytes it is given, so pooled cache bytes stay the checksum-verified
// base data, and that a new view generation's deltas reflect the new
// state.
func TestMergeLeavesBasePristine(t *testing.T) {
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
		if _, err := td.Merge(data, g.Meta.TupleCodec(), g.Layout.TileBits, rb, cb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, pristine) {
			t.Fatalf("tile %d: Merge mutated the pristine base data", i)
		}
		merged++
	}
	if merged == 0 {
		t.Fatal("no delta tiles exercised")
	}

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
	td := &TileDelta{keys: []uint64{key(1, 2)}, present: []bool{true}, bits: 2}

	base := make([]byte, 4*tile.SNBTupleBytes)
	if _, err := td.Merge(base, tile.CodecSNB, 2, 0, 0); err != nil {
		t.Fatalf("aligned base rejected: %v", err)
	}
	td2 := &TileDelta{keys: []uint64{key(1, 2)}, present: []bool{true}, bits: 2}
	if _, err := td2.Merge(base[:len(base)-1], tile.CodecSNB, 2, 0, 0); err == nil {
		t.Fatal("truncated SNB base accepted")
	}
	td3 := &TileDelta{keys: []uint64{key(1, 2)}, present: []bool{true}, bits: 2}
	if _, err := td3.Merge(make([]byte, 13), tile.CodecRaw, 2, 0, 0); err == nil {
		t.Fatal("truncated raw base accepted")
	}
	// So must a base that ends before the last masked position.
	td5 := &TileDelta{keys: []uint64{key(1, 2)}, present: []bool{true}, masked: []int{4}, bits: 2}
	if _, err := td5.Merge(base, tile.CodecSNB, 2, 0, 0); err == nil {
		t.Fatal("masked position past the base accepted")
	}
	// Corrupt v3 framing must surface too.
	td4 := &TileDelta{keys: []uint64{key(1, 2)}, present: []bool{true}, bits: 2}
	if _, err := td4.Merge([]byte{0xff, 0x01}, tile.CodecV3, 2, 0, 0); err == nil {
		t.Fatal("corrupt v3 base accepted")
	}
}

// TestCountBaseBlockChoice checks the v3 write path's block choice: the
// base count of a key, taken only from the blocks whose head range can
// hold it, must equal a count over the whole tile. Keys are counted one
// at a time, so no other key can make a block decode, and then all at
// once.
func TestCountBaseBlockChoice(t *testing.T) {
	// A tile's tuples as indexes into its 64×64 offset square (source
	// offset = i/64, destination offset = i%64), in sorted order.
	spread := func(n, from int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = from + 3*i // gaps, so a head's neighbours are absent
		}
		return out
	}
	const x = 1270 // the key of the block-filling run below
	cases := []struct {
		name   string
		tuples []int
	}{
		{"one block", spread(100, 70)},
		{"exactly two blocks", spread(2*tile.V3BlockTuples, 70)},
		{"key twice across a boundary", func() []int {
			s := spread(1100, 70)
			s[tile.V3BlockTuples] = s[tile.V3BlockTuples-1]
			return s
		}()},
		{"one key fills a block", func() []int {
			s := spread(400, 70)
			for range 700 {
				s = append(s, x)
			}
			return append(s, spread(200, x+3)...)
		}()},
	}
	for _, mode := range []string{"half", "directed"} {
		for _, tc := range cases {
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				// Tile (0, 1): sources 0..63, destinations 64..127, stored
				// as given in both layouts.
				el := &graph.EdgeList{NumVertices: 128, Directed: mode == "directed"}
				for _, i := range tc.tuples {
					el.Edges = append(el.Edges, graph.Edge{Src: uint32(i / 64), Dst: 64 + uint32(i%64)})
				}
				dir := t.TempDir()
				g, err := tile.Convert(el, dir, "b", tile.ConvertOptions{
					TileBits: 6, GroupQ: 2, Symmetry: mode == "half", Codec: "v3", Degrees: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer g.Close()
				s, err := Open(g, tile.BasePath(dir, "b"), Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				di := g.Layout.DiskIndex(0, 1)
				data, err := g.ReadTile(di, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := make(map[uint64]uint32)
				if err := tile.DecodeTuples(data, tile.CodecV3, 0, 64, func(s, d uint32) {
					want[key(s, d)]++
				}); err != nil {
					t.Fatal(err)
				}
				at := func(i int) uint64 { return key(uint32(i/64), 64+uint32(i%64)) }
				last := tc.tuples[len(tc.tuples)-1]
				probes := []uint64{at(0), at(tc.tuples[0] - 1), at(last), at(last + 1), at(64*64 - 1), at(x)}
				for rest := data; len(rest) > 0; {
					src, dst, next, err := tile.V3BlockHead(rest, 0, 64)
					if err != nil {
						t.Fatal(err)
					}
					h := key(src, dst)
					probes = append(probes, h-1, h, h+1)
					rest = next
				}
				for _, i := range []int{1, 100, tile.V3BlockTuples - 1, tile.V3BlockTuples, len(tc.tuples) - 2} {
					if i < len(tc.tuples) {
						probes = append(probes, at(tc.tuples[i]))
					}
				}
				for _, k := range probes {
					counts, err := s.countBase(di, []uint64{k})
					if err != nil {
						t.Fatal(err)
					}
					if counts[0] != want[k] {
						t.Fatalf("key (%d, %d) alone: counted %d, the whole tile holds %d",
							uint32(k>>32), uint32(k), counts[0], want[k])
					}
				}
				slices.Sort(probes)
				keys := slices.Compact(probes)
				counts, err := s.countBase(di, slices.Clone(keys))
				if err != nil {
					t.Fatal(err)
				}
				for j, k := range keys {
					if counts[j] != want[k] {
						t.Fatalf("key (%d, %d) among %d: counted %d, the whole tile holds %d",
							uint32(k>>32), uint32(k), len(keys), counts[j], want[k])
					}
				}
				// A key inside the first block decodes that block alone.
				before := s.scratch.decoded
				if _, err := s.countBase(di, []uint64{at(tc.tuples[1])}); err != nil {
					t.Fatal(err)
				}
				if got, wantN := s.scratch.decoded-before, int64(min(len(tc.tuples), tile.V3BlockTuples)); got != wantN {
					t.Fatalf("a key in the first block decoded %d tuples, want %d", got, wantN)
				}
			})
		}
	}
}
