package tile

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
)

func paperGraph() *graph.EdgeList {
	return &graph.EdgeList{
		NumVertices: 8,
		Edges: []graph.Edge{
			{Src: 0, Dst: 1}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4},
			{Src: 1, Dst: 2}, {Src: 1, Dst: 4}, {Src: 2, Dst: 4},
			{Src: 4, Dst: 5}, {Src: 5, Dst: 6}, {Src: 5, Dst: 7},
		},
	}
}

func testOpts(bits uint, q uint32) ConvertOptions {
	return ConvertOptions{TileBits: bits, GroupQ: q, Symmetry: true, Degrees: true}
}

// putSNB, getSNB, putRaw and getRaw write and read one tuple of the
// fixed-width layouts (encode.go) independently of the codec paths; the
// tests use them as reference encoders and decoders.
func putSNB(buf []byte, srcOff, dstOff uint16) {
	binary.LittleEndian.PutUint16(buf[0:2], srcOff)
	binary.LittleEndian.PutUint16(buf[2:4], dstOff)
}

func putRaw(buf []byte, src, dst uint32) {
	binary.LittleEndian.PutUint32(buf[0:4], src)
	binary.LittleEndian.PutUint32(buf[4:8], dst)
}

func getSNB(buf []byte) (srcOff, dstOff uint16) {
	return binary.LittleEndian.Uint16(buf[0:2]), binary.LittleEndian.Uint16(buf[2:4])
}

func getRaw(buf []byte) (src, dst uint32) {
	return binary.LittleEndian.Uint32(buf[0:4]), binary.LittleEndian.Uint32(buf[4:8])
}

func TestSNBRoundTrip(t *testing.T) {
	var buf [4]byte
	putSNB(buf[:], 0xBEEF, 0x1234)
	s, d := getSNB(buf[:])
	if s != 0xBEEF || d != 0x1234 {
		t.Fatalf("roundtrip got (%x,%x)", s, d)
	}
}

func TestRawRoundTrip(t *testing.T) {
	var buf [8]byte
	putRaw(buf[:], 0xDEADBEEF, 42)
	s, d := getRaw(buf[:])
	if s != 0xDEADBEEF || d != 42 {
		t.Fatalf("roundtrip got (%x,%d)", s, d)
	}
}

func TestDecodeTuplesBadLength(t *testing.T) {
	if err := DecodeTuples(make([]byte, 7), CodecSNB, 0, 0, func(uint32, uint32) {}); err == nil {
		t.Fatal("accepted 7 bytes of SNB tuples")
	}
	if err := DecodeTuples(make([]byte, 12), CodecRaw, 0, 0, func(uint32, uint32) {}); err == nil {
		t.Fatal("accepted 12 bytes of raw tuples")
	}
}

// TestPaperFigure4 converts the example graph of Figure 1 with tile width
// 4 and verifies the exact tile contents shown in Figure 4(b).
func TestPaperFigure4(t *testing.T) {
	dir := t.TempDir()
	g, err := Convert(paperGraph(), dir, "fig4", testOpts(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	if g.Layout.NumTiles() != 3 {
		t.Fatalf("NumTiles = %d, want 3", g.Layout.NumTiles())
	}
	if g.Meta.NumStored != 9 {
		t.Fatalf("NumStored = %d, want 9", g.Meta.NumStored)
	}
	// Each tile holds exactly 3 edges (Figure 4a).
	for i := 0; i < 3; i++ {
		if n := g.TupleCount(i); n != 3 {
			t.Fatalf("tile %d has %d tuples, want 3", i, n)
		}
	}
	// Figure 4(b): tile[1,1] is (0,1),(1,2),(1,3) in SNB offsets, i.e.
	// global edges (4,5),(5,6),(5,7).
	di := g.Layout.DiskIndex(1, 1)
	data, err := g.ReadTile(di, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []graph.Edge
	if err := DecodeTuples(data, CodecSNB, 4, 4, func(s, d uint32) {
		got = append(got, graph.Edge{Src: s, Dst: d})
	}); err != nil {
		t.Fatal(err)
	}
	want := []graph.Edge{{Src: 4, Dst: 5}, {Src: 5, Dst: 6}, {Src: 5, Dst: 7}}
	sortEdges(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tile[1,1] = %v, want %v", got, want)
	}
}

func sortEdges(es []graph.Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		return es[i].Dst < es[j].Dst
	})
}

// TestConvertRoundTrip checks the fundamental invariant: decoding every
// stored tuple recovers exactly the canonical input edge set.
func TestConvertRoundTrip(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(10, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	g, err := Convert(el, dir, "rt", testOpts(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	var got []graph.Edge
	if err := g.ForEachEdge(func(s, d uint32) {
		got = append(got, graph.Edge{Src: s, Dst: d})
	}); err != nil {
		t.Fatal(err)
	}
	want := append([]graph.Edge(nil), el.Edges...)
	sortEdges(got)
	sortEdges(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edge sets differ: got %d edges, want %d", len(got), len(want))
	}
}

func TestConvertDirected(t *testing.T) {
	cfg := gen.TwitterLikeConfig(10, 8, 4)
	el, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	g, err := Convert(el, dir, "dir", testOpts(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Meta.Half {
		t.Fatal("directed graph stored as half")
	}
	if g.Meta.NumStored != int64(len(el.Edges)) {
		t.Fatalf("stored %d, want %d", g.Meta.NumStored, len(el.Edges))
	}
	var got []graph.Edge
	if err := g.ForEachEdge(func(s, d uint32) {
		got = append(got, graph.Edge{Src: s, Dst: d})
	}); err != nil {
		t.Fatal(err)
	}
	want := append([]graph.Edge(nil), el.Edges...)
	sortEdges(got)
	sortEdges(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("directed edge sets differ")
	}
}

// TestConvertAblationSizes verifies the Figure 10 / Table II storage
// accounting: base (full, raw) = 4× the half+SNB size for undirected
// graphs with < 2^16-wide tiles.
func TestConvertAblationSizes(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(10, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	el.Dedup(true) // unique edges so both-direction counting is exact
	dir := t.TempDir()

	full, err := Convert(el, dir, "base", ConvertOptions{TileBits: 6, GroupQ: 2, Codec: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	sym, err := Convert(el, dir, "sym", ConvertOptions{TileBits: 6, GroupQ: 2, Symmetry: true, Codec: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	defer sym.Close()
	snb, err := Convert(el, dir, "snb", ConvertOptions{TileBits: 6, GroupQ: 2, Symmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer snb.Close()

	selfLoops := int64(0)
	for _, e := range el.Edges {
		if e.Src == e.Dst {
			selfLoops++
		}
	}
	e := int64(len(el.Edges))
	if full.Meta.NumStored != 2*e-selfLoops {
		t.Fatalf("base stored %d tuples, want %d", full.Meta.NumStored, 2*e-selfLoops)
	}
	if sym.Meta.NumStored != e || snb.Meta.NumStored != e {
		t.Fatalf("half stored %d/%d tuples, want %d", sym.Meta.NumStored, snb.Meta.NumStored, e)
	}
	if full.DataBytes() <= sym.DataBytes() || sym.DataBytes() != 2*snb.DataBytes() {
		t.Fatalf("sizes base=%d sym=%d snb=%d violate 2x/4x expectations",
			full.DataBytes(), sym.DataBytes(), snb.DataBytes())
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	el := paperGraph()
	dir := t.TempDir()
	g, err := Convert(el, dir, "c", testOpts(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	base := g.BasePath()
	g.Close()

	// Truncated tiles file.
	data, err := os.ReadFile(base + ".tiles")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base+".tiles", data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(base); err == nil {
		t.Fatal("opened graph with truncated tiles file")
	}
	if err := os.WriteFile(base+".tiles", data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Corrupt start file (non-monotonic).
	sdata, err := os.ReadFile(base + ".start")
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), sdata...)
	bad[8] = 0xff
	bad[15] = 0xff
	if err := os.WriteFile(base+".start", bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(base); err == nil {
		t.Fatal("opened graph with corrupt start file")
	}
	if err := os.WriteFile(base+".start", sdata, 0o644); err != nil {
		t.Fatal(err)
	}

	// Corrupt meta.
	if err := os.WriteFile(base+".meta", []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(base); err == nil {
		t.Fatal("opened graph with corrupt meta")
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("opened nonexistent graph")
	}
}

func TestDegreeCodec(t *testing.T) {
	deg := []uint32{0, 1, 32767, 32768, 1000000, 7}
	tab, err := EncodeDegrees(deg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Overflow) != 2 {
		t.Fatalf("overflow count = %d, want 2", len(tab.Overflow))
	}
	for v, want := range deg {
		if got := tab.Degree(uint32(v)); got != want {
			t.Fatalf("Degree(%d) = %d, want %d", v, got, want)
		}
	}
	if !reflect.DeepEqual(tab.Decode(), deg) {
		t.Fatal("Decode mismatch")
	}
	// Compact must beat plain whenever few vertices overflow.
	if tab.SizeBytes() >= PlainDegrees(deg).SizeBytes() {
		t.Fatalf("compact %d bytes >= plain %d", tab.SizeBytes(), PlainDegrees(deg).SizeBytes())
	}
}

func TestDegreeCodecOverflowLimit(t *testing.T) {
	deg := make([]uint32, maxOverflow+1)
	for i := range deg {
		deg[i] = maxSmallDegree + 1
	}
	if _, err := EncodeDegrees(deg); err != ErrDegreeOverflow {
		t.Fatalf("err = %v, want ErrDegreeOverflow", err)
	}
}

func TestDegreeFileRoundTrip(t *testing.T) {
	el, err := gen.Generate(gen.TwitterLikeConfig(10, 16, 9))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	g, err := Convert(el, dir, "deg", testOpts(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	src, err := g.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	want := el.OutDegrees()
	for v, w := range want {
		if got := src.Degree(uint32(v)); got != w {
			t.Fatalf("Degree(%d) = %d, want %d", v, got, w)
		}
	}
}

func TestDegreeFileCorrupt(t *testing.T) {
	el := paperGraph()
	dir := t.TempDir()
	g, err := Convert(el, dir, "dc", testOpts(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	base := g.BasePath()
	g.Close()
	if err := os.WriteFile(base+".deg", []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if _, err := g2.Degrees(); err == nil {
		t.Fatal("corrupt degree file accepted")
	}
}

// Property: SNB tuple codec round-trips any pair of offsets.
func TestQuickSNB(t *testing.T) {
	f := func(s, d uint16) bool {
		var buf [4]byte
		putSNB(buf[:], s, d)
		gs, gd := getSNB(buf[:])
		return gs == s && gd == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: degree codec round-trips arbitrary degree arrays (with few
// overflows by construction).
func TestQuickDegreeCodec(t *testing.T) {
	f := func(raw []uint32) bool {
		deg := make([]uint32, len(raw))
		for i, r := range raw {
			if i%7 == 0 {
				deg[i] = r // occasional large degree
			} else {
				deg[i] = r % 30000
			}
		}
		tab, err := EncodeDegrees(deg)
		if err != nil {
			return len(deg) > maxOverflow // only plausible for huge inputs
		}
		return reflect.DeepEqual(tab.Decode(), deg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: conversion preserves the edge multiset for random undirected
// graphs at random tile widths (the converter's permutation invariance).
func TestQuickConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n := 0
	f := func(seed uint64, rawBits, rawQ uint8) bool {
		n++
		cfg := gen.Graph500Config(8, 4, seed)
		el, err := gen.Generate(cfg)
		if err != nil {
			return false
		}
		bits := uint(rawBits)%5 + 3
		q := uint32(rawQ)%4 + 1
		g, err := Convert(el, dir, "q"+string(rune('a'+n%26)), testOpts(bits, q))
		if err != nil {
			return false
		}
		defer g.Close()
		var got []graph.Edge
		if err := g.ForEachEdge(func(s, d uint32) {
			got = append(got, graph.Edge{Src: s, Dst: d})
		}); err != nil {
			return false
		}
		want := append([]graph.Edge(nil), el.Edges...)
		sortEdges(got)
		sortEdges(want)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStartEdgeAccounting(t *testing.T) {
	el := paperGraph()
	dir := t.TempDir()
	g, err := Convert(el, dir, "acct", testOpts(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.StartBytes() != int64(g.Layout.NumTiles()+1)*8 {
		t.Fatalf("StartBytes = %d", g.StartBytes())
	}
	if g.DataBytes() != 9*SNBTupleBytes {
		t.Fatalf("DataBytes = %d", g.DataBytes())
	}
	total := int64(0)
	for i := 0; i < g.Layout.NumTiles(); i++ {
		off, n := g.TileByteRange(i)
		if off != g.Start[i]*SNBTupleBytes {
			t.Fatalf("tile %d offset %d", i, off)
		}
		total += n
	}
	if total != g.DataBytes() {
		t.Fatalf("tile ranges cover %d bytes of %d", total, g.DataBytes())
	}
}
