package tile

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
)

func v3Opts(bits uint, q uint32) ConvertOptions {
	return ConvertOptions{TileBits: bits, GroupQ: q, Symmetry: true, Codec: "v3", Degrees: true}
}

// TestConvertV3RoundTrip is the v3 analogue of TestConvertRoundTrip:
// decoding every stored tuple of a v3 graph recovers exactly the
// canonical input edge set, and the store is strictly smaller than SNB.
func TestConvertV3RoundTrip(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(10, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	g, err := Convert(el, dir, "v3rt", v3Opts(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	if g.Meta.Version != VersionV3 || g.Meta.TupleCodec() != CodecV3 {
		t.Fatalf("header: version %d codec %q", g.Meta.Version, g.Meta.Codec)
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
		t.Fatalf("edge sets differ: got %d edges, want %d", len(got), len(want))
	}

	snb, err := Convert(el, dir, "v3snb", testOpts(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer snb.Close()
	if g.DataBytes() >= snb.DataBytes() {
		t.Fatalf("v3 tiles %d bytes, snb %d — no compression", g.DataBytes(), snb.DataBytes())
	}

	// Clean fsck.
	r := Fsck(BasePath(dir, "v3rt"))
	if !r.OK() {
		t.Fatalf("fsck findings on clean v3 graph: %v", r.Findings)
	}
	if r.TuplesChecked != g.Meta.NumStored {
		t.Fatalf("fsck checked %d tuples, graph stores %d", r.TuplesChecked, g.Meta.NumStored)
	}
}

// TestConvertExternalV3BitIdentical pins the two converters to byte-equal
// output: the external (spill-based) pipeline and the in-memory pipeline
// must produce identical v3 tile and start files.
func TestConvertExternalV3BitIdentical(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(9, 8, 11))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mg, err := Convert(el, dir, "mem", v3Opts(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()

	elPath := filepath.Join(dir, "edges.bin")
	if err := graph.WriteEdgeListFile(elPath, el); err != nil {
		t.Fatal(err)
	}
	// A deliberately tiny budget forces many scatter buckets.
	eg, err := ConvertExternal(elPath, el.NumVertices, el.Directed, dir, "ext",
		ExternalConvertOptions{ConvertOptions: v3Opts(5, 2), MemoryBudget: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer eg.Close()

	for _, suffix := range []string{".tiles", ".start"} {
		a, err := os.ReadFile(BasePath(dir, "mem") + suffix)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(BasePath(dir, "ext") + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between in-memory and external v3 conversion (%d vs %d bytes)",
				suffix, len(a), len(b))
		}
	}
}

// TestFsckDetectsV3BlockCorruption flips bytes inside a v3 tile (with the
// CRC updated to match, simulating corruption at conversion time) and
// expects fsck's deep scan to name the tile.
func TestFsckDetectsV3BlockCorruption(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(8, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	g, err := Convert(el, dir, "v3bad", v3Opts(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	base := BasePath(dir, "v3bad")
	// Pick a stored tile and wreck its first block's tuple count.
	victim := -1
	for i := 0; i < g.Layout.NumTiles(); i++ {
		if g.TupleCount(i) > 0 {
			victim = i
			break
		}
	}
	off, n := g.TileByteRange(victim)
	g.Close()
	if victim < 0 || n < 2 {
		t.Fatal("no usable tile")
	}
	tf, err := os.OpenFile(base+".tiles", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the whole tile with garbage that still parses as a frame
	// claiming an absurd tuple count, then fix up the CRC file so only the
	// block structure is wrong.
	garbage := make([]byte, n)
	garbage[0] = byte(n - 1) // frame length: rest of tile
	garbage[1] = 0xff        // tuple count varint, continued
	garbage[2] = 0x7f        // => count 16383 > V3BlockTuples
	if _, err := tf.WriteAt(garbage, off); err != nil {
		t.Fatal(err)
	}
	tf.Close()
	// Recompute the per-tile CRC so the corruption models a converter bug
	// rather than media rot.
	crcPath := base + ".crc"
	crcs, err := os.ReadFile(crcPath)
	if err != nil {
		t.Fatal(err)
	}
	putU32(crcs[victim*4:], Checksum(garbage))
	if err := os.WriteFile(crcPath, crcs, 0o644); err != nil {
		t.Fatal(err)
	}
	// The manifest digests over the .crc and .tiles sections now mismatch;
	// fsck reports those too — what matters is that the tuple scan names
	// the undecodable tile.
	r := Fsck(base)
	found := false
	for _, f := range r.Findings {
		if f.Tile == victim && f.Section == "tiles" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fsck missed the corrupt v3 block: %v", r.Findings)
	}
}

// TestV2HeadersUnchangedByCodecField re-converts a fixed-width graph and
// confirms the header carries no codec field (byte-stable v2 output) while
// an explicit -codec records one.
func TestV2HeadersUnchangedByCodecField(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(8, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	g, err := Convert(el, dir, "plain", testOpts(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	meta, err := os.ReadFile(BasePath(dir, "plain") + ".meta")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(meta, []byte(`"codec"`)) {
		t.Fatal("implicit SNB conversion wrote a codec field into the v2 header")
	}
	opts := testOpts(4, 2)
	opts.Codec = "snb"
	g2, err := Convert(el, dir, "named", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if g2.Meta.Codec != "snb" || g2.Meta.Version != Version || !g2.Meta.SNB {
		t.Fatalf("explicit snb codec header: version %d codec %q snb %v",
			g2.Meta.Version, g2.Meta.Codec, g2.Meta.SNB)
	}
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// v3KeyMask bounds the keys V3Key packs for bits: 2·bits bits.
func v3KeyMask(bits uint) uint32 { return uint32(uint64(1)<<(2*bits) - 1) }

// checkSortV3Keys requires sortV3Keys to order a copy of keys exactly as
// slices.Sort does.
func checkSortV3Keys(t *testing.T, what string, keys []uint32, bits uint) {
	t.Helper()
	want := slices.Clone(keys)
	slices.Sort(want)
	got := sortV3Keys(slices.Clone(keys), make([]uint32, len(keys)))
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %d keys at bits %d sort differently from slices.Sort", what, len(keys), bits)
	}
}

// The radix sort against slices.Sort: random, all-equal, all-equal but
// one, already sorted, reversed and heavily duplicated keys, at lengths
// either side of the small-tile cut-off, for every tile width (bits 16
// fills all four digits).
func TestSortV3KeysMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 31))
	shapes := map[string]func(keys []uint32, mask uint32){
		"random": func(keys []uint32, mask uint32) {
			for i := range keys {
				keys[i] = rng.Uint32() & mask
			}
		},
		"equal": func(keys []uint32, mask uint32) {
			k := rng.Uint32() & mask
			for i := range keys {
				keys[i] = k
			}
		},
		"sorted": func(keys []uint32, mask uint32) {
			for i := range keys {
				keys[i] = rng.Uint32() & mask
			}
			slices.Sort(keys)
		},
		"reversed": func(keys []uint32, mask uint32) {
			for i := range keys {
				keys[i] = rng.Uint32() & mask
			}
			slices.Sort(keys)
			slices.Reverse(keys)
		},
		"one apart": func(keys []uint32, mask uint32) {
			k := rng.Uint32() & mask
			for i := range keys {
				keys[i] = k
			}
			if len(keys) > 0 {
				keys[rng.IntN(len(keys))] = rng.Uint32() & mask
			}
		},
		"duplicated": func(keys []uint32, mask uint32) {
			pool := []uint32{0, mask, rng.Uint32() & mask, rng.Uint32() & mask}
			for i := range keys {
				keys[i] = pool[rng.IntN(len(pool))]
			}
		},
	}
	for bits := uint(1); bits <= 16; bits++ {
		for _, n := range []int{0, 1, radixCutoff - 1, radixCutoff, radixCutoff + 1, 3 * radixCutoff, 20000} {
			for name, fill := range shapes {
				keys := make([]uint32, n)
				fill(keys, v3KeyMask(bits))
				checkSortV3Keys(t, name, keys, bits)
			}
		}
	}
}

// FuzzSortV3Keys checks the radix sort against slices.Sort on keys taken
// from raw, masked to bits as V3Key packs them and unmasked, each also
// stretched past the small-tile cut-off.
func FuzzSortV3Keys(f *testing.F) {
	f.Add(uint8(12), []byte{1, 2, 3, 4, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(uint8(16), []byte{0, 0, 0, 0x80, 0, 0, 0, 0x7f})
	f.Add(uint8(1), []byte{3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, rawBits uint8, raw []byte) {
		bits := uint(rawBits)%16 + 1
		for name, mask := range map[string]uint32{"masked": v3KeyMask(bits), "unmasked": ^uint32(0)} {
			var keys []uint32
			for i := 0; i+4 <= len(raw); i += 4 {
				keys = append(keys, binary.LittleEndian.Uint32(raw[i:])&mask)
			}
			checkSortV3Keys(t, name, keys, bits)
			if len(keys) == 0 {
				continue
			}
			long := make([]uint32, 2*radixCutoff+1)
			for i := range long {
				long[i] = (keys[i%len(keys)] ^ uint32(i/len(keys))*0x9e3779b1) & mask
			}
			checkSortV3Keys(t, name+" stretched", long, bits)
		}
	})
}
