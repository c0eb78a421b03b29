package tile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gwu-systems/gstore/internal/faultfs"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
)

func writeEdges(t *testing.T, el *graph.EdgeList) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "edges.bin")
	if err := graph.WriteEdgeListFile(p, el); err != nil {
		t.Fatal(err)
	}
	return p
}

func extOpts(bits uint, budget int64) ExternalConvertOptions {
	return ExternalConvertOptions{
		ConvertOptions: ConvertOptions{TileBits: bits, GroupQ: 4, Symmetry: true, Degrees: true},
		MemoryBudget:   budget,
	}
}

// A spilling conversion from a file must produce byte-identical files to
// the in-memory one (same tuples, same order).
func TestExternalMatchesInMemory(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(10, 8, 77))
	if err != nil {
		t.Fatal(err)
	}
	edgePath := writeEdges(t, el)

	memDir := t.TempDir()
	gm, err := Convert(el, memDir, "m", ConvertOptions{
		TileBits: 6, GroupQ: 4, Symmetry: true, Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gm.Close()

	extDir := t.TempDir()
	// A deliberately tiny budget forces many buckets.
	ge, err := ConvertExternal(edgePath, el.NumVertices, false, extDir, "e", extOpts(6, 4096))
	if err != nil {
		t.Fatal(err)
	}
	defer ge.Close()

	for _, ext := range []string{".tiles", ".start", ".deg"} {
		a, err := os.ReadFile(BasePath(memDir, "m") + ext)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(BasePath(extDir, "e") + ext)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between converters (%d vs %d bytes)", ext, len(a), len(b))
		}
	}
	if gm.Meta.NumStored != ge.Meta.NumStored || gm.Meta.NumOriginal != ge.Meta.NumOriginal {
		t.Fatalf("meta mismatch: %+v vs %+v", gm.Meta, ge.Meta)
	}
}

func TestExternalDirected(t *testing.T) {
	el, err := gen.Generate(gen.TwitterLikeConfig(9, 4, 78))
	if err != nil {
		t.Fatal(err)
	}
	edgePath := writeEdges(t, el)
	g, err := ConvertExternal(edgePath, el.NumVertices, true, t.TempDir(), "d", extOpts(5, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Meta.Half || !g.Meta.Directed {
		t.Fatalf("meta = %+v", g.Meta)
	}
	if g.Meta.NumStored != int64(len(el.Edges)) {
		t.Fatalf("stored %d, want %d", g.Meta.NumStored, len(el.Edges))
	}
}

func TestExternalTileOverBudget(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(8, 8, 79))
	if err != nil {
		t.Fatal(err)
	}
	edgePath := writeEdges(t, el)
	// Budget smaller than the biggest tile must be rejected with a clear
	// error rather than a corrupt file.
	if _, err := ConvertExternal(edgePath, el.NumVertices, false, t.TempDir(), "x", extOpts(6, 16)); err == nil {
		t.Fatal("oversized tile accepted")
	}
}

func TestExternalRejectsBadEdges(t *testing.T) {
	el := &graph.EdgeList{NumVertices: 8, Edges: []graph.Edge{{Src: 1, Dst: 2}}}
	edgePath := writeEdges(t, el)
	if _, err := ConvertExternal(edgePath, 2, false, t.TempDir(), "x", extOpts(2, 1<<20)); err == nil {
		t.Fatal("out-of-range edges accepted")
	}
	if _, err := ConvertExternal(filepath.Join(t.TempDir(), "missing"), 8, false, t.TempDir(), "x", extOpts(2, 1<<20)); err == nil {
		t.Fatal("missing input accepted")
	}
	partial := filepath.Join(t.TempDir(), "partial.bin")
	if err := os.WriteFile(partial, make([]byte, graph.EdgeTupleBytes+4), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ConvertExternal(partial, 8, false, t.TempDir(), "x", extOpts(2, 1<<20)); err == nil {
		t.Fatal("trailing partial edge accepted")
	}
}

func TestExternalZeroVertices(t *testing.T) {
	el := &graph.EdgeList{NumVertices: 4}
	edgePath := writeEdges(t, el)
	if _, err := ConvertExternal(edgePath, 0, false, t.TempDir(), "x", extOpts(2, 1<<20)); err == nil {
		t.Fatal("zero vertices accepted")
	}
}

// Property: external and in-memory conversion agree for random graphs,
// budgets and tile widths.
func TestQuickExternalEquivalence(t *testing.T) {
	f := func(seed uint64, rawBits, rawBudget uint8) bool {
		el, err := gen.Generate(gen.Graph500Config(8, 4, seed))
		if err != nil {
			return false
		}
		bits := uint(rawBits)%4 + 4
		budget := int64(rawBudget)*64 + 2048
		dir := t.TempDir()
		edgePath := filepath.Join(dir, "edges.bin")
		if err := graph.WriteEdgeListFile(edgePath, el); err != nil {
			return false
		}
		gm, err := Convert(el, dir, "m", ConvertOptions{
			TileBits: bits, GroupQ: 2, Symmetry: true,
		})
		if err != nil {
			return false
		}
		defer gm.Close()
		ge, err := ConvertExternal(edgePath, el.NumVertices, false, dir, "e", ExternalConvertOptions{
			ConvertOptions: ConvertOptions{TileBits: bits, GroupQ: 2, Symmetry: true},
			MemoryBudget:   budget,
		})
		if err != nil {
			// A single tile exceeding the random budget is a legitimate
			// rejection, not an equivalence failure.
			return strings.Contains(err.Error(), "above the")
		}
		defer ge.Close()
		a, err := os.ReadFile(BasePath(dir, "m") + ".tiles")
		if err != nil {
			return false
		}
		b, err := os.ReadFile(BasePath(dir, "e") + ".tiles")
		if err != nil {
			return false
		}
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// pinnedSums are the CRC32C digests of the .tiles, .start, .crc, .deg and
// .meta files a conversion of the pinned inputs writes, recorded before
// the in-memory and streaming conversions shared one pipeline. Any change
// here changes the on-disk format.
var pinnedSums = map[string][5]uint32{
	"half/":        {0x48f97b41, 0xf5ddcb9f, 0x5f5d24f8, 0x0a44326f, 0x6da51a22},
	"half/snb":     {0x48f97b41, 0xf5ddcb9f, 0x5f5d24f8, 0x0a44326f, 0x9d21a690},
	"half/raw":     {0x974592ac, 0xf5ddcb9f, 0xa297379a, 0x0a44326f, 0xd3ed1d08},
	"half/v3":      {0xe8259e1e, 0x7f60470a, 0x1812fe2f, 0x0a44326f, 0xeff9acd6},
	"full/":        {0x7fa47adf, 0x948d3aef, 0x23db6fa2, 0x0a44326f, 0x06d72718},
	"full/snb":     {0x7fa47adf, 0x948d3aef, 0x23db6fa2, 0x0a44326f, 0xcf0d57c4},
	"full/raw":     {0x41192d1a, 0x948d3aef, 0x716e0e9a, 0x0a44326f, 0x72498463},
	"full/v3":      {0x36889e1e, 0x8dba70f6, 0x757acd7e, 0x0a44326f, 0x03f0b5bb},
	"directed/":    {0xdef872d4, 0x8a9d070d, 0xd571f254, 0xa4b4f87f, 0xa42379d6},
	"directed/snb": {0xdef872d4, 0x8a9d070d, 0xd571f254, 0xa4b4f87f, 0xe57f6a3c},
	"directed/raw": {0xf6b3e44e, 0x8a9d070d, 0x97f7cb05, 0xa4b4f87f, 0x8f728e95},
	"directed/v3":  {0x9a0d899a, 0xe8520eff, 0xb062e67c, 0xa4b4f87f, 0x0b933f4c},
}

// pinnedProcs are the GOMAXPROCS settings every pinned conversion runs
// under: the converter's output may not depend on its worker count.
var pinnedProcs = []int{1, 2, 4}

// conversion is one entry point of the pipeline applied to a fixed input.
type conversion struct {
	name string
	run  func(dir string) (*Graph, error)
}

// noSpillFS fails every spill-file open, so a conversion run on it must
// not spill.
func noSpillFS() *faultfs.FaultFS {
	fsys := faultfs.New(1)
	fsys.Arm(faultfs.Rule{Op: faultfs.OpCreate, PathContains: ".spill", Every: true})
	return fsys
}

// entryPoints returns el converted with opts through Convert and through
// ConvertExternal from edgePath at a one-bucket and at a manyBudget
// budget. Conversions whose staging fits in one bucket run on noSpillFS.
func entryPoints(el *graph.EdgeList, edgePath string, opts ConvertOptions, manyBudget int64) []conversion {
	noSpill := noSpillFS()
	ext := func(budget int64, fsys faultfs.FS) ExternalConvertOptions {
		o := ExternalConvertOptions{ConvertOptions: opts, MemoryBudget: budget}
		o.FS = fsys
		return o
	}
	return []conversion{
		{"Convert", func(dir string) (*Graph, error) {
			o := opts
			o.FS = noSpill
			return Convert(el, dir, "g", o)
		}},
		{"one bucket", func(dir string) (*Graph, error) {
			return ConvertExternal(edgePath, el.NumVertices, el.Directed, dir, "g", ext(0, noSpill))
		}},
		{"many buckets", func(dir string) (*Graph, error) {
			return ConvertExternal(edgePath, el.NumVertices, el.Directed, dir, "g", ext(manyBudget, nil))
		}},
	}
}

// checkPinned runs every conversion at every GOMAXPROCS in pinnedProcs
// and compares the CRC32C of each file it writes with want.
func checkPinned(t *testing.T, key string, convs []conversion, want [5]uint32) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range pinnedProcs {
		runtime.GOMAXPROCS(procs)
		for _, c := range convs {
			dir := t.TempDir()
			g, err := c.run(dir)
			if err != nil {
				t.Fatalf("%s via %s at GOMAXPROCS %d: %v", key, c.name, procs, err)
			}
			g.Close()
			for i, sec := range []string{".tiles", ".start", ".crc", ".deg", ".meta"} {
				data, err := os.ReadFile(filepath.Join(dir, "g"+sec))
				if err != nil {
					t.Fatal(err)
				}
				if got := Checksum(data); got != want[i] {
					t.Errorf("%s via %s at GOMAXPROCS %d: %s crc32c %08x, want %08x",
						key, c.name, procs, sec, got, want[i])
				}
			}
			if litter, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(litter) > 0 {
				t.Errorf("%s via %s at GOMAXPROCS %d: left %v behind", key, c.name, procs, litter)
			}
		}
	}
}

// TestConvertPinnedOutput pins every file a conversion writes, for each
// codec (empty, snb, raw, v3) and layout (half and full undirected,
// directed) of a seeded kron-10, through Convert and through
// ConvertExternal at a one-bucket and a many-bucket budget, at every
// GOMAXPROCS in pinnedProcs. A 4 KiB budget must spill.
func TestConvertPinnedOutput(t *testing.T) {
	for _, layout := range []string{"half", "full", "directed"} {
		cfg := gen.Graph500Config(10, 8, 26)
		if layout == "directed" {
			cfg = gen.TwitterLikeConfig(10, 8, 26)
		}
		el, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		el.Directed = layout == "directed"
		edgePath := writeEdges(t, el)
		for _, codec := range []string{"", "snb", "raw", "v3"} {
			key := layout + "/" + codec
			opts := ConvertOptions{TileBits: 4, GroupQ: 4, Symmetry: layout == "half", Codec: codec, Degrees: true}
			checkPinned(t, key, entryPoints(el, edgePath, opts, 8<<10), pinnedSums[key])
			o := ExternalConvertOptions{ConvertOptions: opts, MemoryBudget: 4 << 10}
			o.FS = noSpillFS()
			_, err := ConvertExternal(edgePath, el.NumVertices, el.Directed, t.TempDir(), "g", o)
			if err == nil {
				t.Fatalf("%s: a 4 KiB budget converted without spilling", key)
			}
			if !errors.Is(err, faultfs.ErrInjected) && !strings.Contains(err.Error(), "above the") {
				t.Fatalf("%s: 4 KiB budget: %v", key, err)
			}
		}
	}
}

// pinnedKronSums are the CRC32C digests of the files written by a
// conversion of a seeded kron-14 (edge factor 16, half layout, GroupQ 8),
// keyed by codec and TileBits. They were recorded with the
// single-goroutine converter that preceded the parallel one.
var pinnedKronSums = map[string][5]uint32{
	"snb/8":  {0x52b63221, 0xcd31a4e4, 0x1027075e, 0xf5a740c4, 0x6d030335},
	"snb/12": {0x7f6a08ea, 0x234544cf, 0xe950b9a7, 0xf5a740c4, 0xb14883aa},
	"snb/16": {0x967398e7, 0xf085ad9d, 0x832722b3, 0xf5a740c4, 0x800b1e04},
	"v3/8":   {0x479325fd, 0x20324cf7, 0xdbd0c93b, 0xf5a740c4, 0x6bc35b90},
	"v3/12":  {0xe678c250, 0x60b7b12e, 0xf0c5f7fe, 0xf5a740c4, 0xc6905ab8},
	"v3/16":  {0x9bc1634f, 0x2ec8aad2, 0xdcdd8714, 0xf5a740c4, 0xf7d3b658},
}

// TestConvertPinnedKron pins conversions whose tiles are large enough to
// take the radix sort and to spread over many workers: kron-14 at
// TileBits 8, 12 and 16, snb and v3, through every entry point at every
// GOMAXPROCS in pinnedProcs. The many-bucket budget is an eighth of the
// staging, or the largest tile when that is more, and must spill; at
// TileBits 16 the graph is one tile, so that case stays in one bucket.
func TestConvertPinnedKron(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(14, 16, 31))
	if err != nil {
		t.Fatal(err)
	}
	edgePath := writeEdges(t, el)
	for _, codec := range []string{"snb", "v3"} {
		for _, bits := range []uint{8, 12, 16} {
			key := fmt.Sprintf("%s/%d", codec, bits)
			opts := ConvertOptions{TileBits: bits, GroupQ: 8, Symmetry: true, Codec: codec, Degrees: true}
			g, err := Convert(el, t.TempDir(), "g", opts)
			if err != nil {
				t.Fatal(err)
			}
			largest := int64(0)
			for i := 0; i < g.Layout.NumTiles(); i++ {
				largest = max(largest, g.TupleCount(i))
			}
			many := max(largest, g.Meta.NumStored/8) * 4
			g.Close()
			checkPinned(t, key, entryPoints(el, edgePath, opts, many), pinnedKronSums[key])
			if bits == 16 {
				continue
			}
			o := ExternalConvertOptions{ConvertOptions: opts, MemoryBudget: many}
			o.FS = noSpillFS()
			if _, err := ConvertExternal(edgePath, el.NumVertices, false, t.TempDir(), "g", o); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("%s: the many-bucket budget did not spill: %v", key, err)
			}
		}
	}
}

// unspill turns a spill record for a tile outside its bucket, one that
// overfills its tile, a torn record and a stream that leaves a tile short
// into a "corrupt spill file" error instead of a panic.
func TestUnspillRejectsCorruptRecords(t *testing.T) {
	rec := func(di, key uint32) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint32(b[:4], di)
		binary.LittleEndian.PutUint32(b[4:], key)
		return b[:]
	}
	// The bucket is tiles 2 and 3, two slots each: tuples 10..13.
	run := func(recs ...[]byte) (*staging, error) {
		st := &staging{codec: CodecV3, bits: 4}
		st.alloc(4)
		next, end := []int64{10, 12}, []int64{12, 14}
		return st, unspill(bytes.NewReader(bytes.Join(recs, nil)), "g.spill0.tmp", st, 2, next, end, 10, 8)
	}
	st, err := run(rec(3, 7), rec(2, 5), rec(3, 8), rec(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{5, 6, 7, 8}; !slices.Equal(st.keys, want) {
		t.Fatalf("scattered %v, want %v", st.keys, want)
	}
	for name, recs := range map[string][][]byte{
		"tile before the bucket": {rec(1, 0)},
		"tile past the bucket":   {rec(4, 0)},
		"tile far past":          {rec(1<<31, 0)},
		"overfilled tile":        {rec(2, 0), rec(2, 0), rec(2, 0)},
		"overfilled last tile":   {rec(3, 0), rec(3, 0), rec(3, 0)},
		"torn record":            {rec(2, 0), rec(2, 0)[:5]},
		"short tile":             {rec(2, 0), rec(2, 0), rec(3, 0)},
	} {
		if _, err := run(recs...); err == nil || !strings.Contains(err.Error(), "corrupt spill file") {
			t.Errorf("%s: err = %v, want a corrupt spill file error", name, err)
		}
	}
}

// A conversion killed midway leaves spill files and section staging
// files behind; the next conversion of the same graph sweeps them and
// leaves a neighbor's alone.
func TestConvertSweepsStaleStaging(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(8, 4, 84))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stale := []string{"g.spill3.tmp", "g.tiles.tmp123456"}
	keep := "other.tiles.tmp42"
	for _, n := range append(stale, keep) {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	g, err := ConvertExternal(writeEdges(t, el), el.NumVertices, false, dir, "g", extOpts(4, 4096))
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	for _, n := range stale {
		if _, err := os.Stat(filepath.Join(dir, n)); !os.IsNotExist(err) {
			t.Errorf("stale %s survived the conversion (stat: %v)", n, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
		t.Errorf("another graph's %s was removed: %v", keep, err)
	}
}

// BenchmarkConvert times one Convert of a kron-16 graph (edge factor 16,
// 1 Mi edges) shaped like the repo benchmark's tile.convert probes
// (TileBits 10, GroupQ 8) on GOMAXPROCS workers, one codec per
// sub-benchmark, and reports input edges per second.
func BenchmarkConvert(b *testing.B) {
	el, err := gen.Generate(gen.Graph500Config(16, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, codec := range []string{"snb", "v3"} {
		b.Run(codec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := Convert(el, b.TempDir(), "g", ConvertOptions{
					TileBits: 10, GroupQ: 8, Symmetry: true, Codec: codec, Degrees: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				g.Close()
			}
			b.ReportMetric(float64(len(el.Edges))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}
