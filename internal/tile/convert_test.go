package tile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
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

// TestConvertPinnedOutput pins every file a conversion writes, for each
// codec (empty, snb, raw, v3) and layout (half and full undirected,
// directed) of a seeded kron-10, through Convert and through
// ConvertExternal at a one-bucket and a many-bucket budget. Conversions
// whose staging fits in one bucket run on a filesystem that fails every
// spill-file open: they must not spill. A 4 KiB budget must.
func TestConvertPinnedOutput(t *testing.T) {
	noSpill := faultfs.New(1)
	noSpill.Arm(faultfs.Rule{Op: faultfs.OpCreate, PathContains: ".spill", Every: true})
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
			ext := func(budget int64, fsys faultfs.FS) ExternalConvertOptions {
				o := ExternalConvertOptions{ConvertOptions: opts, MemoryBudget: budget}
				o.FS = fsys
				return o
			}
			convs := []struct {
				name string
				run  func(dir string) (*Graph, error)
			}{
				{"Convert", func(dir string) (*Graph, error) {
					o := opts
					o.FS = noSpill
					return Convert(el, dir, "g", o)
				}},
				{"one bucket", func(dir string) (*Graph, error) {
					return ConvertExternal(edgePath, el.NumVertices, el.Directed, dir, "g", ext(0, noSpill))
				}},
				{"many buckets", func(dir string) (*Graph, error) {
					return ConvertExternal(edgePath, el.NumVertices, el.Directed, dir, "g", ext(8<<10, nil))
				}},
			}
			for _, c := range convs {
				dir := t.TempDir()
				g, err := c.run(dir)
				if err != nil {
					t.Fatalf("%s via %s: %v", key, c.name, err)
				}
				g.Close()
				for i, sec := range []string{".tiles", ".start", ".crc", ".deg", ".meta"} {
					data, err := os.ReadFile(filepath.Join(dir, "g"+sec))
					if err != nil {
						t.Fatal(err)
					}
					if got, want := Checksum(data), pinnedSums[key][i]; got != want {
						t.Errorf("%s via %s: %s crc32c %08x, want %08x", key, c.name, sec, got, want)
					}
				}
				if litter, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(litter) > 0 {
					t.Errorf("%s via %s: left %v behind", key, c.name, litter)
				}
			}
			_, err := ConvertExternal(edgePath, el.NumVertices, el.Directed, t.TempDir(), "g", ext(4<<10, noSpill))
			if err == nil {
				t.Fatalf("%s: a 4 KiB budget converted without spilling", key)
			}
			if !errors.Is(err, faultfs.ErrInjected) && !strings.Contains(err.Error(), "above the") {
				t.Fatalf("%s: 4 KiB budget: %v", key, err)
			}
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
