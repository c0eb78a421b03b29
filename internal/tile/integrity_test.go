package tile

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/gwu-systems/gstore/internal/faultfs"
	"github.com/gwu-systems/gstore/internal/gen"
)

// Round-trip: convert (v2) -> fsck clean -> every tile readable with its
// checksum verified, for each storage layout: half-stored SNB, full raw,
// directed, and without a degree file.
func TestConvertFsckRoundTripV2(t *testing.T) {
	cases := []struct {
		name string
		opts ConvertOptions
		cfg  gen.Config
	}{
		{"half-snb", testOpts(6, 4), gen.Graph500Config(10, 8, 81)},
		{"full-raw", ConvertOptions{TileBits: 6, GroupQ: 4, Codec: "raw", Degrees: true}, gen.Graph500Config(9, 8, 81)},
		{"directed", ConvertOptions{TileBits: 6, GroupQ: 4, Degrees: true}, gen.TwitterLikeConfig(9, 4, 82)},
		{"no-degrees", ConvertOptions{TileBits: 6, GroupQ: 4, Symmetry: true}, gen.Graph500Config(8, 4, 83)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			el, err := gen.Generate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Convert(el, t.TempDir(), "g", tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			if g.Meta.Version != Version {
				t.Fatalf("converted graph is version %d, want %d", g.Meta.Version, Version)
			}
			r := Fsck(g.BasePath())
			if !r.OK() {
				t.Fatalf("fsck of a fresh graph found problems: %v", r.Findings)
			}
			if r.TilesChecked != g.Layout.NumTiles() || r.TuplesChecked != g.Meta.NumStored {
				t.Fatalf("fsck report incomplete: %+v", r)
			}
			for i := 0; i < g.Layout.NumTiles(); i++ {
				if _, err := g.ReadTile(i, nil); err != nil {
					t.Fatalf("ReadTile(%d): %v", i, err)
				}
			}
		})
	}
}

// A format v1 header — version 1, no manifest, no checksum trailer, as
// the converter wrote them before the integrity layer — is refused by
// Open and by Fsck with an error that says what to do about it, so no
// graph can be opened that the read path would not verify.
func TestV1HeaderRejectedWithReconvertHint(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(9, 8, 82))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Convert(el, t.TempDir(), "g", testOpts(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	base := g.BasePath()
	m := *g.Meta
	g.Close()
	m.Version, m.Manifest = 1, nil
	payload, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath(base), append(payload, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(crcPath(base)); err != nil {
		t.Fatal(err)
	}

	if g, err := Open(base); err == nil {
		g.Close()
		t.Fatal("Open accepted a v1 graph")
	} else if !strings.Contains(err.Error(), "re-convert") {
		t.Fatalf("Open error = %v, want one that says to re-convert", err)
	}
	r := Fsck(base)
	if r.OK() || len(r.Findings) != 1 || r.Findings[0].Section != "meta" ||
		!strings.Contains(r.Findings[0].Detail, "re-convert") {
		t.Fatalf("fsck of a v1 graph = %v, want one meta finding that says to re-convert", r.Findings)
	}
}

// Checksums computed bucket by bucket must agree with the files: a
// spilling conversion passes a full fsck.
func TestConvertExternalFsck(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(10, 8, 83))
	if err != nil {
		t.Fatal(err)
	}
	edgePath := writeEdges(t, el)
	dir := t.TempDir()
	// Tiny budget: many buckets, so per-bucket CRC slicing is exercised.
	g, err := ConvertExternal(edgePath, el.NumVertices, false, dir, "e", extOpts(6, 4096))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	r := Fsck(g.BasePath())
	if !r.OK() {
		t.Fatalf("fsck of external conversion found problems: %v", r.Findings)
	}
	if r.TilesChecked == 0 || r.TuplesChecked != g.Meta.NumStored {
		t.Fatalf("fsck report incomplete: %+v", r)
	}
}

// Flipping any single byte of any section file must make fsck report a
// finding in that exact section — the corrupt-one-byte-anywhere
// guarantee of the v2 format.
func TestFsckCorruptOneByte(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(9, 8, 84))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ext     string
		section string
	}{
		{".meta", "meta"},
		{".start", "start"},
		{".tiles", "tiles"},
		{".crc", "crc"},
		{".deg", "deg"},
	} {
		for _, at := range []string{"first", "middle", "last"} {
			t.Run(tc.ext+"/"+at, func(t *testing.T) {
				dir := t.TempDir()
				g, err := Convert(el, dir, "g", testOpts(5, 2))
				if err != nil {
					t.Fatal(err)
				}
				base := g.BasePath()
				g.Close()

				path := base + tc.ext
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				off := 0
				switch at {
				case "middle":
					off = len(data) / 2
				case "last":
					off = len(data) - 1
				}
				data[off] ^= 0x20
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}

				r := Fsck(base)
				if r.OK() {
					t.Fatalf("fsck missed a flipped byte at %s[%d]", tc.ext, off)
				}
				found := false
				for _, f := range r.Findings {
					if f.Section == tc.section {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("flip in %s reported as %v, want a %q finding",
						tc.ext, r.Findings, tc.section)
				}
			})
		}
	}
}

// A flipped byte in the small sections (meta, start, crc) must already
// fail Open; tiles corruption is deferred to the read path by design.
func TestOpenRejectsCorruptSmallSections(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(9, 8, 85))
	if err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".meta", ".start", ".crc"} {
		t.Run(ext, func(t *testing.T) {
			dir := t.TempDir()
			g, err := Convert(el, dir, "g", testOpts(5, 2))
			if err != nil {
				t.Fatal(err)
			}
			base := g.BasePath()
			g.Close()
			path := base + ext
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x10
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(base); err == nil {
				t.Fatalf("Open accepted a corrupt %s", ext)
			}
		})
	}
}

// ReadTile must catch tiles-file corruption on a graph that opened
// cleanly (Open checks only the small sections).
func TestReadTileDetectsCorruption(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(9, 8, 86))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	g, err := Convert(el, dir, "g", testOpts(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	base := g.BasePath()
	g.Close()

	victim := -1
	data, err := os.ReadFile(base + ".tiles")
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0x01
	if err := os.WriteFile(base+".tiles", data, 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := Open(base)
	if err != nil {
		t.Fatalf("Open after tiles-only corruption: %v", err)
	}
	defer g2.Close()
	for i := 0; i < g2.Layout.NumTiles(); i++ {
		if g2.TupleCount(i) > 0 {
			victim = i
			break
		}
	}
	_, rerr := g2.ReadTile(victim, nil)
	ce, ok := rerr.(*ChecksumError)
	if !ok {
		t.Fatalf("ReadTile error = %v, want *ChecksumError", rerr)
	}
	if ce.Tile != victim {
		t.Fatalf("ChecksumError names tile %d, want %d", ce.Tile, victim)
	}
}

// The tuple range check and the degree recount are fsck's only defences
// that no checksum provides. Each case damages one section and re-signs
// it — the .crc entries, the manifest sums and the meta trailer all
// vouch for the bad bytes — so only the semantic check can catch it, and
// it must be the only thing fsck reports.
func TestFsckSemanticChecksBehindValidDigests(t *testing.T) {
	el, err := gen.Generate(gen.Graph500Config(9, 8, 87))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		section string
		// damage rewrites data, the bytes of section, in place.
		damage func(t *testing.T, g *Graph, data []byte)
		want   string
	}{
		{"tuple-outside-tile", ".tiles", func(t *testing.T, g *Graph, data []byte) {
			for i := 0; i < g.Layout.NumTiles(); i++ {
				_, rHi := g.Layout.VertexRange(g.Layout.CoordAt(i).Row)
				if g.TupleCount(i) == 0 || rHi >= g.Meta.NumVertices {
					continue
				}
				off, _ := g.TileByteRange(i)
				_, d := getRaw(data[off:])
				putRaw(data[off:], rHi, d) // first source of the next row
				return
			}
			t.Fatal("no non-empty tile below the last row")
		}, "outside tile ranges"},
		{"degree-plus-one", ".deg", func(t *testing.T, g *Graph, data []byte) {
			if g.Meta.DegreeFormat != "compact" {
				t.Fatalf("degree format %q, want compact", g.Meta.DegreeFormat)
			}
			const v = 7
			s := binary.LittleEndian.Uint16(data[4+2*v:])
			if s+1 >= degreeEscape {
				t.Fatalf("vertex %d degree entry %#x is escaped", v, s)
			}
			binary.LittleEndian.PutUint16(data[4+2*v:], s+1)
		}, "degree file says"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Convert(el, t.TempDir(), "g", ConvertOptions{
				TileBits: 6, GroupQ: 4, Symmetry: true, Codec: "raw", Degrees: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			base := g.BasePath()
			data, err := os.ReadFile(base + tc.section)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, g, data)

			m := *g.Meta
			man := *m.Manifest
			m.Manifest = &man
			if tc.section == ".tiles" {
				crcs := make([]uint32, g.Layout.NumTiles())
				for i := range crcs {
					off, n := g.TileByteRange(i)
					crcs[i] = Checksum(data[off : off+n])
				}
				crcData := encodeTileCRCs(crcs)
				if err := os.WriteFile(crcPath(base), crcData, 0o644); err != nil {
					t.Fatal(err)
				}
				man.Tiles, man.TileCRC = sumBytes(data), sumBytes(crcData)
			} else {
				d := sumBytes(data)
				man.Deg = &d
			}
			if err := os.WriteFile(base+tc.section, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := writeMeta(faultfs.OS, base, &m); err != nil {
				t.Fatal(err)
			}

			r := Fsck(base)
			if r.OK() {
				t.Fatalf("fsck passed a graph with %s", tc.name)
			}
			for _, f := range r.Findings {
				if !strings.Contains(f.Detail, tc.want) {
					t.Fatalf("findings %v, want only %q ones", r.Findings, tc.want)
				}
			}
		})
	}
}
