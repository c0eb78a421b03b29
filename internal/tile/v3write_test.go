package tile_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/tile"
)

// v3Blocks converts a seeded kron-12 graph in the v3 codec and returns
// it with a tile of at least three decode blocks, that tile's block
// boundaries (byte offsets, then its length) and its first tuple.
func v3Blocks(t *testing.T) (g *tile.Graph, di int, bounds []int, src, dst uint32) {
	t.Helper()
	el, err := gen.Generate(gen.Graph500Config(12, 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	el.Canonicalize()
	g, err = tile.Convert(el, t.TempDir(), "g", tile.ConvertOptions{
		TileBits: 10, GroupQ: 2, Symmetry: true, Codec: "v3", Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	for di = 0; di < g.Layout.NumTiles(); di++ {
		if g.TupleCount(di) >= 3*tile.V3BlockTuples {
			break
		}
	}
	if di == g.Layout.NumTiles() {
		t.Fatal("no tile of three blocks")
	}
	data, err := g.ReadTile(di, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Layout.CoordAt(di)
	rb, _ := g.Layout.VertexRange(c.Row)
	cb, _ := g.Layout.VertexRange(c.Col)
	for rest := data; len(rest) > 0; {
		bounds = append(bounds, len(data)-len(rest))
		s, d, next, err := tile.V3BlockHead(rest, rb, cb)
		if err != nil {
			t.Fatal(err)
		}
		if len(bounds) == 1 {
			src, dst = s, d
		}
		rest = next
	}
	return g, di, append(bounds, len(data)), src, dst
}

// applyFails reopens the graph at base and checks that a delete of (src,
// dst), a key of tile di, fails with an error that names the tile and
// says want.
func applyFails(t *testing.T, base string, di int, src, dst uint32, want string) {
	t.Helper()
	g, err := tile.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	s, err := delta.Open(g, base, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.Apply([]delta.Op{{Del: true, Src: src, Dst: dst}})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tile %d:", di)) || !strings.Contains(err.Error(), want) {
		t.Fatalf("Apply error = %v, want one naming tile %d and saying %q", err, di, want)
	}
}

// Two swapped blocks of a v3 tile, behind valid checksums, break the
// order the write path's block choice relies on: fsck must report it, and
// a write that counts base keys in the tile must fail naming it.
func TestV3SwappedBlocks(t *testing.T) {
	g, di, bounds, src, dst := v3Blocks(t)
	tile.ResignTile(t, g, di, func(data []byte) {
		a, b := bounds[1], bounds[2]
		swapped := append(append([]byte(nil), data[a:b]...), data[:a]...)
		copy(data, swapped)
	})
	base := g.BasePath()
	r := tile.Fsck(base)
	if r.OK() {
		t.Fatal("fsck passed a tile with swapped blocks")
	}
	for _, f := range r.Findings {
		if f.Tile != di || !strings.Contains(f.Detail, "order") {
			t.Fatalf("findings %v, want only order findings for tile %d", r.Findings, di)
		}
	}
	applyFails(t, base, di, src, dst, "out of order")
}

// A corrupt frame in a block no key of the batch can be in still fails
// the write: every block's frame is walked, not only the decoded ones.
func TestV3CorruptUntouchedBlockFailsApply(t *testing.T) {
	g, di, bounds, src, dst := v3Blocks(t)
	tile.ResignTile(t, g, di, func(data []byte) {
		data[bounds[len(bounds)-2]] = 0 // the last block claims no payload
	})
	applyFails(t, g.BasePath(), di, src, dst, "claims 0 payload bytes")
}
