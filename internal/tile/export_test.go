package tile

import (
	"os"
	"slices"
	"testing"

	"github.com/gwu-systems/gstore/internal/faultfs"
)

// ResignTile lets damage rewrite the bytes of tile i of g in place, then
// re-signs the checksum sidecar, the manifest and the meta trailer, so
// only checks behind the checksums can find the damage. Reopen the graph
// to read it with the new checksums.
func ResignTile(t testing.TB, g *Graph, i int, damage func(data []byte)) {
	t.Helper()
	base := g.BasePath()
	data, err := os.ReadFile(tilesPath(base))
	if err != nil {
		t.Fatal(err)
	}
	off, n := g.TileByteRange(i)
	damage(data[off : off+n])
	crcs := slices.Clone(g.tileCRC)
	crcs[i] = Checksum(data[off : off+n])
	crcData := encodeTileCRCs(crcs)
	m := *g.Meta
	man := *m.Manifest
	m.Manifest = &man
	man.Tiles, man.TileCRC = sumBytes(data), sumBytes(crcData)
	if err := os.WriteFile(tilesPath(base), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(crcPath(base), crcData, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeMeta(faultfs.OS, base, &m); err != nil {
		t.Fatal(err)
	}
}
