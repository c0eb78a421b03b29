package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/storage"
	"github.com/gwu-systems/gstore/internal/tile"
)

// Acceptance: a flipped byte in the tiles file fails the run with
// *IntegrityError naming the corrupt tile, and the partial stats carry
// the verification counters to the caller.
func TestEngineDetectsOnDiskCorruption(t *testing.T) {
	el := kron(t, 10, 8, 31)
	g := convert(t, el, 6, 4)
	e, err := NewEngine(g, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Flip one bit in the first non-empty tile's data. The write goes to
	// the same inode, so the engine's open handle sees the damage.
	victim := -1
	for i := 0; i < g.Layout.NumTiles(); i++ {
		if g.TupleCount(i) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("graph has no tuples")
	}
	off, _ := g.TileByteRange(victim)
	tilesPath := g.BasePath() + ".tiles"
	data, err := os.ReadFile(tilesPath)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0x40
	if err := os.WriteFile(tilesPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := e.Run(context.Background(), algo.NewPageRank(3))
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("Run error = %v, want *IntegrityError", err)
	}
	if ie.Tile != victim {
		t.Fatalf("IntegrityError names tile %d, want %d", ie.Tile, victim)
	}
	c := g.Layout.CoordAt(victim)
	if ie.Row != c.Row || ie.Col != c.Col {
		t.Fatalf("IntegrityError coords (%d,%d), want (%d,%d)", ie.Row, ie.Col, c.Row, c.Col)
	}
	var ce *tile.ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("IntegrityError does not wrap *tile.ChecksumError: %v", err)
	}
	if st == nil {
		t.Fatal("integrity failure returned nil stats")
	}
	if st.IntegrityErrors != 1 || st.ChecksumMismatches == 0 {
		t.Fatalf("stats = %+v, want IntegrityErrors=1 and ChecksumMismatches>0", st)
	}
	checkNoLeakedSegments(t, e)

	// Restore the byte: the same engine must run clean again.
	data[off] ^= 0x40
	if err := os.WriteFile(tilesPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = e.Run(context.Background(), algo.NewPageRank(3))
	if err != nil {
		t.Fatalf("Run after restore: %v", err)
	}
	if st.TilesVerified == 0 || st.IntegrityErrors != 0 {
		t.Fatalf("clean run stats = %+v, want TilesVerified>0, IntegrityErrors=0", st)
	}
	checkNoLeakedSegments(t, e)
}

// Under a fault device corrupting every read, the re-read sees damaged
// data too, so the run must fail with *IntegrityError — silent
// corruption never reaches a kernel.
func TestEngineIntegrityErrorUnderPersistentCorruption(t *testing.T) {
	el := kron(t, 10, 8, 32)
	g := convert(t, el, 6, 4)
	opts := faultOpts(storage.FaultConfig{Seed: 7, CorruptRate: 1, CorruptBytes: 2}, 3)
	e, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	st, err := e.Run(context.Background(), algo.NewBFS(0))
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("Run error = %v, want *IntegrityError", err)
	}
	if st == nil || st.IntegrityErrors != 1 || st.ChecksumMismatches == 0 {
		t.Fatalf("stats = %+v, want IntegrityErrors=1 and ChecksumMismatches>0", st)
	}
	if st.Faults.Corruptions == 0 {
		t.Fatalf("no corruptions recorded in fault stats: %+v", st.Faults)
	}
	checkNoLeakedSegments(t, e)
}

// CorruptMax=1 corrupts exactly the first read: verification catches
// the mismatch, the single re-read comes back clean, and the run
// completes with the correct result — the in-flight-corruption
// recovery path, deterministically.
func TestEngineRecoversFromTransientCorruption(t *testing.T) {
	el := kron(t, 10, 8, 33)
	g := convert(t, el, 6, 4)
	opts := faultOpts(storage.FaultConfig{Seed: 8, CorruptRate: 1, CorruptMax: 1}, 3)
	b := algo.NewBFS(0)
	st := runAlg(t, g, opts, b)
	want := graph.RefBFS(graph.NewCSR(el, false), 0)
	for v, d := range b.Depths() {
		if d != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, d, want[v])
		}
	}
	if st.ChecksumMismatches == 0 {
		t.Fatal("transient corruption not observed by verification")
	}
	if st.IntegrityErrors != 0 {
		t.Fatalf("recovered run reported IntegrityErrors=%d", st.IntegrityErrors)
	}
	if st.Faults.Corruptions != 1 {
		t.Fatalf("Corruptions = %d, want 1", st.Faults.Corruptions)
	}
}

// skipTile hides one tile from a kernel's selective fetch.
type skipTile struct {
	algo.Algorithm
	row, col uint32
}

func (s *skipTile) NeedTileThisIter(row, col uint32) bool {
	return (row != s.row || col != s.col) && s.Algorithm.NeedTileThisIter(row, col)
}

// A tile that passes its checksum and the framing walk but does not
// decode — here a v3 block whose last varint never terminates, with the
// CRC sidecar and the manifest recomputed over the damaged bytes, as a
// converter or decoder bug would leave them — must fail the run with an
// *IntegrityError naming the tile, through Engine.Run and Scheduler.Run
// alike, instead of quietly dropping the rest of the tile's edges.
func TestUndecodableTileFailsRun(t *testing.T) {
	el := kron(t, 10, 8, 35)
	g := convertCodec(t, el, 6, 4, "v3")
	victim := -1
	for i := 0; i < g.Layout.NumTiles() && victim < 0; i++ {
		if g.TupleCount(i) > 2 {
			victim = i
		}
	}
	off, n := g.TileByteRange(victim)
	base := g.BasePath()
	meta := *g.Meta
	manifest := *meta.Manifest
	meta.Manifest = &manifest
	g.Close()

	tiles, err := os.ReadFile(base + ".tiles")
	if err != nil {
		t.Fatal(err)
	}
	size, k := binary.Uvarint(tiles[off : off+n])
	tiles[off+int64(k)+int64(size)-1] |= 0x80 // the first block's last byte gains a continuation bit
	if _, err := tile.Tuples(tiles[off:off+n], tile.CodecV3); err != nil {
		t.Fatalf("the damage must leave the framing intact: %v", err)
	}
	crcs, err := os.ReadFile(base + ".crc")
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(crcs[victim*4:], tile.Checksum(tiles[off:off+n]))
	manifest.Tiles.CRC32C = tile.Checksum(tiles)
	manifest.TileCRC.CRC32C = tile.Checksum(crcs)
	payload, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	payload = append(payload, '\n')
	signed := append(payload, fmt.Sprintf("#crc32c:%08x\n", tile.Checksum(payload))...)
	for path, data := range map[string][]byte{base + ".tiles": tiles, base + ".crc": crcs, base + ".meta": signed} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	g, err = tile.Open(base)
	if err != nil {
		t.Fatalf("resealed graph does not open: %v", err)
	}
	defer g.Close()

	e, s := newSched(t, g, smallOpts())
	c := g.Layout.CoordAt(victim)
	check := func(what string, st *Stats, err error) {
		t.Helper()
		var ie *IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: error = %v, want *IntegrityError", what, err)
		}
		if ie.Graph != g.Meta.Name || ie.Tile != victim || ie.Row != c.Row || ie.Col != c.Col {
			t.Fatalf("%s: error names graph %q tile %d (%d,%d), want %q tile %d (%d,%d)",
				what, ie.Graph, ie.Tile, ie.Row, ie.Col, g.Meta.Name, victim, c.Row, c.Col)
		}
		var ce *tile.ChecksumError
		if errors.As(err, &ce) {
			t.Fatalf("%s: reported as a checksum mismatch, but the checksum matches: %v", what, err)
		}
		if st == nil || st.IntegrityErrors != 1 || st.ChecksumMismatches != 0 || st.TilesVerified == 0 {
			t.Fatalf("%s: stats = %+v, want partial stats with IntegrityErrors=1 and no mismatch", what, st)
		}
		requireIdle(t, e)
	}
	st, err := e.Run(context.Background(), algo.NewPageRank(3))
	check("Engine.Run", st, err)
	st, err = s.Run(context.Background(), algo.NewPageRank(3))
	check("Scheduler.Run", st, err)
	m, err := LoadInMemory(g)
	if err != nil {
		t.Fatal(err)
	}
	var ie *IntegrityError
	if _, err := m.Run(algo.NewPageRank(2), 2, 0); !errors.As(err, &ie) || ie.Tile != victim {
		t.Fatalf("MemGraph.Run error = %v, want *IntegrityError naming tile %d", err, victim)
	}

	// A run that never asks for the tile is untouched by it.
	if _, err := e.Run(context.Background(), &skipTile{Algorithm: algo.NewPageRank(3), row: c.Row, col: c.Col}); err != nil {
		t.Fatalf("run that skips the damaged tile: %v", err)
	}
	requireIdle(t, e)
}

// The degree file is loaded once per engine: after a first PageRank has
// read it, damage to it on disk does not reach a second run on the same
// engine. A failed load is not kept: an engine whose first run met the
// damage runs clean once the file is restored.
func TestEngineLoadsDegreesOnce(t *testing.T) {
	el := kron(t, 10, 8, 2)
	g := convert(t, el, 6, 4)
	want := graph.RefPageRank(graph.NewCSR(el, false), graph.DefaultPageRank(3))
	degPath := g.BasePath() + ".deg"
	clean, err := os.ReadFile(degPath)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), clean...)
	damaged[len(damaged)/2] ^= 0x40
	run := func(e *Engine) error {
		p := algo.NewPageRank(3)
		if _, err := e.Run(context.Background(), p); err != nil {
			return err
		}
		for v, r := range p.Ranks() {
			if math.Abs(r-want[v]) > 1e-9 {
				t.Fatalf("rank[%d] = %v, want %v", v, r, want[v])
			}
		}
		return nil
	}
	write := func(data []byte) {
		if err := os.WriteFile(degPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e, err := NewEngine(g, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := run(e); err != nil {
		t.Fatal(err)
	}
	write(damaged)
	if err := run(e); err != nil {
		t.Fatalf("second run re-read the degree file: %v", err)
	}

	e2, err := NewEngine(g, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := run(e2); err == nil {
		t.Fatal("PageRank ran over a damaged degree file")
	}
	write(clean)
	if err := run(e2); err != nil {
		t.Fatalf("run after restoring the degree file: %v", err)
	}
}
