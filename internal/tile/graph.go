package tile

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"github.com/gwu-systems/gstore/internal/grid"
)

// Graph is a handle on a converted on-disk tiled graph.
type Graph struct {
	Meta   *Meta
	Layout *grid.Layout
	// Start holds, for every stored tile in disk order, the prefix sum of
	// tuple counts (NumTiles+1 entries). For fixed-width codecs tile i
	// occupies tuples [Start[i], Start[i+1]) of the tiles file.
	Start []int64
	// ByteOff holds per-tile byte-offset prefix sums (NumTiles+1
	// entries) for the variable-width v3 codec, whose tile extents
	// cannot be derived from tuple counts. Nil for v2 graphs.
	ByteOff []int64

	base    string
	tiles   *os.File
	tileCRC []uint32 // per-tile CRC32C, disk order
}

// Open opens the graph stored at base path p (as produced by Convert).
//
// Every small section is verified against the manifest before use: the
// meta trailer, the start-edge file's length and digest, and the checksum
// sidecar's length and digest. The tiles file is only size-checked here —
// its contents are verified tile-by-tile on the read path (and
// exhaustively by Fsck). A v1 graph, which has none of this, does not
// open: the error says to re-convert it.
func Open(p string) (*Graph, error) {
	m, err := readMeta(p)
	if err != nil {
		return nil, err
	}
	half := !m.Directed && m.Half
	layout, err := grid.New(m.NumVertices, m.TileBits, m.GroupQ, half)
	if err != nil {
		return nil, err
	}
	nt := layout.NumTiles()

	sdata, err := os.ReadFile(startPath(p))
	if err != nil {
		return nil, err
	}
	if err := m.Manifest.Start.check("start-edge file", sumBytes(sdata)); err != nil {
		return nil, err
	}
	cdata, err := os.ReadFile(crcPath(p))
	if err != nil {
		return nil, fmt.Errorf("tile: graph missing checksum sidecar: %w", err)
	}
	if err := m.Manifest.TileCRC.check("tile checksum file", sumBytes(cdata)); err != nil {
		return nil, err
	}
	tileCRC, err := decodeTileCRCs(cdata, nt)
	if err != nil {
		return nil, err
	}
	start, byteOff, err := parseStartCodec(sdata, startPath(p), nt, m.TupleCodec())
	if err != nil {
		return nil, err
	}
	if got := start[len(start)-1]; got != m.NumStored {
		return nil, fmt.Errorf("tile: start-edge file ends at %d tuples, meta says %d", got, m.NumStored)
	}

	f, err := os.Open(tilesPath(p))
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	want := start[len(start)-1] * m.TupleBytes()
	if byteOff != nil {
		want = byteOff[len(byteOff)-1]
	}
	if st.Size() != want {
		f.Close()
		return nil, fmt.Errorf("tile: tiles file is %d bytes but the start-edge index says %d bytes",
			st.Size(), want)
	}
	if m.Manifest.Tiles.Bytes != st.Size() {
		f.Close()
		return nil, fmt.Errorf("tile: tiles file is %d bytes, manifest says %d",
			st.Size(), m.Manifest.Tiles.Bytes)
	}
	return &Graph{Meta: m, Layout: layout, Start: start, ByteOff: byteOff, base: p, tiles: f, tileCRC: tileCRC}, nil
}

// TileChecksum returns the recorded CRC32C of the tile at disk index i.
func (g *Graph) TileChecksum(i int) uint32 { return g.tileCRC[i] }

// Close releases the underlying file handle.
func (g *Graph) Close() error {
	if g.tiles == nil {
		return nil
	}
	err := g.tiles.Close()
	g.tiles = nil
	return err
}

// BasePath returns the base path the graph was opened from.
func (g *Graph) BasePath() string { return g.base }

// TilesFile exposes the tiles file for the asynchronous I/O engine.
func (g *Graph) TilesFile() *os.File { return g.tiles }

// TilesPath returns the tiles file's path, for device backends that
// open their own descriptors (e.g. O_DIRECT).
func (g *Graph) TilesPath() string { return tilesPath(g.base) }

// TupleCount returns the number of tuples in the tile at disk index i.
func (g *Graph) TupleCount(i int) int64 { return g.Start[i+1] - g.Start[i] }

// TileByteRange returns the byte offset and length of tile i in the tiles
// file.
func (g *Graph) TileByteRange(i int) (off, n int64) {
	if g.ByteOff != nil {
		return g.ByteOff[i], g.ByteOff[i+1] - g.ByteOff[i]
	}
	tb := g.Meta.TupleBytes()
	return g.Start[i] * tb, g.TupleCount(i) * tb
}

// ReadTile reads tile i synchronously, appending to buf (which may be
// nil), and returns the tile's data. On a v2 graph the data is verified
// against the tile's recorded CRC32C; a mismatch returns a
// *ChecksumError.
func (g *Graph) ReadTile(i int, buf []byte) ([]byte, error) {
	off, n := g.TileByteRange(i)
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if n == 0 {
		return buf, nil
	}
	if _, err := g.tiles.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("tile: reading tile %d: %w", i, err)
	}
	if g.tileCRC != nil {
		if got := Checksum(buf); got != g.tileCRC[i] {
			return nil, &ChecksumError{Tile: i, Want: g.tileCRC[i], Got: got}
		}
	}
	return buf, nil
}

// ForEachEdge streams every stored tuple (decoded to full vertex IDs) in
// disk order. Intended for tests and small graphs.
func (g *Graph) ForEachEdge(fn func(src, dst uint32)) error {
	var buf []byte
	for i := 0; i < g.Layout.NumTiles(); i++ {
		data, err := g.ReadTile(i, buf)
		if err != nil {
			return err
		}
		buf = data
		c := g.Layout.CoordAt(i)
		rb, _ := g.Layout.VertexRange(c.Row)
		cb, _ := g.Layout.VertexRange(c.Col)
		if err := DecodeTuples(data, g.Meta.TupleCodec(), rb, cb, fn); err != nil {
			return err
		}
	}
	return nil
}

// DataBytes is the size of the tile data (the paper's Table II "G-Store
// Size" column counts only this; the start-edge file is reported
// separately).
func (g *Graph) DataBytes() int64 {
	if g.ByteOff != nil {
		return g.ByteOff[len(g.ByteOff)-1]
	}
	return g.Meta.NumStored * g.Meta.TupleBytes()
}

// StartBytes is the size of the start-edge file.
func (g *Graph) StartBytes() int64 { return int64(len(g.Start)+len(g.ByteOff)) * 8 }

// Degrees loads the degree file and returns a DegreeSource: the compact
// table for "compact" format, a plain array for the fallback. The file's
// length and CRC32C are verified against the manifest before decoding.
func (g *Graph) Degrees() (DegreeSource, error) {
	switch g.Meta.DegreeFormat {
	case "":
		return nil, fmt.Errorf("tile: graph %s has no degree file", g.base)
	case "compact", "plain":
	default:
		return nil, fmt.Errorf("tile: unknown degree format %q", g.Meta.DegreeFormat)
	}
	data, err := os.ReadFile(degPath(g.base))
	if err != nil {
		return nil, err
	}
	if g.Meta.Manifest.Deg != nil {
		if err := g.Meta.Manifest.Deg.check("degree file", sumBytes(data)); err != nil {
			return nil, err
		}
	}
	return decodeDegreeFile(data, int(g.Meta.NumVertices), g.Meta.DegreeFormat)
}

// parseStartCodec decodes the start-edge file for a codec: fixed-width
// codecs store tuple prefix sums only; v3 appends a second array of byte
// offset prefix sums (same length, same invariants) because tile byte
// extents are no longer derivable from tuple counts.
func parseStartCodec(data []byte, path string, numTiles int, c Codec) (start, byteOff []int64, err error) {
	if c != CodecV3 {
		start, err = parseStart(data, path, numTiles)
		return start, nil, err
	}
	half := (numTiles + 1) * 8
	if len(data) != 2*half {
		return nil, nil, fmt.Errorf("tile: v3 start-edge file %s is %d bytes, want %d", path, len(data), 2*half)
	}
	if start, err = parseStart(data[:half], path, numTiles); err != nil {
		return nil, nil, err
	}
	if byteOff, err = parseStart(data[half:], path+" (byte offsets)", numTiles); err != nil {
		return nil, nil, err
	}
	return start, byteOff, nil
}

// parseStart decodes and validates a start-edge file: correct length for
// the layout, entries non-negative and monotone non-decreasing, first
// entry zero. The final entry is cross-checked against the meta edge
// count and the tiles file size by Open, so a damaged index is reported
// descriptively instead of causing an out-of-range read later.
func parseStart(data []byte, path string, numTiles int) ([]int64, error) {
	want := (numTiles + 1) * 8
	if len(data) != want {
		return nil, fmt.Errorf("tile: start-edge file %s is %d bytes, want %d", path, len(data), want)
	}
	start := make([]int64, numTiles+1)
	for i := range start {
		start[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
		if start[i] < 0 {
			return nil, fmt.Errorf("tile: start-edge file entry %d is negative (%d)", i, start[i])
		}
		if i > 0 && start[i] < start[i-1] {
			return nil, fmt.Errorf("tile: start-edge file not monotonic at tile %d (%d after %d)",
				i, start[i], start[i-1])
		}
	}
	if start[0] != 0 {
		return nil, fmt.Errorf("tile: start-edge file begins at %d, want 0", start[0])
	}
	return start, nil
}

func encodeStart(start []int64) []byte {
	buf := make([]byte, len(start)*8)
	for i, s := range start {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(s))
	}
	return buf
}

// encodeStartV3 lays out the extended v3 start-edge file: tuple prefix
// sums followed by byte-offset prefix sums.
func encodeStartV3(start, byteOff []int64) []byte {
	return append(encodeStart(start), encodeStart(byteOff)...)
}

// Degree file layout: uint32 overflow count, then the 2-byte small array,
// then the overflow array. The plain format stores a zero count and 4-byte
// degrees in the "small" position.

func encodeDegreeFile(t *DegreeTable) []byte {
	buf := make([]byte, 4+len(t.Small)*2+len(t.Overflow)*4)
	binary.LittleEndian.PutUint32(buf, uint32(len(t.Overflow)))
	p := 4
	for _, s := range t.Small {
		binary.LittleEndian.PutUint16(buf[p:], s)
		p += 2
	}
	for _, o := range t.Overflow {
		binary.LittleEndian.PutUint32(buf[p:], o)
		p += 4
	}
	return buf
}

func encodePlainDegreeFile(deg []uint32) []byte {
	buf := make([]byte, 4+len(deg)*4)
	p := 4
	for _, d := range deg {
		binary.LittleEndian.PutUint32(buf[p:], d)
		p += 4
	}
	return buf
}

func decodeDegreeFile(data []byte, numVertices int, format string) (DegreeSource, error) {
	if len(data) < 4 {
		return nil, io.ErrUnexpectedEOF
	}
	nOver := int(binary.LittleEndian.Uint32(data))
	if format == "plain" {
		if nOver != 0 || len(data) != 4+numVertices*4 {
			return nil, fmt.Errorf("tile: corrupt plain degree file (%d bytes)", len(data))
		}
		deg := make(PlainDegrees, numVertices)
		for v := 0; v < numVertices; v++ {
			deg[v] = binary.LittleEndian.Uint32(data[4+v*4:])
		}
		return deg, nil
	}
	want := 4 + numVertices*2 + nOver*4
	if len(data) != want {
		return nil, fmt.Errorf("tile: corrupt degree file: %d bytes, want %d", len(data), want)
	}
	t := &DegreeTable{
		Small:    make([]uint16, numVertices),
		Overflow: make([]uint32, nOver),
	}
	p := 4
	for v := 0; v < numVertices; v++ {
		t.Small[v] = binary.LittleEndian.Uint16(data[p:])
		p += 2
	}
	for i := 0; i < nOver; i++ {
		t.Overflow[i] = binary.LittleEndian.Uint32(data[p:])
		p += 4
	}
	for v := 0; v < numVertices; v++ {
		if s := t.Small[v]; s&degreeEscape != 0 && int(s&^degreeEscape) >= nOver {
			return nil, fmt.Errorf("tile: degree escape for vertex %d out of range", v)
		}
	}
	return t, nil
}
