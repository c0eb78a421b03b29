// Package grid implements the 2D tile partitioning and on-disk physical
// grouping of G-Store (§IV–§V of the paper).
//
// The adjacency matrix of a graph with V vertices is cut into P×P tiles of
// 2^TileBits vertices per side (the paper fixes TileBits=16 so in-tile
// vertex offsets fit in two bytes; tests use smaller widths). Tiles are
// aggregated into Q×Q physical groups that are laid out contiguously on
// disk so that one group's algorithmic metadata fits in the last-level
// cache (Figure 6).
//
// On-disk order: physical groups in row-major order over the group grid;
// inside a group, tiles in row-major order. For undirected graphs only the
// upper triangle (row <= col) is stored — the symmetry saving of §IV-A.
package grid

import "fmt"

// MaxTileBits bounds the tile width so in-tile offsets fit in uint16,
// which is what the smallest-number-of-bits tuple encoding requires.
const MaxTileBits = 16

// Coord addresses one tile by its row and column in the tile grid.
type Coord struct {
	Row, Col uint32
}

// Layout describes the tile grid and its physical grouping.
type Layout struct {
	TileBits uint   // log2 of the tile width
	P        uint32 // tiles per side
	Q        uint32 // group width, in tiles
	Half     bool   // store only the upper triangle (undirected graphs)

	diskIndex []int32 // (row*P+col) -> disk-ordered tile index, -1 if unstored
	tiles     []Coord // disk-ordered tile index -> coordinates
}

// New builds a layout for numVertices vertices. q is the physical group
// width in tiles (clamped to [1, P]); half selects upper-triangle storage.
func New(numVertices uint32, tileBits uint, q uint32, half bool) (*Layout, error) {
	if tileBits == 0 || tileBits > MaxTileBits {
		return nil, fmt.Errorf("grid: tile bits %d out of range [1,%d]", tileBits, MaxTileBits)
	}
	if numVertices == 0 {
		return nil, fmt.Errorf("grid: zero vertices")
	}
	width := uint32(1) << tileBits
	p := (numVertices + width - 1) / width
	const maxP = 1 << 14
	if p > maxP {
		return nil, fmt.Errorf("grid: %d tiles per side exceeds limit %d; increase tile bits", p, maxP)
	}
	if q == 0 {
		q = 1
	}
	if q > p {
		q = p
	}
	l := &Layout{TileBits: tileBits, P: p, Q: q, Half: half}
	l.buildIndex()
	return l, nil
}

func (l *Layout) buildIndex() {
	p := int(l.P)
	l.diskIndex = make([]int32, p*p)
	for i := range l.diskIndex {
		l.diskIndex[i] = -1
	}
	idx := int32(0)
	l.forEachDiskOrder(func(row, col uint32) {
		l.diskIndex[int(row)*p+int(col)] = idx
		l.tiles = append(l.tiles, Coord{row, col})
		idx++
	})
}

// forEachDiskOrder visits stored tiles in on-disk order.
func (l *Layout) forEachDiskOrder(visit func(row, col uint32)) {
	g := (l.P + l.Q - 1) / l.Q
	for gi := uint32(0); gi < g; gi++ {
		for gj := uint32(0); gj < g; gj++ {
			if l.Half && gj < gi {
				continue // entire group below the diagonal
			}
			rEnd := min32((gi+1)*l.Q, l.P)
			cEnd := min32((gj+1)*l.Q, l.P)
			for r := gi * l.Q; r < rEnd; r++ {
				for c := gj * l.Q; c < cEnd; c++ {
					if l.Half && c < r {
						continue
					}
					visit(r, c)
				}
			}
		}
	}
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// TileWidth returns the number of vertices per tile side.
func (l *Layout) TileWidth() uint32 { return 1 << l.TileBits }

// TileOf returns the tile-grid coordinate of vertex v along either axis.
func (l *Layout) TileOf(v uint32) uint32 { return v >> l.TileBits }

// InTileOffset returns v's offset within its tile (the low TileBits bits —
// the part that the SNB encoding stores).
func (l *Layout) InTileOffset(v uint32) uint16 {
	return uint16(v & (l.TileWidth() - 1))
}

// NumTiles returns the number of stored tiles.
func (l *Layout) NumTiles() int { return len(l.tiles) }

// NumGroups returns the number of physical groups per side of the group
// grid.
func (l *Layout) NumGroups() uint32 { return (l.P + l.Q - 1) / l.Q }

// DiskIndex returns the on-disk position of tile (row, col), or -1 if that
// tile is not stored (lower triangle of a half layout, or out of range).
func (l *Layout) DiskIndex(row, col uint32) int {
	if row >= l.P || col >= l.P {
		return -1
	}
	return int(l.diskIndex[int(row)*int(l.P)+int(col)])
}

// CoordAt returns the coordinates of the tile at disk index i.
func (l *Layout) CoordAt(i int) Coord { return l.tiles[i] }

// Tiles returns all stored tile coordinates in disk order. The slice is
// shared; callers must not modify it.
func (l *Layout) Tiles() []Coord { return l.tiles }

// GroupOf returns the group-grid coordinates of tile (row, col).
func (l *Layout) GroupOf(row, col uint32) (gi, gj uint32) {
	return row / l.Q, col / l.Q
}

// GroupRange returns the half-open disk-index range [lo, hi) of the tiles
// in group (gi, gj). Tiles of one group are always contiguous on disk.
func (l *Layout) GroupRange(gi, gj uint32) (lo, hi int) {
	rEnd := min32((gi+1)*l.Q, l.P)
	cEnd := min32((gj+1)*l.Q, l.P)
	lo = -1
	for r := gi * l.Q; r < rEnd; r++ {
		for c := gj * l.Q; c < cEnd; c++ {
			if l.Half && c < r {
				continue
			}
			di := l.DiskIndex(r, c)
			if di < 0 {
				continue
			}
			if lo < 0 || di < lo {
				lo = di
			}
			if di+1 > hi {
				hi = di + 1
			}
		}
	}
	if lo < 0 {
		return 0, 0
	}
	return lo, hi
}

// StoredCoord maps an arbitrary (row, col) to the coordinate under which
// the tile is physically stored: in a half layout an edge that logically
// belongs to (row, col) with row > col is stored mirrored at (col, row).
func (l *Layout) StoredCoord(row, col uint32) Coord {
	if l.Half && row > col {
		return Coord{col, row}
	}
	return Coord{row, col}
}

// EachStored visits the stored tuple(s) that edge (s, d) becomes, with
// the disk index of the tile holding each. A half layout stores the
// canonical (min, max) direction once; a full layout of an undirected
// graph stores both directions (self loops once), the traditional
// duplicated representation; a directed graph stores the edge as given.
// The converter and the delta layer both map edges through it, so a
// mutation lands on exactly the tuples conversion wrote.
func (l *Layout) EachStored(s, d uint32, directed bool, visit func(di int, src, dst uint32)) {
	if l.Half && s > d {
		s, d = d, s
	}
	visit(l.DiskIndex(l.TileOf(s), l.TileOf(d)), s, d)
	if !directed && !l.Half && s != d {
		visit(l.DiskIndex(l.TileOf(d), l.TileOf(s)), d, s)
	}
}

// VertexRange returns the half-open vertex range [lo, hi) covered along
// one axis by tile index t (row or column).
func (l *Layout) VertexRange(t uint32) (lo, hi uint32) {
	lo = t << l.TileBits
	return lo, lo + l.TileWidth()
}
