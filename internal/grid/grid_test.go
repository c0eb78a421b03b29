package grid

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8, 1, false); err == nil {
		t.Fatal("zero vertices accepted")
	}
	if _, err := New(100, 0, 1, false); err == nil {
		t.Fatal("zero tile bits accepted")
	}
	if _, err := New(100, 17, 1, false); err == nil {
		t.Fatal("tile bits > 16 accepted")
	}
	if _, err := New(1<<30, 2, 1, false); err == nil {
		t.Fatal("absurd tile count accepted")
	}
}

func TestPaperExampleLayout(t *testing.T) {
	// Figure 1(e)/4(a): 8 vertices, 2 partitions per side (tile width 4),
	// undirected upper-triangle storage keeps tiles [0,0], [0,1], [1,1].
	l, err := New(8, 2, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if l.P != 2 {
		t.Fatalf("P = %d, want 2", l.P)
	}
	if l.NumTiles() != 3 {
		t.Fatalf("NumTiles = %d, want 3", l.NumTiles())
	}
	wantOrder := []Coord{{0, 0}, {0, 1}, {1, 1}}
	for i, want := range wantOrder {
		if got := l.CoordAt(i); got != want {
			t.Fatalf("tile %d = %v, want %v", i, got, want)
		}
	}
	if l.DiskIndex(1, 0) != -1 {
		t.Fatal("lower-triangle tile [1,0] should not be stored")
	}
	if got := l.StoredCoord(1, 0); got != (Coord{0, 1}) {
		t.Fatalf("StoredCoord(1,0) = %v", got)
	}
}

func TestFullLayoutStoresAllTiles(t *testing.T) {
	l, err := New(256, 4, 2, false) // 16 tiles/side, 2x2 groups
	if err != nil {
		t.Fatal(err)
	}
	if l.NumTiles() != 16*16 {
		t.Fatalf("NumTiles = %d", l.NumTiles())
	}
	seen := map[Coord]bool{}
	for i := 0; i < l.NumTiles(); i++ {
		c := l.CoordAt(i)
		if seen[c] {
			t.Fatalf("tile %v appears twice", c)
		}
		seen[c] = true
		if l.DiskIndex(c.Row, c.Col) != i {
			t.Fatalf("DiskIndex(%v) = %d, want %d", c, l.DiskIndex(c.Row, c.Col), i)
		}
	}
}

func TestGroupContiguity(t *testing.T) {
	// Disk order must keep each group's tiles contiguous.
	for _, half := range []bool{false, true} {
		l, err := New(1<<10, 6, 4, half) // P=16, Q=4 -> 4x4 groups
		if err != nil {
			t.Fatal(err)
		}
		g := l.NumGroups()
		covered := 0
		for gi := uint32(0); gi < g; gi++ {
			for gj := uint32(0); gj < g; gj++ {
				lo, hi := l.GroupRange(gi, gj)
				if half && gj < gi {
					if lo != hi {
						t.Fatalf("half=%v: group [%d,%d] should be empty", half, gi, gj)
					}
					continue
				}
				for i := lo; i < hi; i++ {
					c := l.CoordAt(i)
					wi, wj := l.GroupOf(c.Row, c.Col)
					if wi != gi || wj != gj {
						t.Fatalf("half=%v: tile %v at %d leaked into group [%d,%d]",
							half, c, i, gi, gj)
					}
				}
				covered += hi - lo
			}
		}
		if covered != l.NumTiles() {
			t.Fatalf("half=%v: group ranges cover %d tiles of %d", half, covered, l.NumTiles())
		}
	}
}

func TestHalfTileCount(t *testing.T) {
	l, err := New(1<<9, 5, 2, true) // P = 16
	if err != nil {
		t.Fatal(err)
	}
	want := 16 * 17 / 2
	if l.NumTiles() != want {
		t.Fatalf("NumTiles = %d, want %d", l.NumTiles(), want)
	}
}

func TestVertexMath(t *testing.T) {
	l, err := New(1<<12, 8, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if l.TileWidth() != 256 {
		t.Fatalf("TileWidth = %d", l.TileWidth())
	}
	if l.TileOf(257) != 1 || l.TileOf(255) != 0 {
		t.Fatal("TileOf wrong")
	}
	if l.InTileOffset(257) != 1 {
		t.Fatalf("InTileOffset(257) = %d", l.InTileOffset(257))
	}
	lo, hi := l.VertexRange(3)
	if lo != 768 || hi != 1024 {
		t.Fatalf("VertexRange(3) = [%d,%d)", lo, hi)
	}
}

func TestRaggedEdge(t *testing.T) {
	// Vertex count not a multiple of tile width: last tile is partial but
	// still addressable.
	l, err := New(1000, 8, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if l.P != 4 {
		t.Fatalf("P = %d, want 4 (ceil(1000/256))", l.P)
	}
	if l.DiskIndex(3, 3) < 0 {
		t.Fatal("last tile unaddressable")
	}
	if l.DiskIndex(4, 4) != -1 {
		t.Fatal("out-of-range tile addressable")
	}
}

func TestQClamping(t *testing.T) {
	l, err := New(1<<8, 4, 999, false) // q > P clamps to P
	if err != nil {
		t.Fatal(err)
	}
	if l.Q != l.P {
		t.Fatalf("Q = %d, want clamped to P = %d", l.Q, l.P)
	}
	if l.NumGroups() != 1 {
		t.Fatalf("NumGroups = %d", l.NumGroups())
	}
	l2, err := New(1<<8, 4, 0, false) // q=0 becomes 1
	if err != nil {
		t.Fatal(err)
	}
	if l2.Q != 1 {
		t.Fatalf("Q = %d, want 1", l2.Q)
	}
}

func TestEachStored(t *testing.T) {
	half, err := New(8, 2, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(8, 2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	type tuple struct {
		di       int
		src, dst uint32
	}
	cases := []struct {
		name     string
		l        *Layout
		directed bool
		s, d     uint32
		want     []tuple
	}{
		{"half canonicalizes", half, false, 5, 1, []tuple{{half.DiskIndex(0, 1), 1, 5}}},
		{"full mirrors", full, false, 5, 1, []tuple{{full.DiskIndex(1, 0), 5, 1}, {full.DiskIndex(0, 1), 1, 5}}},
		{"full self loop once", full, false, 3, 3, []tuple{{full.DiskIndex(0, 0), 3, 3}}},
		{"directed as given", full, true, 5, 1, []tuple{{full.DiskIndex(1, 0), 5, 1}}},
	}
	for _, c := range cases {
		var got []tuple
		c.l.EachStored(c.s, c.d, c.directed, func(di int, src, dst uint32) {
			got = append(got, tuple{di, src, dst})
		})
		if len(got) != len(c.want) {
			t.Fatalf("%s: got %v, want %v", c.name, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%s: got %v, want %v", c.name, got, c.want)
			}
		}
	}
}

// Property: DiskIndex and CoordAt are inverse bijections over stored
// tiles, for any layout shape.
func TestQuickIndexBijection(t *testing.T) {
	f := func(rawV uint32, rawBits, rawQ uint8, half bool) bool {
		v := rawV%(1<<12) + 1
		bits := uint(rawBits)%5 + 4
		q := uint32(rawQ)%8 + 1
		l, err := New(v, bits, q, half)
		if err != nil {
			return true // rejected configs are fine
		}
		for i := 0; i < l.NumTiles(); i++ {
			c := l.CoordAt(i)
			if l.DiskIndex(c.Row, c.Col) != i {
				return false
			}
			if half && c.Row > c.Col {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every (row,col) in range maps to a stored coordinate whose
// disk index is valid.
func TestQuickStoredCoordTotal(t *testing.T) {
	f := func(rawV uint32, rawBits uint8, r, c uint16) bool {
		v := rawV%(1<<12) + 1
		bits := uint(rawBits)%5 + 4
		l, err := New(v, bits, 2, true)
		if err != nil {
			return true
		}
		row, col := uint32(r)%l.P, uint32(c)%l.P
		sc := l.StoredCoord(row, col)
		return sc.Row <= sc.Col && l.DiskIndex(sc.Row, sc.Col) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
