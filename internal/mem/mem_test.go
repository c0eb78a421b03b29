package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func newMgr(t *testing.T, total, seg int64) *Manager {
	t.Helper()
	m, err := NewManager(total, seg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func fillSegment(s *Segment, tiles ...TileRef) {
	off := 0
	for i := range tiles {
		n := len(tiles[i].Data)
		copy(s.Buf[off:off+n], tiles[i].Data)
		tiles[i].Data = s.Buf[off : off+n]
		off += n
	}
	s.SetTiles(tiles)
}

func tileData(diskIdx int, n int) TileRef {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(diskIdx*31 + i)
	}
	return TileRef{DiskIdx: diskIdx, Row: uint32(diskIdx), Col: uint32(diskIdx), Data: d}
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(100, 0); err == nil {
		t.Fatal("zero segment size accepted")
	}
	if _, err := NewManager(100, 60); err == nil {
		t.Fatal("total < 2*segment accepted")
	}
	m := newMgr(t, 1000, 300)
	if m.PoolCap() != 400 {
		t.Fatalf("PoolCap = %d, want 400", m.PoolCap())
	}
	m2 := newMgr(t, 600, 300) // pool-less base policy
	if m2.PoolCap() != 0 {
		t.Fatalf("PoolCap = %d, want 0", m2.PoolCap())
	}
}

func TestAcquireReleaseDoubleBuffer(t *testing.T) {
	m := newMgr(t, 1000, 300)
	a := m.Acquire()
	b := m.Acquire()
	if a == nil || b == nil || a == b {
		t.Fatal("double buffering broken")
	}
	if m.Acquire() != nil {
		t.Fatal("third segment granted")
	}
	m.Release(a)
	if m.Acquire() == nil {
		t.Fatal("released segment not reusable")
	}
}

func TestRetireCachesAndDedups(t *testing.T) {
	m := newMgr(t, 1000, 100)
	s := m.Acquire()
	fillSegment(s, tileData(1, 40), tileData(2, 30))
	m.Retire(s, nil)
	if m.PoolUsed() != 70 {
		t.Fatalf("PoolUsed = %d", m.PoolUsed())
	}
	if got := m.CachedData(1); len(got) != 40 || got[0] != byte(31) {
		t.Fatalf("CachedData(1) = %v", got)
	}
	if m.CachedData(99) != nil {
		t.Fatal("phantom tile cached")
	}

	// Retiring the same tile again must not duplicate it.
	s2 := m.Acquire()
	fillSegment(s2, tileData(1, 40))
	m.Retire(s2, nil)
	if m.PoolUsed() != 70 {
		t.Fatalf("duplicate caching: PoolUsed = %d", m.PoolUsed())
	}
}

func TestRetireKeepFilter(t *testing.T) {
	m := newMgr(t, 1000, 100)
	s := m.Acquire()
	fillSegment(s, tileData(1, 40), tileData(2, 30))
	m.Retire(s, func(r TileRef) bool { return r.DiskIdx == 2 })
	if m.CachedData(1) != nil {
		t.Fatal("filtered tile cached")
	}
	if m.CachedData(2) == nil {
		t.Fatal("kept tile missing")
	}
}

func TestRetireDropsWhenFull(t *testing.T) {
	m := newMgr(t, 260, 100) // pool of 60
	s := m.Acquire()
	fillSegment(s, tileData(1, 40), tileData(2, 30))
	m.Retire(s, nil)
	if m.CachedData(1) == nil {
		t.Fatal("first tile should fit")
	}
	if m.CachedData(2) != nil {
		t.Fatal("second tile cannot fit in 60-byte pool")
	}
	if m.Stats().DroppedTiles != 1 {
		t.Fatalf("DroppedTiles = %d", m.Stats().DroppedTiles)
	}
}

func TestEvictCompacts(t *testing.T) {
	m := newMgr(t, 1000, 100)
	s := m.Acquire()
	fillSegment(s, tileData(1, 40), tileData(2, 30), tileData(3, 20))
	m.Retire(s, nil)
	if m.PoolUsed() != 90 {
		t.Fatalf("PoolUsed = %d", m.PoolUsed())
	}
	freed := m.Evict(func(r TileRef) bool { return r.DiskIdx != 2 })
	if freed != 30 {
		t.Fatalf("freed = %d", freed)
	}
	if m.PoolUsed() != 60 {
		t.Fatalf("PoolUsed after evict = %d", m.PoolUsed())
	}
	// Data must survive compaction intact.
	want := tileData(3, 20)
	if !bytes.Equal(m.CachedData(3), want.Data) {
		t.Fatal("tile 3 corrupted by compaction")
	}
	if m.CachedData(2) != nil {
		t.Fatal("evicted tile still cached")
	}
	if m.Stats().EvictedTiles != 1 || m.Stats().Compactions != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
	// Freed space must be reusable.
	if !m.WouldFit(m.PoolCap() - 60) {
		t.Fatal("WouldFit disagrees with compaction")
	}
}

func TestEvictKeepAllPreservesOrder(t *testing.T) {
	m := newMgr(t, 1000, 100)
	s := m.Acquire()
	fillSegment(s, tileData(5, 10), tileData(6, 10))
	m.Retire(s, nil)
	m.Evict(nil)
	tiles := m.CachedTiles()
	if len(tiles) != 2 || tiles[0].DiskIdx != 5 || tiles[1].DiskIdx != 6 {
		t.Fatalf("tiles = %+v", tiles)
	}
}

func TestClear(t *testing.T) {
	m := newMgr(t, 1000, 100)
	s := m.Acquire()
	fillSegment(s, tileData(1, 40))
	m.Retire(s, nil)
	m.Clear()
	if m.PoolUsed() != 0 || m.CachedData(1) != nil || len(m.CachedTiles()) != 0 {
		t.Fatal("Clear left residue")
	}
}

func TestSegmentReuseClearsTiles(t *testing.T) {
	m := newMgr(t, 1000, 100)
	s := m.Acquire()
	fillSegment(s, tileData(1, 10))
	m.Release(s)
	s2 := m.Acquire()
	if len(s2.Tiles()) != 0 {
		t.Fatal("reacquired segment kept stale tile refs")
	}
}

// Property: after any sequence of retire/evict operations, pool accounting
// is consistent — PoolUsed equals the sum of cached tile sizes, all
// lookups resolve, and data round-trips.
func TestQuickPoolConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		m, err := NewManager(4096, 512)
		if err != nil {
			return false
		}
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0, 1: // retire a segment with 1-3 tiles
				s := m.Acquire()
				if s == nil {
					return false
				}
				var tiles []TileRef
				for i := 0; i <= int(op%3); i++ {
					tiles = append(tiles, tileData(next, int(op%200)+1))
					next++
				}
				fillSegment(s, tiles...)
				m.Retire(s, nil)
			case 2: // evict ~half
				m.Evict(func(r TileRef) bool { return r.DiskIdx%2 == 0 })
			}
			var sum int64
			for _, ref := range m.CachedTiles() {
				sum += int64(len(ref.Data))
				got := m.CachedData(ref.DiskIdx)
				want := tileData(ref.DiskIdx, len(ref.Data))
				if !bytes.Equal(got, want.Data) {
					return false
				}
			}
			if sum != m.PoolUsed() || m.PoolUsed() > m.PoolCap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The engine's LRU eviction uses a counting closure over CachedTiles to
// drop the k oldest tiles; verify that Evict under such a closure frees
// exactly the sum of the dropped tiles' sizes and keeps the rest intact.
func TestEvictCountClosureAccounting(t *testing.T) {
	m := newMgr(t, 1200, 400) // pool of 400
	sizes := []int{50, 70, 30, 90, 60}
	s := m.Acquire()
	var tiles []TileRef
	for i, n := range sizes {
		tiles = append(tiles, tileData(i, n))
	}
	fillSegment(s, tiles...)
	m.Retire(s, nil)

	for _, drop := range []int{0, 2} { // cumulative: first none, then two
		i := 0
		freed := m.Evict(func(TileRef) bool { i++; return i > drop })
		want := int64(0)
		for _, n := range sizes[:drop] {
			want += int64(n)
		}
		if freed != want {
			t.Fatalf("drop %d: freed %d bytes, want %d", drop, freed, want)
		}
		sizes = sizes[drop:]
	}
	if m.PoolUsed() != 30+90+60 {
		t.Fatalf("PoolUsed = %d after evicting first two", m.PoolUsed())
	}
	if m.CachedData(0) != nil || m.CachedData(1) != nil {
		t.Fatal("evicted tiles still cached")
	}
	for i, wantIdx := range []int{2, 3, 4} {
		got := m.CachedTiles()[i]
		if got.DiskIdx != wantIdx {
			t.Fatalf("survivor %d = tile %d, want %d", i, got.DiskIdx, wantIdx)
		}
		want := tileData(wantIdx, len(got.Data))
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("tile %d corrupted by compaction", wantIdx)
		}
	}
	if m.Stats().EvictedTiles != 2 {
		t.Fatalf("EvictedTiles = %d, want 2", m.Stats().EvictedTiles)
	}
}

// Retiring a segment whose tiles exceed the whole pool must drop the
// overflow tile-by-tile, with DroppedTiles matching exactly.
func TestRetireDropCountMatchesStats(t *testing.T) {
	m := newMgr(t, 500, 200) // pool of 100
	s := m.Acquire()
	fillSegment(s, tileData(1, 60), tileData(2, 50), tileData(3, 30), tileData(4, 10))
	m.Retire(s, nil) // 60 fits; 50 doesn't; 30 fits (90); 10 fits (100)
	if m.PoolUsed() != 100 {
		t.Fatalf("PoolUsed = %d, want 100", m.PoolUsed())
	}
	if got := m.Stats().DroppedTiles; got != 1 {
		t.Fatalf("DroppedTiles = %d, want 1", got)
	}

	// A tile larger than the entire pool can never be cached.
	m2 := newMgr(t, 500, 200)
	s2 := m2.Acquire()
	fillSegment(s2, tileData(9, 100))
	m2.Retire(s2, nil)
	if m2.PoolUsed() != 100 {
		t.Fatalf("PoolUsed = %d, want 100 (tile exactly fills the pool)", m2.PoolUsed())
	}
	s3 := m2.Acquire()
	fillSegment(s3, tileData(10, 100))
	m2.Retire(s3, nil) // pool already full: dropped
	if got := m2.Stats().DroppedTiles; got != 1 {
		t.Fatalf("DroppedTiles = %d, want 1", got)
	}
	// Both segments must be free again after retiring.
	if a, b := m2.Acquire(), m2.Acquire(); a == nil || b == nil {
		t.Fatal("segments leaked by Retire")
	}
}
