// Package mem implements G-Store's copy-based memory management for
// streaming and caching graph data (§VI-A of the paper).
//
// The memory reserved for graph data is split into two fixed-size
// *segments* and a *cache pool*. The two segments double-buffer I/O and
// processing: one is being filled from disk while the other is processed.
// Instead of page-granular caching (whose headers and fragmentation the
// paper rejects), a processed segment's tiles are appended — copied — into
// the cache pool, and when the pool fills, a caller-supplied predicate
// (the proactive caching rules of §VI-C) decides which tiles survive the
// compaction.
//
// The Manager is not safe for concurrent mutation; the engine serializes
// pool operations between processing phases, which matches the paper's
// design (cache analysis happens only when the pool is full, at Ti in
// Figure 8).
package mem

import "fmt"

// TileRef locates one tile's data inside a segment or the cache pool.
type TileRef struct {
	// DiskIdx is the tile's disk-order index (grid.Layout coordinates can
	// be recovered from it).
	DiskIdx int
	Row     uint32
	Col     uint32
	// Data aliases the owning buffer. It is invalidated by pool
	// compaction; engines must not hold refs across Evict.
	Data []byte
}

// Segment is one streaming buffer. The engine fills Buf from disk with a
// single batched read of consecutive tiles and then registers the tile
// boundaries with SetTiles.
type Segment struct {
	Buf   []byte
	tiles []TileRef
	inUse bool
}

// SetTiles records which tiles the segment currently holds. The refs'
// Data slices must alias s.Buf.
func (s *Segment) SetTiles(refs []TileRef) {
	s.tiles = append(s.tiles[:0], refs...)
}

// Tiles returns the registered tiles.
func (s *Segment) Tiles() []TileRef { return s.tiles }

// Stats reports memory-manager activity.
type Stats struct {
	// CopiedBytes counts bytes memcpy'd into the pool (the cost of the
	// copy-based scheme).
	CopiedBytes int64
	// EvictedTiles counts tiles dropped by pool compactions.
	EvictedTiles int64
	// DroppedTiles counts tiles that could not be cached for lack of
	// space even after compaction.
	DroppedTiles int64
	// Compactions counts Evict calls.
	Compactions int64
}

// Manager owns the streaming segments and the cache pool.
type Manager struct {
	segmentSize int64
	segments    [2]*Segment

	pool      []byte
	poolUsed  int64
	poolTiles []TileRef
	byDisk    map[int]int // DiskIdx -> index into poolTiles

	stats Stats
}

// NewManager divides totalBytes of graph-data memory into two segments of
// segmentSize and a cache pool with the remainder (which may be zero; the
// paper's "base policy" ablation runs pool-less).
func NewManager(totalBytes, segmentSize int64) (*Manager, error) {
	if segmentSize <= 0 {
		return nil, fmt.Errorf("mem: segment size %d must be positive", segmentSize)
	}
	if totalBytes < 2*segmentSize {
		return nil, fmt.Errorf("mem: total %d cannot hold two %d-byte segments", totalBytes, segmentSize)
	}
	m := &Manager{
		segmentSize: segmentSize,
		pool:        make([]byte, totalBytes-2*segmentSize),
		byDisk:      make(map[int]int),
	}
	for i := range m.segments {
		m.segments[i] = &Segment{Buf: make([]byte, segmentSize)}
	}
	return m, nil
}

// SegmentSize returns the configured streaming segment size.
func (m *Manager) SegmentSize() int64 { return m.segmentSize }

// PoolCap returns the cache pool capacity in bytes.
func (m *Manager) PoolCap() int64 { return int64(len(m.pool)) }

// PoolUsed returns the bytes currently cached.
func (m *Manager) PoolUsed() int64 { return m.poolUsed }

// Stats returns a snapshot of activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// Acquire returns a free segment for I/O, or nil if both are in use.
func (m *Manager) Acquire() *Segment {
	for _, s := range m.segments {
		if !s.inUse {
			s.inUse = true
			s.tiles = s.tiles[:0]
			return s
		}
	}
	return nil
}

// Release returns a segment to the free list without caching its tiles
// (used at iteration end, when Figure 8 keeps the last segments for the
// rewind instead of analyzing them).
func (m *Manager) Release(s *Segment) {
	s.inUse = false
	s.tiles = s.tiles[:0]
}

// Retire copies the segment's tiles into the cache pool and frees the
// segment. Tiles that do not fit are dropped (counted in stats). keep
// filters which tiles are worth caching at all (nil keeps everything);
// when the pool is too full, the engine is expected to call Evict first.
func (m *Manager) Retire(s *Segment, keep func(ref TileRef) bool) {
	for _, ref := range s.tiles {
		if keep != nil && !keep(ref) {
			continue
		}
		if m.CachedData(ref.DiskIdx) != nil {
			continue // already cached (rewind can re-process pool tiles)
		}
		n := int64(len(ref.Data))
		if m.poolUsed+n > int64(len(m.pool)) {
			m.stats.DroppedTiles++
			continue
		}
		dst := m.pool[m.poolUsed : m.poolUsed+n]
		copy(dst, ref.Data)
		m.stats.CopiedBytes += n
		m.byDisk[ref.DiskIdx] = len(m.poolTiles)
		m.poolTiles = append(m.poolTiles, TileRef{
			DiskIdx: ref.DiskIdx, Row: ref.Row, Col: ref.Col, Data: dst,
		})
		m.poolUsed += n
	}
	m.Release(s)
}

// WouldFit reports whether n more bytes fit in the pool without eviction.
func (m *Manager) WouldFit(n int64) bool {
	return m.poolUsed+n <= int64(len(m.pool))
}

// CachedData returns the pooled data of the tile at diskIdx, or nil.
func (m *Manager) CachedData(diskIdx int) []byte {
	i, ok := m.byDisk[diskIdx]
	if !ok {
		return nil
	}
	return m.poolTiles[i].Data
}

// CachedTiles returns the pool contents in insertion order. The slice and
// the refs' Data are invalidated by Evict.
func (m *Manager) CachedTiles() []TileRef { return m.poolTiles }

// Evict compacts the pool, keeping only tiles for which keep returns
// true. This is the cache-analysis step of Figure 8 (time Ti): the
// proactive caching rules supply keep. All previously returned refs are
// invalidated. It returns the number of bytes freed.
func (m *Manager) Evict(keep func(ref TileRef) bool) int64 {
	m.stats.Compactions++
	freed := int64(0)
	var used int64
	kept := m.poolTiles[:0]
	for _, ref := range m.poolTiles {
		if keep != nil && !keep(ref) {
			delete(m.byDisk, ref.DiskIdx)
			m.stats.EvictedTiles++
			freed += int64(len(ref.Data))
			continue
		}
		n := int64(len(ref.Data))
		dst := m.pool[used : used+n]
		if n > 0 && &dst[0] != &ref.Data[0] {
			copy(dst, ref.Data) // memmove-style compaction (§VI-B)
		}
		ref.Data = dst
		m.byDisk[ref.DiskIdx] = len(kept)
		kept = append(kept, ref)
		used += n
	}
	m.poolTiles = kept
	m.poolUsed = used
	return freed
}

// EvictOldest makes room for need more bytes by evicting pooled tiles in
// insertion order — oldest first, the LRU approximation of a pool that is
// only ever appended to — compacting the survivors left in the same
// single pass. It returns the bytes freed and the tiles evicted. A need
// larger than the pool empties it; a need that already fits is a no-op
// (no compaction, no ref invalidation). All previously returned refs are
// invalidated when eviction happens.
func (m *Manager) EvictOldest(need int64) (freed int64, evicted int) {
	target := int64(len(m.pool)) - need
	if target < 0 {
		target = 0
	}
	if m.poolUsed <= target {
		return 0, 0
	}
	m.stats.Compactions++
	var used int64
	kept := m.poolTiles[:0]
	for _, ref := range m.poolTiles {
		if m.poolUsed-freed > target {
			delete(m.byDisk, ref.DiskIdx)
			m.stats.EvictedTiles++
			freed += int64(len(ref.Data))
			evicted++
			continue
		}
		n := int64(len(ref.Data))
		dst := m.pool[used : used+n]
		if n > 0 && &dst[0] != &ref.Data[0] {
			copy(dst, ref.Data) // memmove-style compaction (§VI-B)
		}
		ref.Data = dst
		m.byDisk[ref.DiskIdx] = len(kept)
		kept = append(kept, ref)
		used += n
	}
	m.poolTiles = kept
	m.poolUsed = used
	return freed, evicted
}

// Clear drops the whole pool (used between algorithm runs).
func (m *Manager) Clear() {
	m.poolTiles = m.poolTiles[:0]
	m.poolUsed = 0
	for k := range m.byDisk {
		delete(m.byDisk, k)
	}
}
