package algo

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// MSBFS runs up to 64 breadth-first searches concurrently in one pass
// over the graph, the batched formulation of concurrent BFS the paper
// cites as iBFS [22]. Every vertex carries three 64-bit masks:
//
//	visited[v] — bit i set if source i had reached v when the current
//	             iteration began,
//	cur[v]     — bit i set while v is on source i's current frontier,
//	next[v]    — bit i set once this iteration has brought source i to v.
//
// One tuple inspection advances all sources at once: the new frontier
// bits of d are cur[s] &^ (visited[d] | next[d]). Sharing the graph pass
// across sources amortizes the I/O that dominates semi-external BFS — one
// stream of the tiles serves 64 traversals.
//
// Depths are recovered per source from the iteration at which each
// visited bit was set.
type MSBFS struct {
	Roots []uint32

	ctx     *Context
	visited []uint64
	cur     []uint64
	next    []uint64
	// depth[i*|V|+v] = depth of v from source i (-1 unreached), filled
	// when bits first appear.
	depth   []int32
	level   int32
	added   atomic.Int64
	curRow  *bitset
	nextRow *bitset
	tiles   retirement
}

// NewMSBFS returns a kernel traversing from up to 64 roots at once.
func NewMSBFS(roots []uint32) *MSBFS { return &MSBFS{Roots: roots} }

// Name implements Algorithm.
func (m *MSBFS) Name() string { return "msbfs" }

// Init implements Algorithm.
func (m *MSBFS) Init(ctx *Context) error {
	if err := ctx.validate(); err != nil {
		return err
	}
	if len(m.Roots) == 0 || len(m.Roots) > 64 {
		return fmt.Errorf("msbfs: %d roots, want 1..64", len(m.Roots))
	}
	for i, r := range m.Roots {
		if r >= ctx.NumVertices {
			return fmt.Errorf("msbfs: root %d (#%d) outside vertex space %d", r, i, ctx.NumVertices)
		}
	}
	m.ctx = ctx
	n := int(ctx.NumVertices)
	m.visited = make([]uint64, n)
	m.cur = make([]uint64, n)
	m.next = make([]uint64, n)
	m.depth = make([]int32, n*len(m.Roots))
	for i := range m.depth {
		m.depth[i] = -1
	}
	m.curRow = newBitset(ctx.Layout.P)
	m.nextRow = newBitset(ctx.Layout.P)
	m.tiles = newRetirement(ctx.Layout)
	for i, r := range m.Roots {
		bit := uint64(1) << uint(i)
		m.visited[r] |= bit
		m.cur[r] |= bit
		m.depth[i*n+int(r)] = 0
		m.curRow.Set(ctx.Layout.TileOf(r))
	}
	return nil
}

// Depth returns the depth array of source i (aliasing internal storage).
func (m *MSBFS) Depth(i int) []int32 {
	n := int(m.ctx.NumVertices)
	return m.depth[i*n : (i+1)*n]
}

// BeforeIteration implements Algorithm.
func (m *MSBFS) BeforeIteration(iter int) {
	m.level = int32(iter)
	m.added.Store(0)
}

// ProcessEdges implements Algorithm. visited and cur do not change while an
// iteration runs; what it discovers collects in next, which only gains bits
// by CAS, so batches of one tile are as safe to run concurrently as tiles
// that share a vertex range. f and r are the frontier bits the tuple carries
// forward and — under symmetry storage — backward; "neither" is the one
// branch per tuple and nearly always taken. As in BFS.ProcessEdges a tuple
// stays live for the roots that had visited neither endpoint when the
// iteration began, and the tile retires once no tuple is live for any root:
// the full-mask rule, so one root that reaches little keeps every tile for
// its batch mates. Discoveries are counted per batch and flushed with at
// most three atomics, as in BFS.
func (m *MSBFS) ProcessEdges(_ int, row, col uint32, src, dst []uint32) {
	cur, visited, next := m.cur, m.visited[:len(m.cur)], m.next[:len(m.cur)]
	dst = dst[:len(src)]
	var oneWay uint64 // all ones unless the mirrored direction applies
	if !m.ctx.Half {
		oneWay = ^uint64(0)
	}
	var fwd, rev int64 // vertices that gained bits in the col and row ranges
	seen := ^uint64(0) // roots that had visited an endpoint of every tuple
	for i, s := range src {
		d := dst[i]
		vs, vd := visited[s], visited[d]
		seen &= vs | vd
		f := cur[s] &^ (vd | atomic.LoadUint64(&next[d]))
		r := cur[d] &^ (vs | atomic.LoadUint64(&next[s]) | oneWay)
		if f|r != 0 {
			fwd += m.spread(d, f)
			rev += m.spread(s, r)
		}
	}
	if fwd > 0 {
		m.nextRow.Set(col)
	}
	if rev > 0 {
		m.nextRow.Set(row)
	}
	if fwd+rev > 0 {
		m.added.Add(fwd + rev)
	}
	m.tiles.observe(row, col, ^seen<<(64-uint(len(m.Roots))) != 0) // full mask
}

// spread adds the frontier bits f to next[v] and reports whether (1 or 0)
// any of them was new this iteration.
func (m *MSBFS) spread(v uint32, f uint64) int64 {
	p := &m.next[v]
	for {
		old := atomic.LoadUint64(p)
		add := f &^ old
		if add == 0 {
			return 0
		}
		if !atomic.CompareAndSwapUint64(p, old, old|add) {
			continue
		}
		// Record depths for the sources that just arrived.
		n := int(m.ctx.NumVertices)
		for rest := add; rest != 0; rest &= rest - 1 {
			m.depth[bits.TrailingZeros64(rest)*n+int(v)] = m.level + 1
		}
		return 1
	}
}

// AfterIteration implements Algorithm.
func (m *MSBFS) AfterIteration(int) bool {
	done := m.added.Load() == 0
	for v, n := range m.next {
		m.visited[v] |= n // one pass instead of an atomic per discovery
	}
	m.cur, m.next = m.next, m.cur
	clear(m.next)
	m.curRow, m.nextRow = m.nextRow, m.curRow
	m.nextRow.Clear()
	m.tiles.fold()
	return done
}

// NeedTileThisIter implements Algorithm.
func (m *MSBFS) NeedTileThisIter(row, col uint32) bool {
	return (m.curRow.Has(row) || m.ctx.Half && m.curRow.Has(col)) && !m.tiles.retired(row, col)
}

// NeedTileNextIter implements Algorithm.
func (m *MSBFS) NeedTileNextIter(row, col uint32) bool {
	return (m.nextRow.Has(row) || m.ctx.Half && m.nextRow.Has(col)) && !m.tiles.retired(row, col)
}

// MetadataBytes implements Algorithm: three masks, the per-source depth
// matrix, the two frontier row maps and the tile retirement bitmaps.
func (m *MSBFS) MetadataBytes() int64 {
	return int64(len(m.visited)+len(m.cur)+len(m.next))*8 + int64(len(m.depth))*4 +
		m.curRow.SizeBytes() + m.nextRow.SizeBytes() + m.tiles.sizeBytes()
}
