package algo

import (
	"fmt"
	"sync/atomic"
)

// MSBFS runs up to 64 breadth-first searches concurrently in one pass
// over the graph, the batched formulation of concurrent BFS the paper
// cites as iBFS [22]. Every vertex carries two 64-bit masks:
//
//	visited[v] — bit i set once source i has reached v,
//	cur[v]     — bit i set while v is on source i's current frontier.
//
// One tuple inspection advances all sources at once: the new frontier
// bits of d are cur[s] &^ visited[d]. Sharing the graph pass across
// sources amortizes the I/O that dominates semi-external BFS — one
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

// ProcessEdges implements Algorithm. The masks only ever gain bits and
// every update is a CAS, so batches of one tile are as safe to run
// concurrently as tiles that share a vertex range.
func (m *MSBFS) ProcessEdges(_ int, row, col uint32, src, dst []uint32) {
	half := m.ctx.Half
	for i, s := range src {
		d := dst[i]
		if f := atomic.LoadUint64(&m.cur[s]) &^ atomic.LoadUint64(&m.visited[d]); f != 0 {
			m.spread(d, f, col)
		}
		if half {
			if f := atomic.LoadUint64(&m.cur[d]) &^ atomic.LoadUint64(&m.visited[s]); f != 0 {
				m.spread(s, f, row)
			}
		}
	}
}

// spread installs the new frontier bits f at vertex v (tile index t).
func (m *MSBFS) spread(v uint32, f uint64, t uint32) {
	for {
		old := atomic.LoadUint64(&m.visited[v])
		add := f &^ old
		if add == 0 {
			return
		}
		if !atomic.CompareAndSwapUint64(&m.visited[v], old, old|add) {
			continue
		}
		orUint64(&m.next[v], add)
		m.nextRow.Set(t)
		m.added.Add(1)
		// Record depths for the sources that just arrived.
		n := int(m.ctx.NumVertices)
		for rest := add; rest != 0; {
			i := trailingZeros(rest)
			rest &^= 1 << uint(i)
			m.depth[i*n+int(v)] = m.level + 1
		}
		return
	}
}

func orUint64(p *uint64, v uint64) {
	for {
		old := atomic.LoadUint64(p)
		if old&v == v {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, old|v) {
			return
		}
	}
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// AfterIteration implements Algorithm.
func (m *MSBFS) AfterIteration(int) bool {
	done := m.added.Load() == 0
	m.cur, m.next = m.next, m.cur
	for i := range m.next {
		m.next[i] = 0
	}
	m.curRow, m.nextRow = m.nextRow, m.curRow
	m.nextRow.Clear()
	return done
}

// NeedTileThisIter implements Algorithm.
func (m *MSBFS) NeedTileThisIter(row, col uint32) bool {
	if m.curRow.Has(row) {
		return true
	}
	return m.ctx.Half && m.curRow.Has(col)
}

// NeedTileNextIter implements Algorithm.
func (m *MSBFS) NeedTileNextIter(row, col uint32) bool {
	if m.nextRow.Has(row) {
		return true
	}
	return m.ctx.Half && m.nextRow.Has(col)
}

// MetadataBytes implements Algorithm: three masks plus the per-source
// depth matrix.
func (m *MSBFS) MetadataBytes() int64 {
	return int64(len(m.visited)+len(m.cur)+len(m.next))*8 +
		int64(len(m.depth))*4 + m.curRow.SizeBytes() + m.nextRow.SizeBytes()
}
