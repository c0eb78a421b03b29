package algo

import (
	"fmt"
	"sync/atomic"
)

// BFS is the level-synchronous breadth-first search kernel. On
// symmetry-stored (half) undirected graphs it applies the paper's
// Algorithm 1: every tuple is checked in both directions, which is the
// small code change that lets BFS run on the upper triangle alone.
//
// Depth values double as the frontier (depth[v] == current level marks v
// as a frontier vertex), and per-tile-row frontier bitmaps drive the
// selective fetching of §V-B: in the last iterations of BFS only a few
// tiles contain frontier work and only those are read.
type BFS struct {
	Root uint32

	ctx     *Context
	depth   []int32
	level   int32
	added   atomic.Int64
	curRow  *bitset // tile rows containing current-frontier vertices
	nextRow *bitset
	tiles   retirement
}

// NewBFS returns a BFS kernel rooted at root.
func NewBFS(root uint32) *BFS { return &BFS{Root: root} }

// Name implements Algorithm.
func (b *BFS) Name() string { return "bfs" }

// Init implements Algorithm.
func (b *BFS) Init(ctx *Context) error {
	if err := ctx.validate(); err != nil {
		return err
	}
	if b.Root >= ctx.NumVertices {
		return fmt.Errorf("bfs: root %d outside vertex space %d", b.Root, ctx.NumVertices)
	}
	b.ctx = ctx
	b.depth = make([]int32, ctx.NumVertices)
	for i := range b.depth {
		b.depth[i] = -1
	}
	b.curRow = newBitset(ctx.Layout.P)
	b.nextRow = newBitset(ctx.Layout.P)
	b.tiles = newRetirement(ctx.Layout)
	b.depth[b.Root] = 0
	b.curRow.Set(ctx.Layout.TileOf(b.Root))
	return nil
}

// Depths returns the result after the run (InfDepth convention of
// internal/graph: -1 means unreached).
func (b *BFS) Depths() []int32 { return b.depth }

// BeforeIteration implements Algorithm.
func (b *BFS) BeforeIteration(iter int) {
	b.level = int32(iter)
	b.added.Store(0)
}

// ProcessEdges implements Algorithm. Almost every tuple discovers nothing,
// and which ones do is data-dependent, so the test is arithmetic: fz is
// zero exactly when src is on the frontier and dst unvisited, rz the same
// for the mirrored direction of Algorithm 1 (lines 8–10; forced non-zero
// unless only the upper triangle is stored), and the one branch taken per
// tuple — "no discovery" — is taken all but at most |V| times a run.
//
// A tuple can discover something in a later iteration only if one endpoint
// is on a later frontier while the other is still unvisited, so it is spent
// as soon as either endpoint has depth in [0, level]: that endpoint's turn
// on the frontier is this iteration or has passed, and it can never be
// discovered. The tile stays live while some tuple has neither — late, the
// largest "earlier endpoint" of the batch as unsigned depths, exceeds level.
// Depths in [0, level] were settled before the iteration began, so the
// verdict does not depend on how batches race, and it is the same test for
// symmetric and directed storage.
//
// The depth CAS must stay atomic (batches race on shared vertices), but the
// frontier bitmap and the counters are pure bookkeeping: a batch touches
// only its tile's row and column ranges, so discoveries are counted in
// stack-local accumulators and flushed once per batch.
func (b *BFS) ProcessEdges(_ int, row, col uint32, src, dst []uint32) {
	level := b.level
	depth := b.depth
	dst = dst[:len(src)]
	var oneWay uint32 // all ones unless the mirrored direction applies
	if !b.ctx.Half {
		oneWay = ^uint32(0)
	}
	var fwd, rev int64 // discoveries in the col and row ranges
	var late uint32    // max over tuples of the earlier endpoint's depth, −1 being latest
	for i, s := range src {
		d := dst[i]
		ds, dd := atomic.LoadInt32(&depth[s]), atomic.LoadInt32(&depth[d])
		late = max(late, min(uint32(ds), uint32(dd)))
		fz := uint32(ds^level) | ^uint32(dd)
		rz := uint32(dd^level) | ^uint32(ds) | oneWay
		if fz != 0 && rz != 0 {
			continue
		}
		if fz == 0 {
			if atomic.CompareAndSwapInt32(&depth[d], -1, level+1) {
				fwd++
			}
		} else if atomic.CompareAndSwapInt32(&depth[s], -1, level+1) {
			rev++
		}
	}
	if fwd > 0 {
		b.nextRow.Set(col)
	}
	if rev > 0 {
		b.nextRow.Set(row)
	}
	if fwd+rev > 0 {
		b.added.Add(fwd + rev)
	}
	b.tiles.observe(row, col, late > uint32(level))
}

// AfterIteration implements Algorithm.
func (b *BFS) AfterIteration(int) bool {
	done := b.added.Load() == 0
	b.curRow, b.nextRow = b.nextRow, b.curRow
	b.nextRow.Clear()
	b.tiles.fold()
	return done
}

// NeedTileThisIter implements Algorithm. A tile can produce work when the
// frontier intersects its source range — or, under symmetry storage, its
// destination range — unless it has retired.
func (b *BFS) NeedTileThisIter(row, col uint32) bool {
	return (b.curRow.Has(row) || b.ctx.Half && b.curRow.Has(col)) && !b.tiles.retired(row, col)
}

// NeedTileNextIter implements Algorithm: the proactive caching rule of
// §VI-C in its exact form. The next frontier is only partly known while the
// iteration runs, so any tile that has not retired is conservatively kept;
// a retired one is never needed again. The answer changes only in
// AfterIteration, so it does not depend on when the engine asks.
func (b *BFS) NeedTileNextIter(row, col uint32) bool { return !b.tiles.retired(row, col) }

// MetadataBytes implements Algorithm: the depth array, the two frontier
// row maps and the tile retirement bitmaps.
func (b *BFS) MetadataBytes() int64 {
	return int64(len(b.depth))*4 + b.curRow.SizeBytes() + b.nextRow.SizeBytes() + b.tiles.sizeBytes()
}
