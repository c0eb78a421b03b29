// Package algo implements the graph algorithms the engine ships as edge
// kernels: the three of the paper's evaluation (§II-B) — breadth-first
// search, PageRank and weakly connected components — plus asynchronous
// BFS, multi-source BFS, personalized PageRank and strongly connected
// components. A kernel never sees tile bytes: the engine decodes every
// tile (whatever its codec) and hands the kernel batches of full-ID edges.
// Each algorithm also exposes the metadata hooks the engine needs for
// selective fetching (§V-B) and proactive caching (§VI-C): which tiles it
// needs this iteration and which it predicts it will need next iteration.
package algo

import (
	"fmt"

	"github.com/gwu-systems/gstore/internal/grid"
	"github.com/gwu-systems/gstore/internal/tile"
)

// Context is what the engine hands an algorithm at initialization.
type Context struct {
	NumVertices uint32
	Layout      *grid.Layout
	Directed    bool
	// Half reports upper-triangle (symmetry) storage: kernels must then
	// process every edge in both directions (Algorithm 1 in the paper).
	Half bool
	// Degrees supplies vertex degrees; nil unless the graph was converted
	// with degree output. PageRank requires it.
	Degrees tile.DegreeSource
	// Workers is the number of goroutines that will call ProcessEdges,
	// each with a stable ID in [0, Workers). Kernels size their
	// per-worker state from it; it must be at least 1.
	Workers int
}

func (c *Context) validate() error {
	if c.NumVertices == 0 || c.Layout == nil || c.Workers < 1 {
		return fmt.Errorf("algo: incomplete context")
	}
	return nil
}

// Algorithm is the engine-facing interface of an edge kernel.
//
// The engine guarantees: Init once; then for each iteration a
// BeforeIteration call, any number of concurrent ProcessEdges calls (from
// multiple goroutines), then one AfterIteration call. NeedTileThisIter is
// only called between AfterIteration and the next iteration's processing;
// NeedTileNextIter may be called concurrently with ProcessEdges (it reads
// partially accumulated next-iteration metadata, which is exactly the
// paper's "partial information" caching, §VI-C Rule 2).
type Algorithm interface {
	// Name is a short identifier ("bfs", "pagerank", "wcc").
	Name() string
	// Init allocates algorithmic metadata.
	Init(ctx *Context) error
	// BeforeIteration prepares iteration iter (0-based).
	BeforeIteration(iter int)
	// ProcessEdges consumes one batch of edges of tile (row, col) on
	// behalf of worker (0 <= worker < Context.Workers): edge i runs from
	// src[i] to dst[i], both full vertex IDs, and len(src) == len(dst) is
	// at most tile.V3BlockTuples. The slices are the caller's scratch and
	// are overwritten after the call returns.
	//
	// Over an iteration the batches of a tile partition its edges, and
	// batches of one tile — like tiles sharing a vertex range — may be
	// processed concurrently by different workers, so updates to shared
	// metadata must be atomic. Two calls with the same worker ID never run
	// concurrently, so state indexed by worker needs no synchronization
	// (FlashGraph per-thread partitioning; BigSparse merge-reduce); it is
	// reduced in AfterIteration, after every batch of the iteration.
	ProcessEdges(worker int, row, col uint32, src, dst []uint32)
	// AfterIteration finishes iteration iter and reports convergence.
	AfterIteration(iter int) (done bool)
	// NeedTileThisIter reports whether tile (row, col) must be processed
	// in the upcoming iteration (selective fetching).
	NeedTileThisIter(row, col uint32) bool
	// NeedTileNextIter predicts whether the tile will be needed in the
	// following iteration (proactive caching). May be conservative.
	NeedTileNextIter(row, col uint32) bool
	// MetadataBytes reports the memory the algorithm's metadata occupies
	// (the paper's Table III memory accounting).
	MetadataBytes() int64
}
