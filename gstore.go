// Package gstore is a Go implementation of G-Store, the high-performance
// semi-external graph store for trillion-edge processing of Kumar and
// Huang (SC 2016).
//
// G-Store stores a graph as 2D tiles with a smallest-number-of-bits tuple
// encoding (4 bytes per edge), keeps only the upper triangle of undirected
// graphs, groups tiles into cache-sized physical groups on disk, streams
// them with batched asynchronous I/O from a (simulated) SSD array, and
// pipelines I/O with computation under the slide-cache-rewind scheduler
// with proactive, algorithm-aware caching.
//
// Typical use:
//
//	edges, _ := gstore.GenerateKronecker(20, 16, 42)
//	g, _ := gstore.Convert(edges, dir, "kron-20-16", gstore.DefaultConvertOptions())
//	defer g.Close()
//	eng, _ := gstore.NewEngine(g, gstore.DefaultEngineOptions())
//	defer eng.Close()
//	depths, stats, _ := eng.BFS(0)
//
// The subpackages under internal implement the pieces: the tile format
// (internal/tile), the 2D layout (internal/grid), the SCR engine
// (internal/core), the algorithms (internal/algo), the simulated SSD array
// (internal/storage), and re-implementations of the paper's baselines
// (internal/xstream, internal/flashgraph).
package gstore

import (
	"context"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

// Core data types, re-exported from the substrate packages.
type (
	// Edge is a single (src, dst) tuple.
	Edge = graph.Edge
	// EdgeList is an in-memory graph: a vertex count plus edges.
	EdgeList = graph.EdgeList
	// Graph is an opened on-disk tiled graph.
	Graph = tile.Graph
	// ConvertOptions controls edge-list-to-tile conversion.
	ConvertOptions = tile.ConvertOptions
	// EngineOptions configures the SCR engine.
	EngineOptions = core.Options
	// Stats reports an engine run.
	Stats = core.Stats
	// CachePolicy selects the caching strategy.
	CachePolicy = core.CachePolicy
	// GenConfig describes a synthetic graph.
	GenConfig = gen.Config
)

// Cache policies.
const (
	// CacheProactive is the paper's SCR policy: algorithm-aware caching
	// plus the rewind.
	CacheProactive = core.CacheProactive
	// CacheLRU keeps recently streamed tiles.
	CacheLRU = core.CacheLRU
	// CacheNone streams without caching (the base policy).
	CacheNone = core.CacheNone
)

// DefaultConvertOptions returns the paper's conversion configuration
// (tile width 2^16, 256-tile physical groups, symmetry and SNB on).
func DefaultConvertOptions() ConvertOptions { return tile.DefaultConvertOptions() }

// DefaultEngineOptions returns an engine configuration mirroring the
// paper's setup at reproduction scale.
func DefaultEngineOptions() EngineOptions { return core.DefaultOptions() }

// Convert writes edges in the tile format under dir with the given base
// name and returns the opened graph.
func Convert(edges *EdgeList, dir, name string, opts ConvertOptions) (*Graph, error) {
	return tile.Convert(edges, dir, name, opts)
}

// Open opens a previously converted graph from its base path
// (dir/name, without extension).
func Open(basePath string) (*Graph, error) { return tile.Open(basePath) }

// FsckReport is the result of an offline integrity check.
type FsckReport = tile.FsckReport

// FsckFinding is one problem an offline integrity check discovered.
type FsckFinding = tile.FsckFinding

// Fsck validates the graph at basePath offline — header checksum,
// start-array monotonicity, per-tile CRC32C checksums, tuple ranges and
// degree agreement — reporting every problem found rather than stopping
// at the first. It is the library form of `gstore fsck`.
func Fsck(basePath string) *FsckReport { return tile.Fsck(basePath) }

// IntegrityError is returned by engine runs that read a tile whose data
// no longer matches its recorded checksum (after one re-read); it names
// the exact corrupt tile.
type IntegrityError = core.IntegrityError

// GraphStats summarizes tile and physical-group occupancy.
type GraphStats = tile.Stats

// CollectStats computes occupancy statistics from the start-edge index.
func CollectStats(g *Graph) GraphStats { return tile.CollectStats(g) }

// ConvertExternalOptions adds ConvertExternal's staging budget to
// ConvertOptions.
type ConvertExternalOptions = tile.ExternalConvertOptions

// ConvertExternal converts a binary edge-list file (8 bytes per edge)
// without materializing it in memory, for inputs larger than RAM. It is
// the same conversion as Convert; staging beyond the budget spills to
// disk.
func ConvertExternal(edgePath string, numVertices uint32, directed bool,
	dir, name string, opts ConvertExternalOptions) (*Graph, error) {
	return tile.ConvertExternal(edgePath, numVertices, directed, dir, name, opts)
}

// GenerateKronecker produces a Graph500-style Kronecker graph with 2^scale
// vertices and edgeFactor*2^scale undirected edges.
func GenerateKronecker(scale uint, edgeFactor int, seed uint64) (*EdgeList, error) {
	return gen.Generate(gen.Graph500Config(scale, edgeFactor, seed))
}

// GenerateUniform produces a uniform random graph (the paper's
// Random-27-32 family).
func GenerateUniform(scale uint, edgeFactor int, seed uint64) (*EdgeList, error) {
	return gen.Generate(gen.UniformConfig(scale, edgeFactor, seed))
}

// GenerateTwitterLike produces a directed RMAT graph whose skew mimics the
// Twitter follower network used in the paper.
func GenerateTwitterLike(scale uint, edgeFactor int, seed uint64) (*EdgeList, error) {
	return gen.Generate(gen.TwitterLikeConfig(scale, edgeFactor, seed))
}

// Generate produces a graph from an arbitrary configuration.
func Generate(cfg GenConfig) (*EdgeList, error) { return gen.Generate(cfg) }

// Engine runs graph algorithms over an opened graph with the
// slide-cache-rewind scheduler.
type Engine struct {
	e *core.Engine
}

// NewEngine creates an engine over g.
func NewEngine(g *Graph, opts EngineOptions) (*Engine, error) {
	e, err := core.NewEngine(g, opts)
	if err != nil {
		return nil, err
	}
	return &Engine{e: e}, nil
}

// Close releases the engine's workers and storage.
func (e *Engine) Close() { e.e.Close() }

// SetDeltaStore attaches a write path opened with OpenDelta; subsequent
// runs read base ∪ delta (inserted edges visible, deleted edges masked)
// with bit-identical results to a fresh conversion of the mutated graph.
func (e *Engine) SetDeltaStore(ds *DeltaStore) { e.e.SetDeltaStore(ds) }

// BFS runs breadth-first search from root and returns per-vertex depths
// (-1 = unreached) plus run statistics.
func (e *Engine) BFS(root uint32) ([]int32, *Stats, error) {
	b := algo.NewBFS(root)
	st, err := e.e.Run(context.Background(), b)
	if err != nil {
		return nil, nil, err
	}
	return b.Depths(), st, nil
}

// PageRank runs the given number of PageRank iterations and returns the
// rank vector plus run statistics.
func (e *Engine) PageRank(iterations int) ([]float64, *Stats, error) {
	p := algo.NewPageRank(iterations)
	st, err := e.e.Run(context.Background(), p)
	if err != nil {
		return nil, nil, err
	}
	return p.Ranks(), st, nil
}

// PageRankUntil runs PageRank until the L1 delta falls below epsilon (or
// maxIterations is hit).
func (e *Engine) PageRankUntil(epsilon float64, maxIterations int) ([]float64, *Stats, error) {
	p := algo.NewPageRank(maxIterations)
	p.Epsilon = epsilon
	st, err := e.e.Run(context.Background(), p)
	if err != nil {
		return nil, nil, err
	}
	return p.Ranks(), st, nil
}

// WCC computes weakly connected components; every vertex receives the
// smallest vertex ID of its component.
func (e *Engine) WCC() ([]uint32, *Stats, error) {
	w := algo.NewWCC()
	st, err := e.e.Run(context.Background(), w)
	if err != nil {
		return nil, nil, err
	}
	return w.Labels(), st, nil
}

// AsyncBFS runs the asynchronous (label-correcting) BFS variant: the same
// depths as BFS in far fewer passes over the graph, at more work per pass
// — the trade §II-B describes for semi-external engines.
func (e *Engine) AsyncBFS(root uint32) ([]int32, *Stats, error) {
	b := algo.NewAsyncBFS(root)
	st, err := e.e.Run(context.Background(), b)
	if err != nil {
		return nil, nil, err
	}
	return b.Depths(), st, nil
}

// MSBFS runs up to 64 breadth-first searches in shared passes over the
// graph (the concurrent-BFS idea of the paper's [22]): one tile stream
// serves every source. It returns one depth slice per root.
func (e *Engine) MSBFS(roots []uint32) ([][]int32, *Stats, error) {
	m := algo.NewMSBFS(roots)
	st, err := e.e.Run(context.Background(), m)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]int32, len(roots))
	for i := range roots {
		out[i] = m.Depth(i)
	}
	return out, st, nil
}

// PPR runs personalized PageRank: the restart-vector variant where the
// teleport distribution is a point mass at root, so rank concentrates in
// the query vertex's neighborhood. Returns the rank vector (a
// probability distribution summing to 1) plus run statistics.
func (e *Engine) PPR(root uint32, iterations int) ([]float64, *Stats, error) {
	p := algo.NewPPR(root, iterations)
	st, err := e.e.Run(context.Background(), p)
	if err != nil {
		return nil, nil, err
	}
	return p.Ranks(), st, nil
}

// SCC computes strongly connected components of a directed graph; every
// vertex receives the smallest vertex ID of its SCC. This is the
// algorithm §IV-A highlights as requiring both edge directions, which
// tile tuples provide from a single stored direction.
func (e *Engine) SCC() ([]uint32, *Stats, error) {
	s := algo.NewSCC()
	st, err := e.e.Run(context.Background(), s)
	if err != nil {
		return nil, nil, err
	}
	return s.Labels(), st, nil
}

// HDDTier configures the tiered SSD+HDD store of the paper's future work;
// assign one to EngineOptions.HDD.
type HDDTier = core.HDDTier

// EdgeOp is one edge mutation: an insert (Del false) or a delete.
type EdgeOp = delta.Op

// DeltaStore is a graph's mutable write path: every batch of edge
// mutations is appended to a segmented, checksummed write-ahead log
// (fsynced before Apply returns) and published to an in-memory delta
// layer that engines merge with the base tiles at read time. Flush
// persists the delta layer as a checksummed snapshot and truncates the
// WAL; Open recovers snapshot + WAL after a crash.
type DeltaStore = delta.Store

// DeltaOptions configures a graph's write path.
type DeltaOptions = delta.Options

// DeltaStats summarizes a write path: sequence numbers, WAL activity,
// delta-layer shape and crash-recovery counts.
type DeltaStats = delta.Stats

// OpenDelta opens (and, after a crash, recovers) the mutable write path
// of g. Attach it to an engine to make mutations visible to runs.
func OpenDelta(g *Graph, opts DeltaOptions) (*DeltaStore, error) {
	return delta.Open(g, g.BasePath(), opts)
}

// DeltaFsck validates the write path at basePath offline — WAL segment
// framing and CRCs, delta snapshot checksums and structure. Fatal
// problems come back as findings; informational conditions (a torn WAL
// tail that replay will discard) come back as notes.
func DeltaFsck(basePath string) (findings []FsckFinding, notes []string) {
	return delta.Fsck(basePath)
}

// MemGraph is a fully-loaded in-memory graph (no storage pipeline).
type MemGraph struct {
	m *core.MemGraph
}

// LoadInMemory reads every tile of g into memory for in-memory execution.
func LoadInMemory(g *Graph) (*MemGraph, error) {
	m, err := core.LoadInMemory(g)
	if err != nil {
		return nil, err
	}
	return &MemGraph{m: m}, nil
}

// BFS runs breadth-first search over the in-memory tiles.
func (m *MemGraph) BFS(root uint32, threads int) ([]int32, *Stats, error) {
	b := algo.NewBFS(root)
	st, err := m.m.Run(b, threads, 0)
	if err != nil {
		return nil, nil, err
	}
	return b.Depths(), st, nil
}

// PageRank runs PageRank over the in-memory tiles.
func (m *MemGraph) PageRank(iterations, threads int) ([]float64, *Stats, error) {
	p := algo.NewPageRank(iterations)
	st, err := m.m.Run(p, threads, iterations)
	if err != nil {
		return nil, nil, err
	}
	return p.Ranks(), st, nil
}

// WCC runs connected components over the in-memory tiles.
func (m *MemGraph) WCC(threads int) ([]uint32, *Stats, error) {
	w := algo.NewWCC()
	st, err := m.m.Run(w, threads, 0)
	if err != nil {
		return nil, nil, err
	}
	return w.Labels(), st, nil
}
