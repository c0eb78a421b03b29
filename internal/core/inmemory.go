package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/tile"
)

// MemGraph is a fully-loaded tiled graph for in-memory execution — the
// mode the paper's in-memory comparisons use (Figures 2b and 11) and the
// regime of engines like Ligra and Galois that §VIII positions G-Store
// against. All tiles live in RAM; runs skip the storage pipeline
// entirely.
type MemGraph struct {
	g     *tile.Graph
	tiles [][]byte
	ctx   algo.Context
	// LoadTime is how long reading all tiles took.
	LoadTime time.Duration
}

// LoadInMemory reads every tile of g into memory.
func LoadInMemory(g *tile.Graph) (*MemGraph, error) {
	begin := time.Now()
	m := &MemGraph{g: g, tiles: make([][]byte, g.Layout.NumTiles())}
	for i := range m.tiles {
		data, err := g.ReadTile(i, nil)
		if err != nil {
			return nil, err
		}
		m.tiles[i] = append([]byte(nil), data...)
	}
	var deg tile.DegreeSource
	if g.Meta.DegreeFormat != "" {
		var err error
		deg, err = g.Degrees()
		if err != nil {
			return nil, err
		}
	}
	m.ctx = algo.Context{
		NumVertices: g.Meta.NumVertices,
		Layout:      g.Layout,
		Directed:    g.Meta.Directed,
		Half:        g.Meta.Half,
		Degrees:     deg,
	}
	m.LoadTime = time.Since(begin)
	return m, nil
}

// Bytes returns the in-memory tile footprint.
func (m *MemGraph) Bytes() int64 {
	var n int64
	for _, t := range m.tiles {
		n += int64(len(t))
	}
	return n
}

// Run executes a over the in-memory tiles in disk order until
// convergence, processing tiles with the given number of goroutines —
// the kernel's workers, each with a stable ID and its own decode scratch.
// Selective iteration still applies (NeedTileThisIter) — it saves compute
// instead of I/O here.
func (m *MemGraph) Run(a algo.Algorithm, threads, maxIterations int) (*Stats, error) {
	if threads <= 0 {
		threads = 1
	}
	if maxIterations <= 0 {
		maxIterations = 1 << 20
	}
	ctx := m.ctx
	ctx.Workers = threads
	if err := a.Init(&ctx); err != nil {
		return nil, err
	}
	stats := &Stats{Algorithm: a.Name()}
	scratch := make([]edgeScratch, threads)
	begin := time.Now()
	for iter := 0; iter < maxIterations; iter++ {
		a.BeforeIteration(iter)
		if ie := m.processIteration(a, scratch, stats); ie != nil {
			return nil, ie
		}
		stats.Iterations = iter + 1
		if a.AfterIteration(iter) {
			break
		}
	}
	stats.Elapsed = time.Since(begin)
	stats.Compute = stats.Elapsed
	stats.MetadataBytes = a.MetadataBytes()
	return stats, nil
}

// processIteration runs one worker goroutine per scratch entry over the
// tiles the kernel asks for and returns the first decode failure, if any.
func (m *MemGraph) processIteration(a algo.Algorithm, scratch []edgeScratch, stats *Stats) *IntegrityError {
	codec := m.g.Meta.TupleCodec()
	work := make(chan int, len(scratch)*2)
	var wg sync.WaitGroup
	var failed atomic.Pointer[IntegrityError]
	for id := range scratch {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := range work {
				co := m.g.Layout.CoordAt(i)
				if ie := scratch[id].feed(a, id, m.g, codec, co.Row, co.Col, m.tiles[i], 0, nil); ie != nil {
					failed.CompareAndSwap(nil, ie)
				}
			}
		}(id)
	}
	for i, data := range m.tiles {
		if len(data) == 0 {
			continue
		}
		co := m.g.Layout.CoordAt(i)
		if !a.NeedTileThisIter(co.Row, co.Col) {
			stats.TilesSkipped++
			continue
		}
		stats.TilesProcessed++
		work <- i
	}
	close(work)
	wg.Wait()
	return failed.Load()
}
