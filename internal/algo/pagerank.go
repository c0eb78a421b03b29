package algo

import (
	"fmt"
	"math"
	"sync"
)

// PageRank is the iterative kernel of §II-B: every vertex divides its rank
// by its out-degree and transmits the share along its out-edges. Under
// symmetry (half) storage each stored tuple carries contributions in both
// directions, halving the data read per iteration — the saving Figure 10
// measures. Dangling mass is redistributed uniformly so the ranks stay a
// distribution (which is also what makes the result comparable to the
// reference implementation).
//
// PageRank is the paper's example of an algorithm where metadata access is
// random while graph access is sequential: all tiles are needed every
// iteration (NeedTile* always answer true), so its performance is driven
// by the storage format, the physical grouping, and SCR — not by selective
// I/O.
type PageRank struct {
	// Iterations caps the run; if Epsilon is zero it is the exact count.
	Iterations int
	// Epsilon, when positive, stops once the L1 rank delta drops below it.
	Epsilon float64

	ctx      *Context
	rank     []float64
	nextW    [][]float64 // one private accumulator slab per worker
	share    []float64
	dangling float64
	delta    float64
	// root is the vertex all teleport mass lands on (personalized
	// PageRank), or -1 to spread it uniformly.
	root  int
	parts []reducePart // reduce's per-range partial sums, in range order
	wg    sync.WaitGroup
}

// minReduceRange is the fewest vertices worth a goroutine of their own in
// reduce: below it, starting the goroutine costs more than the visits.
const minReduceRange = 1 << 14

// reducePart is one vertex range's contribution to the L1 delta and to the
// next iteration's dangling mass.
type reducePart struct{ delta, dangling float64 }

// NewPageRank returns a kernel running the given number of iterations.
func NewPageRank(iterations int) *PageRank {
	return &PageRank{Iterations: iterations}
}

// Name implements Algorithm.
func (p *PageRank) Name() string { return "pagerank" }

const damping = 0.85

// Init implements Algorithm.
func (p *PageRank) Init(ctx *Context) error {
	if err := p.alloc(ctx); err != nil {
		return err
	}
	inv := 1.0 / float64(len(p.rank))
	for i := range p.rank {
		p.rank[i] = inv
	}
	p.root = -1
	p.reduce(true)
	return nil
}

// alloc validates ctx and allocates the metadata, ranks all zero.
func (p *PageRank) alloc(ctx *Context) error {
	if err := ctx.validate(); err != nil {
		return err
	}
	if ctx.Degrees == nil {
		return fmt.Errorf("pagerank: graph has no degree data (convert with Degrees enabled)")
	}
	if p.Iterations <= 0 {
		return fmt.Errorf("pagerank: %d iterations", p.Iterations)
	}
	p.ctx = ctx
	n := int(ctx.NumVertices)
	p.rank = make([]float64, n)
	p.share = make([]float64, n)
	// One private accumulator slab per worker: rank shares are added
	// without any atomics and AfterIteration reduces the slabs once
	// (BigSparse-style merge-reduce).
	p.nextW = make([][]float64, ctx.Workers)
	for w := range p.nextW {
		p.nextW[w] = make([]float64, n)
	}
	p.parts = make([]reducePart, max(1, min(ctx.Workers, n/minReduceRange)))
	return nil
}

// Ranks returns the rank vector after the run.
func (p *PageRank) Ranks() []float64 { return p.rank }

// BeforeIteration implements Algorithm. There is nothing to prepare: the
// previous iteration's reduce (Init's, before the first) left the shares,
// the dangling mass and zeroed slabs behind.
func (p *PageRank) BeforeIteration(int) {}

// ProcessEdges implements Algorithm: contributions accumulate in the
// worker's private slab, so the hot path has no atomics at all.
func (p *PageRank) ProcessEdges(worker int, _, _ uint32, src, dst []uint32) {
	share := p.share
	next := p.nextW[worker]
	both := p.ctx.Half
	for i, s := range src {
		d := dst[i]
		next[d] += share[s]
		if both && s != d {
			next[s] += share[d]
		}
	}
}

// AfterIteration implements Algorithm: reduce the per-worker slabs into
// the new ranks and measure the L1 delta.
func (p *PageRank) AfterIteration(iter int) bool {
	p.reduce(false)
	if p.Epsilon > 0 && p.delta < p.Epsilon {
		return true
	}
	return iter+1 >= p.Iterations
}

// reduce is the kernel's one pass over the vertices per iteration, split
// into up to Context.Workers contiguous ranges of at least minReduceRange
// vertices that run concurrently (the engine's workers are idle between
// iterations), the first of them on the caller. Each visit sums the
// vertex's slab entries and zeroes them, applies damping and the teleport
// and dangling redistribution, and writes the outgoing share rank/degree
// the next iteration's edges will read (cached so the per-edge work is one
// load and one add). With first set — Init, before any edge — it only
// derives shares from the initial ranks. The ranges' delta and dangling
// sums are combined in range order, so the result does not depend on how
// the goroutines were scheduled.
func (p *PageRank) reduce(first bool) {
	n := len(p.rank)
	uniform, atRoot := p.teleport()
	for w := 1; w < len(p.parts); w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.parts[w] = p.reduceRange(w*n/len(p.parts), (w+1)*n/len(p.parts), uniform, atRoot, first)
		}()
	}
	p.parts[0] = p.reduceRange(0, n/len(p.parts), uniform, atRoot, first)
	p.wg.Wait()
	p.delta, p.dangling = 0, 0
	for _, part := range p.parts {
		p.delta += part.delta
		p.dangling += part.dangling
	}
}

// teleport returns the mass every vertex receives this iteration and the
// extra mass the root does: the (1-d) restart and the dangling vertices'
// rank, spread uniformly or, personalized, landed on the root alone.
func (p *PageRank) teleport() (uniform, atRoot float64) {
	if p.root >= 0 {
		return 0, (1 - damping) + damping*p.dangling
	}
	n := float64(len(p.rank))
	return (1-damping)/n + damping*p.dangling/n, 0
}

func (p *PageRank) reduceRange(lo, hi int, uniform, atRoot float64, first bool) (part reducePart) {
	deg := p.ctx.Degrees
	for v := lo; v < hi; v++ {
		r := p.rank[v]
		if !first {
			incoming := 0.0
			for _, slab := range p.nextW {
				incoming += slab[v]
				slab[v] = 0
			}
			nv := uniform + damping*incoming
			if v == p.root {
				nv += atRoot
			}
			part.delta += math.Abs(nv - r)
			p.rank[v], r = nv, nv
		}
		if d := deg.Degree(uint32(v)); d == 0 {
			part.dangling += r
			p.share[v] = 0
		} else {
			p.share[v] = r / float64(d)
		}
	}
	return part
}

// Delta returns the L1 rank change of the last iteration.
func (p *PageRank) Delta() float64 { return p.delta }

// NeedTileThisIter implements Algorithm: PageRank streams the whole graph
// every iteration.
func (p *PageRank) NeedTileThisIter(uint32, uint32) bool { return true }

// NeedTileNextIter implements Algorithm: "for PageRank, all of the graph
// data would be utilized for the next iteration" (§III Observation 3).
func (p *PageRank) NeedTileNextIter(uint32, uint32) bool { return true }

// MetadataBytes implements Algorithm: rank + share arrays, the per-worker
// slabs, plus the degree structure.
func (p *PageRank) MetadataBytes() int64 {
	b := int64(len(p.rank))*8 + int64(len(p.share))*8
	for _, slab := range p.nextW {
		b += int64(len(slab)) * 8
	}
	if p.ctx != nil && p.ctx.Degrees != nil {
		b += p.ctx.Degrees.SizeBytes()
	}
	return b
}
