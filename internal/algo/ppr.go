package algo

import (
	"fmt"
	"math"
)

// PPR is personalized PageRank: the restart-vector variant of the
// PageRank kernel where the teleport distribution is a point
// mass at Root instead of uniform. Every random walk restarts at the
// query vertex, so rank concentrates in Root's neighborhood — the
// per-user relevance score recommendation serving wants. Dangling mass
// restarts at Root too (the personalization vector replaces the uniform
// term everywhere), keeping the ranks a probability distribution.
//
// The edge-scatter phase is inherited from PageRank unchanged —
// including the contention-free per-worker accumulator slabs — because
// only initialization and the teleport term differ.
type PPR struct {
	PageRank
	Root uint32
}

// NewPPR returns a personalized PageRank kernel restarting at root.
func NewPPR(root uint32, iterations int) *PPR {
	p := &PPR{Root: root}
	p.Iterations = iterations
	return p
}

// Name implements Algorithm.
func (p *PPR) Name() string { return "ppr" }

// Init implements Algorithm: all rank mass starts at the root, matching
// the fixed point's teleport distribution.
func (p *PPR) Init(ctx *Context) error {
	if err := p.PageRank.Init(ctx); err != nil {
		return err
	}
	if p.Root >= ctx.NumVertices {
		return fmt.Errorf("ppr: root %d outside vertex space %d", p.Root, ctx.NumVertices)
	}
	for i := range p.rank {
		p.rank[i] = 0
	}
	p.rank[p.Root] = 1
	return nil
}

// AfterIteration implements Algorithm: reduce the per-worker slabs and
// apply the personalized teleport — the (1-d) restart mass and the
// dangling mass both land on Root alone.
func (p *PPR) AfterIteration(iter int) bool {
	restart := (1 - damping) + damping*p.dangling
	delta := 0.0
	for v := range p.rank {
		nv := damping * p.incoming(v)
		if uint32(v) == p.Root {
			nv += restart
		}
		delta += math.Abs(nv - p.rank[v])
		p.rank[v] = nv
	}
	p.delta = delta
	if p.Epsilon > 0 && delta < p.Epsilon {
		return true
	}
	return iter+1 >= p.Iterations
}
