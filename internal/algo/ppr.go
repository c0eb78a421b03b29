package algo

import "fmt"

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
// the fixed point's teleport distribution, and PageRank's per-iteration
// reduce lands the (1-d) restart mass and the dangling mass on Root alone.
func (p *PPR) Init(ctx *Context) error {
	if err := p.alloc(ctx); err != nil {
		return err
	}
	if p.Root >= ctx.NumVertices {
		return fmt.Errorf("ppr: root %d outside vertex space %d", p.Root, ctx.NumVertices)
	}
	p.rank[p.Root] = 1
	p.root = int(p.Root)
	p.reduce(true)
	return nil
}
