// Package gen produces the synthetic graphs used throughout the paper's
// evaluation: Kronecker/RMAT power-law graphs (the Kron-N-M and Rmat-N-M
// rows of Table II, and Graph500-style inputs) and uniform random graphs
// (the Random-27-32 row). Real-world downloads (Twitter, Friendster,
// Subdomain) are substituted with seeded RMAT graphs whose skew matches
// their degree distributions; see DESIGN.md §2.
package gen

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/gwu-systems/gstore/internal/graph"
)

// Kind selects the generator family.
type Kind int

const (
	// Kronecker is the Graph500 Kronecker generator (equivalent to RMAT
	// with A=0.57, B=C=0.19, D=0.05).
	Kronecker Kind = iota
	// RMAT is the recursive matrix generator with explicit quadrant
	// probabilities.
	RMAT
	// Uniform samples endpoints independently and uniformly (an
	// Erdős–Rényi-style G(n, m) graph).
	Uniform
)

func (k Kind) String() string {
	switch k {
	case Kronecker:
		return "kron"
	case RMAT:
		return "rmat"
	case Uniform:
		return "random"
	default:
		return fmt.Sprintf("gen.Kind(%d)", int(k))
	}
}

// Config describes a synthetic graph. NumVertices = 2^Scale and
// NumEdges = EdgeFactor * NumVertices, matching the paper's
// "<family>-<scale>-<edgefactor>" naming (e.g. Kron-28-16).
type Config struct {
	Kind       Kind
	Scale      uint
	EdgeFactor int
	A, B, C    float64 // RMAT quadrant probabilities; D = 1-A-B-C
	Seed       uint64
	Directed   bool
	// DropSelfLoops removes self loops after generation (duplicates are
	// kept: real RMAT streams contain them, and the converters must cope).
	DropSelfLoops bool
}

// Graph500Config returns the standard Kronecker configuration for the
// given scale and edge factor.
func Graph500Config(scale uint, edgeFactor int, seed uint64) Config {
	return Config{
		Kind: Kronecker, Scale: scale, EdgeFactor: edgeFactor,
		A: 0.57, B: 0.19, C: 0.19, Seed: seed,
	}
}

// TwitterLikeConfig returns an RMAT configuration whose degree skew mimics
// the Twitter follower graph used in the paper (a heavily skewed power law
// with a few very large-degree vertices and ~40% empty tiles at the
// paper's tile width).
func TwitterLikeConfig(scale uint, edgeFactor int, seed uint64) Config {
	return Config{
		Kind: RMAT, Scale: scale, EdgeFactor: edgeFactor,
		A: 0.65, B: 0.15, C: 0.15, Seed: seed, Directed: true,
	}
}

// UniformConfig returns a uniform random graph configuration (the paper's
// Random-27-32).
func UniformConfig(scale uint, edgeFactor int, seed uint64) Config {
	return Config{Kind: Uniform, Scale: scale, EdgeFactor: edgeFactor, Seed: seed}
}

// Name returns the paper-style name of the configuration, e.g.
// "kron-20-16".
func (c Config) Name() string {
	return fmt.Sprintf("%s-%d-%d", c.Kind, c.Scale, c.EdgeFactor)
}

// NumVertices returns 2^Scale.
func (c Config) NumVertices() uint32 {
	if c.Scale >= 32 {
		panic("gen: scale must be < 32 for 32-bit vertex IDs")
	}
	return uint32(1) << c.Scale
}

// NumEdges returns EdgeFactor * NumVertices.
func (c Config) NumEdges() int64 {
	return int64(c.EdgeFactor) << c.Scale
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Scale == 0 || c.Scale >= 32 {
		return fmt.Errorf("gen: scale %d out of range [1,31]", c.Scale)
	}
	if c.EdgeFactor <= 0 {
		return fmt.Errorf("gen: edge factor %d must be positive", c.EdgeFactor)
	}
	switch c.Kind {
	case Uniform:
	case RMAT, Kronecker:
		a, b, cc := c.quadrants()
		// Written so that NaN fails too.
		if !(a >= 0 && b >= 0 && cc >= 0 && a+b+cc <= 1) {
			return fmt.Errorf("gen: invalid RMAT probabilities a=%v b=%v c=%v", a, b, cc)
		}
	default:
		return fmt.Errorf("gen: unknown kind %v", c.Kind)
	}
	return nil
}

// quadrants returns the RMAT probabilities a, b and c; a Kronecker
// configuration with all three zero gets the Graph500 values.
func (c Config) quadrants() (a, b, cc float64) {
	if c.Kind == Kronecker && c.A == 0 && c.B == 0 && c.C == 0 {
		return 0.57, 0.19, 0.19
	}
	return c.A, c.B, c.C
}

// Generate materializes the full edge list: Stream into a slice sized
// for NumEdges.
func Generate(c Config) (*graph.EdgeList, error) {
	el := &graph.EdgeList{
		NumVertices: c.NumVertices(),
		Directed:    c.Directed,
		Edges:       make([]graph.Edge, 0, c.NumEdges()),
	}
	err := Stream(c, func(e graph.Edge) error {
		el.Edges = append(el.Edges, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return el, nil
}

// chunkAttempts is how many consecutive attempts one worker generates from
// one recorded RNG state.
const chunkAttempts = 1 << 14

// Stream invokes emit for every generated edge in a deterministic order
// given the seed. Undirected configurations emit canonicalized tuples.
//
// The edges are those of one sequential stream of attempts, each of which
// consumes a fixed number of RNG draws (2·Scale for RMAT/Kronecker, 2 for
// Uniform) whether or not DropSelfLoops rejects it. A dispatcher walks one
// RNG ahead and records the state at the start of every chunk of
// chunkAttempts attempts; GOMAXPROCS workers regenerate the chunks from
// those states, and the caller's goroutine emits them in order, so the
// output does not depend on the worker count. At most 2×GOMAXPROCS chunks
// are in flight. Stream returns once emit has seen NumEdges edges or
// returned an error, with every goroutine it started gone.
func Stream(c Config, emit func(graph.Edge) error) error {
	if err := c.Validate(); err != nil {
		return err
	}
	s := newSampler(c)
	n := c.NumEdges()
	workers := runtime.GOMAXPROCS(0)
	free := make(chan *chunk, 2*workers)
	for i := 0; i < cap(free); i++ {
		free <- &chunk{edges: make([]graph.Edge, 0, min(chunkAttempts, n)), done: make(chan struct{}, 1)}
	}
	// Every chunk sits in at most one of these queues, so sends never block.
	order := make(chan *chunk, cap(free))
	jobs := make(chan *chunk, cap(free))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)

	wg.Add(1 + workers)
	go func() {
		defer wg.Done()
		defer close(jobs)
		defer close(order)
		rng := *NewRNG(c.Seed)
		// Without DropSelfLoops exactly n attempts are needed; with it,
		// chunks past the first n attempts replace rejected self loops until
		// the emitter has its n edges.
		for next := int64(0); next < n || c.DropSelfLoops; {
			var ch *chunk
			select {
			case ch = <-free:
			case <-stop:
				return
			}
			left := n - next
			if left <= 0 {
				left = n
			}
			ch.rng, ch.attempts = rng, int(min(chunkAttempts, left))
			for i := ch.attempts * s.draws; i > 0; i-- {
				rng.Next()
			}
			next += int64(ch.attempts)
			order <- ch
			jobs <- ch
		}
	}()
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ch := range jobs {
				select {
				case <-stop:
				default:
					s.fill(ch)
				}
				ch.done <- struct{}{}
			}
		}()
	}

	for left := n; left > 0; {
		ch := <-order
		<-ch.done
		es := ch.edges
		if int64(len(es)) > left {
			es = es[:left]
		}
		for _, e := range es {
			if err := emit(e); err != nil {
				return err
			}
		}
		left -= int64(len(es))
		free <- ch
	}
	return nil
}

// chunk is a run of consecutive attempts: the RNG state before the first,
// their count, and the edges they produced.
type chunk struct {
	rng      RNG
	attempts int
	edges    []graph.Edge
	done     chan struct{}
}

// sampler turns RNG draws into edges for one configuration.
type sampler struct {
	uniform       bool
	mask          uint64 // Uniform: NumVertices-1
	rmat          rmat
	draws         int // RNG draws per attempt
	directed      bool
	dropSelfLoops bool
}

func newSampler(c Config) *sampler {
	s := &sampler{directed: c.Directed, dropSelfLoops: c.DropSelfLoops}
	if c.Kind == Uniform {
		s.uniform, s.mask, s.draws = true, uint64(c.NumVertices()-1), 2
		return s
	}
	a, b, cc := c.quadrants()
	s.rmat = rmat{a: a, b: b, c: cc, d: 1 - a - b - cc, scale: c.Scale}
	s.draws = 2 * int(c.Scale)
	return s
}

// fill regenerates ch's attempts from its start state, keeping the accepted
// edges (canonicalized when undirected).
func (s *sampler) fill(ch *chunk) {
	rng := ch.rng
	ch.edges = ch.edges[:0]
	for i := 0; i < ch.attempts; i++ {
		var e graph.Edge
		if s.uniform {
			e.Src = uint32(rng.Next() & s.mask)
			e.Dst = uint32(rng.Next() & s.mask)
		} else {
			e = s.rmat.edge(&rng)
		}
		if s.dropSelfLoops && e.Src == e.Dst {
			continue
		}
		if !s.directed {
			e = e.Canon()
		}
		ch.edges = append(ch.edges, e)
	}
}

type rmat struct {
	a, b, c float64
	d       float64 // 1 - a - b - c, evaluated in that order
	scale   uint
}

// edge draws one RMAT edge by descending the 2^scale × 2^scale adjacency
// matrix, picking a quadrant per level with probabilities (a, b, c, d) and
// a small per-level noise term so the distribution is not perfectly
// self-similar (as in the Graph500 reference implementation). The quadrant
// comes from three comparisons taken as bits, not from a branch on the
// random draw: with g1 = p≥a, g2 = p≥a+b, g3 = p≥a+b+c, the source bit is
// g2 and the destination bit is g1^g2|g3.
func (r *rmat) edge(rng *RNG) graph.Edge {
	var src, dst uint32
	for bit := r.scale; bit > 0; {
		bit--
		p := rng.Float64()
		// ±5% multiplicative noise keeps the generated graphs from having
		// pathological exact self-similarity. The float64 conversions round
		// each product, so no architecture fuses it into the following add
		// and every comparison below sees the same operands everywhere.
		noise := 0.95 + float64(0.1*rng.Float64())
		a := float64(r.a * noise)
		b := float64(r.b * noise)
		c := float64(r.c * noise)
		sum := a + b + c + r.d
		a, b, c = a/sum, b/sum, c/sum
		g1, g2, g3 := bit01(p >= a), bit01(p >= a+b), bit01(p >= a+b+c)
		src |= g2 << bit
		dst |= (g1 ^ g2 | g3) << bit
	}
	return graph.Edge{Src: src, Dst: dst}
}

// bit01 is 1 for true and 0 for false; the compiler makes it a SETcc, not
// a branch.
func bit01(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
