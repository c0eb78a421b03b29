package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
)

// sizing fixes every input size. It is part of the benchmark: parent and
// change run the same values. README.md records why the scales are below
// the issue's kron-20/kron-18 (the driver's total run-time cap).
type sizing struct {
	scanScale  uint // scan-pr-v3, traverse-bfs-snb
	serveScale uint // serve-point, ingest-query
	probeScale uint // layer probes of the traced pass
	edgeFactor int

	runsPerSecond int // analytic workloads run runsPerSecond × -seconds runs
	prIterations  int

	hotBFS, hotPPR int     // pre-warmed roots the serve mix repeats
	hitShare       float64 // share of serve-point requests drawn from the hot sets
	pprShare       float64
	pprIterations  int
	pprTop         int
	sampleEvery    int // one reply in this many is checked against the reference

	batchOps       int // mutations per POST /edges
	ingestBatches  int // ingest-query phase W
	closingBatches int // write phase closing the three read workloads
	pacedOps       int // ops per paced-writer batch, ingest-query phase R
	pacedEvery     time.Duration

	setupRepeats int // set-ups per untraced run; setup_s is their median
	postReads    int // checked reads over base ∪ delta after the last write
	mergeReads   int // the same on the traced pass, enough for a median (delta.merge_overhead_ratio)

	strict bool // enforce sample-count and stationarity guards
}

var fullSizing = sizing{
	scanScale: 18, serveScale: 16, probeScale: 16, edgeFactor: 16,
	runsPerSecond: 5, prIterations: 5,
	hotBFS: 128, hotPPR: 16, hitShare: 0.6, pprShare: 0.2, pprIterations: 5, pprTop: 10,
	sampleEvery: 64,
	batchOps:    2048, ingestBatches: 64, closingBatches: 32, pacedOps: 256, pacedEvery: 250 * time.Millisecond,
	setupRepeats: 3, postReads: 4, mergeReads: 20,
	strict: true,
}

// smokeSizing is the scale-12 configuration the tests run: every code
// path, no guard on sample counts.
var smokeSizing = sizing{
	scanScale: 12, serveScale: 12, probeScale: 10, edgeFactor: 16,
	runsPerSecond: 6, prIterations: 5,
	hotBFS: 16, hotPPR: 4, hitShare: 0.6, pprShare: 0.2, pprIterations: 5, pprTop: 10,
	sampleEvery: 4,
	batchOps:    256, ingestBatches: 8, closingBatches: 4, pacedOps: 64, pacedEvery: 100 * time.Millisecond,
	setupRepeats: 2, postReads: 2, mergeReads: 3,
	strict: false,
}

// tileBits gives 64 tiles per side (2080 stored tiles), the issue's
// tile-count regime at every scale.
func tileBits(scale uint) uint { return scale - 6 }

// Seed streams: one -seed fans out into independent, fixed streams so
// that adding a draw to one input never shifts another.
const (
	streamGraph = iota
	streamRoots
	streamOps
	streamMix
	streamProbe
)

func subSeed(seed int64, stream int) int64 { return seed*1000003 + int64(stream)*7919 }

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, stream)))
}

// genGraph makes the Kronecker input of a workload and times the call
// (gen.edges_per_s; part of setup_s).
func genGraph(scale uint, edgeFactor int, seed int64) (*graph.EdgeList, time.Duration, error) {
	begin := time.Now()
	el, err := gen.Generate(gen.Graph500Config(scale, edgeFactor, uint64(subSeed(seed, streamGraph))))
	if err != nil {
		return nil, 0, fmt.Errorf("generating kron-%d: %w", scale, err)
	}
	return el, time.Since(begin), nil
}

// makeInput generates a workload's graph, reports the generator's rate and
// finds the component its roots and mutation endpoints are drawn from.
func makeInput(res *results, scale uint, edgeFactor int, seed int64) (*graph.EdgeList, component, time.Duration, error) {
	el, genTime, err := genGraph(scale, edgeFactor, seed)
	if err != nil {
		return nil, component{}, 0, err
	}
	res.set("gen.edges_per_s", float64(len(el.Edges))/genTime.Seconds())
	return el, largestComponent(el), genTime, nil
}

// component describes the largest connected component of an input: BFS
// roots are drawn from it so every query does comparable work, and
// mutation endpoints are drawn from it so inserts join active vertices
// instead of hanging chains off isolated ones.
type component struct {
	members  []uint32
	isolated int64 // first vertex that is a component of its own, -1 if none
}

func largestComponent(el *graph.EdgeList) component {
	labels := graph.RefWCC(el)
	size := make(map[graph.VertexID]int)
	for _, l := range labels {
		size[l]++
	}
	var best graph.VertexID
	for l, n := range size {
		if n > size[best] || (n == size[best] && l < best) {
			best = l
		}
	}
	c := component{isolated: -1, members: make([]uint32, 0, size[best])}
	for v, l := range labels {
		if l == best {
			c.members = append(c.members, uint32(v))
		}
		if c.isolated < 0 && size[l] == 1 {
			c.isolated = int64(v)
		}
	}
	return c
}

// drawRoots returns n distinct vertices of the component in seeded order
// (a partial Fisher–Yates shuffle of a copy).
func drawRoots(rng *rand.Rand, c component, n int) ([]uint32, error) {
	if n > len(c.members) {
		return nil, fmt.Errorf("need %d distinct roots but the largest component has %d vertices", n, len(c.members))
	}
	pool := append([]uint32(nil), c.members...)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:n], nil
}

// rootPool hands out query roots that no request has used before.
type rootPool []uint32

func (p *rootPool) take(n int) ([]uint32, error) {
	if n > len(*p) {
		return nil, fmt.Errorf("ran out of unused roots (lower -seconds or raise the scale)")
	}
	roots := (*p)[:n]
	*p = (*p)[n:]
	return roots, nil
}

// opStream builds nBatches batches of batchOps mutations: 90 % inserts of
// edges between component vertices, 10 % deletes of edges the base graph
// holds. Fixed counts keep the delta size, and so the merge work, the
// same from run to run.
func opStream(rng *rand.Rand, el *graph.EdgeList, c component, nBatches, batchOps int) [][]delta.Op {
	out := make([][]delta.Op, nBatches)
	for b := range out {
		ops := make([]delta.Op, batchOps)
		for i := range ops {
			if rng.Intn(10) == 0 {
				e := el.Edges[rng.Intn(len(el.Edges))]
				ops[i] = delta.Op{Del: true, Src: e.Src, Dst: e.Dst}
				continue
			}
			src := c.members[rng.Intn(len(c.members))]
			dst := c.members[rng.Intn(len(c.members))]
			for dst == src {
				dst = c.members[rng.Intn(len(c.members))]
			}
			ops[i] = delta.Op{Src: src, Dst: dst}
		}
		out[b] = ops
	}
	return out
}

// edgeModel tracks the edge set the acked mutations must have produced:
// base ∪ inserts − deletes under the delta layer's simple-graph rule
// (a touched key masks every base occurrence and is present at most once).
type edgeModel struct {
	base    *graph.EdgeList
	touched map[uint64]bool // canonical key → present
}

func newEdgeModel(base *graph.EdgeList) *edgeModel {
	return &edgeModel{base: base, touched: make(map[uint64]bool)}
}

func canonKey(src, dst uint32) uint64 {
	if src > dst {
		src, dst = dst, src
	}
	return uint64(src)<<32 | uint64(dst)
}

func (m *edgeModel) apply(ops []delta.Op) {
	for _, op := range ops {
		m.touched[canonKey(op.Src, op.Dst)] = !op.Del
	}
}

// final materializes the live edge set.
func (m *edgeModel) final() *graph.EdgeList {
	out := &graph.EdgeList{NumVertices: m.base.NumVertices, Directed: m.base.Directed,
		Edges: make([]graph.Edge, 0, len(m.base.Edges)+len(m.touched))}
	for _, e := range m.base.Edges {
		if _, hit := m.touched[canonKey(e.Src, e.Dst)]; !hit {
			out.Edges = append(out.Edges, e)
		}
	}
	for k, present := range m.touched {
		if present {
			out.Edges = append(out.Edges, graph.Edge{Src: uint32(k >> 32), Dst: uint32(k)})
		}
	}
	return out
}
