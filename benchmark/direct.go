package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

// env is one pass of one workload.
type env struct {
	cfg     sizing
	seed    int64
	seconds int
	clients int     // min(nproc, 4): client goroutines and engine Threads
	workDir string  // scratch directory of this pass, inside the checkout
	tr      *tracer // nil on the untraced pass
}

func (e *env) traced() bool { return e.tr != nil }

// setupRepeats is how many times a pass sets up: several on the untraced
// pass, whose median is setup_s, once on the traced pass.
func (e *env) setupRepeats() int {
	if e.traced() {
		return 1
	}
	return e.cfg.setupRepeats
}

func convertOptions(scale uint, codec string) tile.ConvertOptions {
	return tile.ConvertOptions{TileBits: tileBits(scale), GroupQ: 8, Symmetry: true, Codec: codec, Degrees: true}
}

// convertGraph writes el under dir/name in codec and returns its base path.
func convertGraph(el *graph.EdgeList, dir, name string, scale uint, codec string) (*tile.Graph, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return tile.Convert(el, dir, name, convertOptions(scale, codec))
}

// scanOptions is the analytic configuration: real reads through the file
// backend and a memory budget a quarter of the tile data, so the graph
// does not fit.
func scanOptions(g *tile.Graph, threads int) core.Options {
	o := core.DefaultOptions()
	o.Backend = "file"
	o.Threads = threads
	o.MemoryBytes = g.DataBytes() / 4
	o.SegmentSize = o.MemoryBytes / 8
	return o
}

// directRig is one converted graph with an engine on it, driven through
// Engine.Run by a single caller.
type directRig struct {
	dir string
	g   *tile.Graph
	eng *core.Engine
	ds  *delta.Store // attached by the closing write phase
}

func openDirect(el *graph.EdgeList, dir string, scale uint, codec string, threads int) (*directRig, error) {
	g, err := convertGraph(el, dir, "g", scale, codec)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(g, scanOptions(g, threads))
	if err != nil {
		g.Close()
		return nil, err
	}
	return &directRig{dir: dir, g: g, eng: eng}, nil
}

func (r *directRig) close() {
	r.eng.Close()
	if r.ds != nil {
		r.ds.Close()
	}
	r.g.Close()
	os.RemoveAll(r.dir)
}

// directSpec is what distinguishes the two analytic workloads.
type directSpec struct {
	name   string
	codec  string
	kernel string // the algo.* probe that times this workload's kernel
	// prepare computes the reference answers of n queries over el and
	// returns the query maker: query(i), i < n, gives query i's algorithm
	// and the check of its answer.
	prepare func(el *graph.EdgeList, comp component, n int) (query func(i int) (algo.Algorithm, func() error), err error)
	// edgesFactor × input edges is one run's share of edges_per_s: the
	// iteration count for PageRank, 1 for BFS (Graph500 TEPS).
	edgesFactor int
}

// readPhase is one measured read phase.
type readPhase struct {
	lat samples // ms, one per correct query, in issue order
	// computed is the part of lat the engine computed (all of it unless a
	// result cache answered some): what the stationarity guard examines,
	// because a 0.1 ms cache hit doubles with one scheduling hiccup.
	computed samples
	wall     time.Duration
	sweep    sweepTotals
	queries  int
}

// measure runs queries [0, runs) through Engine.Run, one caller, checking
// every answer outside the timed call.
func (r *directRig) measure(res *results, tr *tracer, runs int, query func(int) (algo.Algorithm, func() error)) (readPhase, error) {
	var ph readPhase
	for i := 0; i < runs; i++ {
		alg, check := query(i)
		id := tr.begin("core.Engine.Run", 0, tr.newQuery())
		st, err := r.eng.Run(context.Background(), alg)
		tr.end(id)
		if err != nil {
			return ph, fmt.Errorf("run %d: %w", i, err)
		}
		attachSpans(tr, id, st)
		if err := check(); err != nil {
			res.op(false)
			res.note("run %d: wrong answer: %v", i, err)
			continue
		}
		res.op(true)
		ph.lat = append(ph.lat, ms(st.Elapsed))
		ph.wall += st.Elapsed
		ph.sweep.add(st)
		ph.queries++
	}
	if ph.queries == 0 {
		return ph, fmt.Errorf("no run returned a correct answer")
	}
	ph.computed = ph.lat
	return ph, nil
}

const warmups = 3

func runDirect(e *env, spec directSpec) (*results, error) {
	cfg, res := e.cfg, newResults()
	el, comp, genTime, err := makeInput(res, cfg.scanScale, cfg.edgeFactor, e.seed)
	if err != nil {
		return nil, err
	}
	inputEdges := int64(len(el.Edges))
	runs := cfg.runsPerSecond * e.seconds
	query, err := spec.prepare(el, comp, runs+warmups) // the warm-ups are the queries past the measured ones
	if err != nil {
		return nil, err
	}

	// Set-up: convert, open, start the engine, warm up. Repeated so that
	// setup_s is a median; the last one is measured.
	var rig *directRig
	var setups []float64
	for i := 0; i < e.setupRepeats(); i++ {
		if rig != nil {
			// Each repetition starts from a settled heap, as a fresh
			// process would — and so that whether the next engine's
			// buffers land on reused (zeroed, hence resident) or fresh
			// address space does not hang on collector timing.
			rig.close()
			settle()
		}
		begin := time.Now()
		rig, err = openDirect(el, filepath.Join(e.workDir, fmt.Sprintf("setup%d", i)), cfg.scanScale, spec.codec, e.clients)
		if err != nil {
			return nil, err
		}
		for w := 0; w < warmups; w++ {
			alg, _ := query(runs + w)
			if _, err := rig.eng.Run(context.Background(), alg); err != nil {
				rig.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	defer rig.close()
	res.set("setup_s", genTime.Seconds()+median(setups))

	// Read phase. The traced pass first runs half the queries untraced,
	// then the same queries traced: their p50s give the tracing overhead.
	rss := startRSS()
	defer rss.finish()
	var ph readPhase
	if e.traced() {
		half := (runs + 1) / 2
		plain, err := rig.measure(res, nil, half, query)
		if err != nil {
			return nil, err
		}
		before := memNow()
		if ph, err = rig.measure(res, e.tr, half, query); err != nil {
			return nil, err
		}
		memNow().reportSince(res, before, ph.queries)
		res.set("trace.overhead_frac", median(ph.lat)/median(plain.lat)-1)
	} else if ph, err = rig.measure(res, nil, runs, query); err != nil {
		return nil, err
	}
	if err := reportReads(res, e, spec.name, ph, 0.90); err != nil {
		return nil, err
	}
	res.set("edges_per_s", float64(spec.edgesFactor)*float64(inputEdges)*float64(ph.queries)/ph.wall.Seconds())
	ph.sweep.report(res, ph.queries)
	reportServing(res, servingCounts{})
	res.roof = rooflineIn{codec: spec.codec, algo: spec.kernel, threads: e.clients,
		swept: float64(rig.g.Meta.NumStored) * float64(ph.sweep.iterations) / ph.sweep.elapsed.Seconds()}

	// Closing write phase: the same delta layer the served workloads
	// write through, attached to this engine, so mutation cost is
	// reported on this codec too.
	rig.ds, err = delta.Open(rig.g, rig.g.BasePath(), delta.Options{})
	if err != nil {
		return nil, fmt.Errorf("opening write path: %w", err)
	}
	rig.eng.SetDeltaStore(rig.ds)
	model := newEdgeModel(el)
	batches := opStream(newRand(e.seed, streamOps), el, comp, cfg.closingBatches, cfg.batchOps)
	apply := func(ops []delta.Op) error {
		_, err := rig.ds.Apply(ops)
		return err
	}
	if err := writePhase(res, cfg, batches, model, apply); err != nil {
		return nil, err
	}
	if err := rig.ds.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	reportRSS(res, rss)
	final := model.final()
	if err := reportDisk(res, rig.dir, final); err != nil {
		return nil, err
	}

	// Reads over base ∪ delta must equal the reference over the final
	// edge set; on the traced pass enough of them to give the merge cost.
	postQuery, err := spec.prepare(final, comp, e.postReads())
	if err != nil {
		return nil, err
	}
	post, err := rig.measure(res, nil, e.postReads(), postQuery)
	if err != nil {
		return nil, fmt.Errorf("after the write phase: %w", err)
	}
	// The post-write reads repeat the read phase's first queries.
	same := ph.lat
	if len(same) > len(post.lat) {
		same = same[:len(post.lat)]
	}
	res.set("delta.merge_overhead_ratio", median(post.lat)/median(same))
	return res, nil
}

// postReads is how many reads follow the write phase: a few to check the
// merged answers, more on the traced pass where their median is reported.
func (e *env) postReads() int {
	if e.traced() {
		return e.cfg.mergeReads
	}
	return e.cfg.postReads
}

// reportReads turns a read phase's raw samples into the query metrics.
// tail is the rank reported as query_p99_ms: 0.99 where the workload
// collects the thousand samples that supports, 0.90 elsewhere.
func reportReads(res *results, e *env, what string, ph readPhase, tail float64) error {
	// The guards belong to the pass whose numbers they protect: the traced
	// pass measures half as many queries and reports none of these.
	strict := e.cfg.strict && !e.traced()
	for name, p := range map[string]float64{"query_p50_ms": 0.50, "query_p90_ms": 0.90, "query_p99_ms": tail} {
		if err := res.setPct(name, ph.lat, p, strict); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
	}
	if strict {
		if err := ph.computed.stationary(what + " computed-reply p50"); err != nil {
			return err
		}
	}
	res.note("%s latency, ms: %s", what, ph.lat.summary())
	res.set("qps", float64(ph.queries)/ph.wall.Seconds())
	res.set("read_bytes_per_query", float64(ph.sweep.bytes)/float64(ph.queries))
	return nil
}

// writePhase applies the batches one after another through apply, timing
// each ack, and records them in the edge model.
func writePhase(res *results, cfg sizing, batches [][]delta.Op, model *edgeModel, apply func(ops []delta.Op) error) error {
	settle()
	var lat samples
	var wall time.Duration
	acked := 0
	for i, ops := range batches {
		begin := time.Now()
		err := apply(ops)
		d := time.Since(begin)
		wall += d
		if err != nil {
			res.op(false)
			res.note("write batch %d: %v", i, err)
			continue
		}
		res.op(true)
		model.apply(ops)
		lat = append(lat, ms(d))
		acked += len(ops)
	}
	res.set("mutations_per_s", float64(acked)/wall.Seconds())
	return res.setPct("write_p50_ms", lat, 0.5, cfg.strict)
}

// pageRankSpec: every tile every iteration, codec v3.
func pageRankSpec(cfg sizing) directSpec {
	return directSpec{
		name: wlScanPR, codec: "v3", kernel: "pagerank",
		prepare: func(el *graph.EdgeList, _ component, _ int) (func(int) (algo.Algorithm, func() error), error) {
			want := graph.RefPageRank(graph.NewCSR(el, false), graph.DefaultPageRank(cfg.prIterations))
			return func(int) (algo.Algorithm, func() error) {
				pr := algo.NewPageRank(cfg.prIterations)
				return pr, func() error { return ranksMatch(pr.Ranks(), want) }
			}, nil
		},
		edgesFactor: cfg.prIterations,
	}
}

// bfsSpec: frontier-driven traversal from seeded roots of the largest
// component, codec snb.
func bfsSpec(cfg sizing, seed int64) directSpec {
	return directSpec{
		name: wlTraverse, codec: "snb", kernel: "bfs",
		prepare: func(el *graph.EdgeList, comp component, n int) (func(int) (algo.Algorithm, func() error), error) {
			// The same seeded order every time, so the reads after the
			// write phase repeat the read phase's first roots.
			roots, err := drawRoots(newRand(seed, streamRoots), comp, n)
			if err != nil {
				return nil, err
			}
			csr := graph.NewCSR(el, false)
			refs := make([]bfsRef, len(roots))
			for i, root := range roots {
				refs[i] = refBFS(csr, root)
				// A root that reaches little of the graph would make its
				// run a different, cheaper query.
				if cfg.strict && refs[i].reached*4 < int(el.NumVertices) {
					return nil, fmt.Errorf("root %d reaches %d of %d vertices, under 25%%", root, refs[i].reached, el.NumVertices)
				}
			}
			return func(i int) (algo.Algorithm, func() error) {
				b := algo.NewBFS(roots[i])
				return b, func() error {
					if got := depthDigest(b.Depths()); got != refs[i].digest {
						return fmt.Errorf("bfs from %d: depth vector differs from the reference", roots[i])
					}
					return nil
				}
			}, nil
		},
		edgesFactor: 1,
	}
}
