package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/graph"
)

// mixPlan is serve-point's seeded request stream: 80 % GET /bfs, 20 % GET
// /ppr; a fixed share of requests repeats a root of a pre-warmed hot set
// (Zipf-ranked, so a few roots take most repeats) and the rest use a root
// no request has used before. Organic Zipf over a cold cache would have
// the hit ratio climb for the whole run; pre-warming the repeated roots
// and never repeating the others makes it stationary by construction.
type mixPlan struct {
	cfg            sizing
	hotBFS, hotPPR []uint32
	clients        []*mixClient
}

type mixClient struct {
	rng              *rand.Rand
	zipfBFS, zipfPPR *rand.Zipf
	cold             rootPool // this client's never-repeated roots, consumed in order
}

func newMixPlan(cfg sizing, seed int64, comp component, clients int) (*mixPlan, error) {
	hot := cfg.hotBFS + cfg.hotPPR
	if len(comp.members) < hot+clients {
		return nil, fmt.Errorf("largest component (%d vertices) is too small for the serving mix", len(comp.members))
	}
	order, err := drawRoots(newRand(seed, streamRoots), comp, len(comp.members))
	if err != nil {
		return nil, err
	}
	m := &mixPlan{cfg: cfg, hotBFS: order[:cfg.hotBFS], hotPPR: order[cfg.hotBFS:hot]}
	cold := order[hot:]
	for c := 0; c < clients; c++ {
		rng := newRand(seed, streamMix+16*(c+1))
		mc := &mixClient{
			rng:     rng,
			zipfBFS: rand.NewZipf(rng, 1.1, 1, uint64(cfg.hotBFS-1)),
			zipfPPR: rand.NewZipf(rng, 1.1, 1, uint64(cfg.hotPPR-1)),
		}
		for i := c; i < len(cold); i += clients {
			mc.cold = append(mc.cold, cold[i])
		}
		m.clients = append(m.clients, mc)
	}
	return m, nil
}

// draw returns client c's next request and whether its reply is in the
// seeded sample checked against the reference.
func (m *mixPlan) draw(c int) (q request, sampled bool, err error) {
	mc := m.clients[c]
	q.ppr = mc.rng.Float64() < m.cfg.pprShare
	hit := mc.rng.Float64() < m.cfg.hitShare
	sampled = mc.rng.Intn(m.cfg.sampleEvery) == 0
	switch {
	case hit && q.ppr:
		q.root = m.hotPPR[mc.zipfPPR.Uint64()]
	case hit:
		q.root = m.hotBFS[mc.zipfBFS.Uint64()]
	default:
		roots, err := mc.cold.take(1)
		if err != nil {
			return q, false, err
		}
		q.root = roots[0]
	}
	return q, sampled, nil
}

// warm fills the result cache with the hot sets (which is also the
// workload's warm-up: caches filled, lazy set-up done). It fans out wider
// than the measured client count so the hot BFS roots coalesce into a few
// multi-source runs.
func (m *mixPlan) warm(r *servedRig) error {
	var reqs []request
	for _, root := range m.hotBFS {
		reqs = append(reqs, request{root: root})
	}
	for _, root := range m.hotPPR {
		reqs = append(reqs, request{ppr: true, root: root})
	}
	errs := make(chan error, len(reqs))
	sem := make(chan struct{}, 64) // one coalesced run's worth of roots in flight
	for _, q := range reqs {
		sem <- struct{}{}
		go func(q request) {
			defer func() { <-sem }()
			_, err := r.get(m.cfg, q, false)
			errs <- err
		}(q)
	}
	var first error
	for range reqs {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("warm-up: %w", err)
		}
	}
	return first
}

// setupServed converts, starts the server and warms it up, as many times
// as the pass repeats set-up, and returns the last rig with the median
// set-up time.
func setupServed(e *env, el *graph.EdgeList, warm func(*servedRig) error) (*servedRig, float64, error) {
	var rig *servedRig
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
		var err error
		rig, err = openServed(el, filepath.Join(e.workDir, fmt.Sprintf("setup%d", i)), e.cfg.serveScale, e.clients, e.tr)
		if err != nil {
			return nil, 0, err
		}
		if err := warm(rig); err != nil {
			rig.close()
			return nil, 0, err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	return rig, median(setups), nil
}

// timedReply is one correct reply of a served read phase.
type timedReply struct {
	at    time.Duration // issue time since the phase began
	lat   float64       // ms
	cache string
	trace bool
}

// sampledReply is a reply set aside for the reference check, which runs
// after the phase so it cannot steal the server's CPU.
type sampledReply struct {
	q    request
	body reply
}

// servedPhase is what a closed loop of GET clients produced.
type servedPhase struct {
	replies []timedReply // issue order
	wall    time.Duration
	counts  servingCounts
	sampled []sampledReply
}

// latencies returns, in issue order, the latencies of the replies keep
// accepts (all of them when keep is nil).
func (p servedPhase) latencies(keep func(timedReply) bool) samples {
	var out samples
	for _, r := range p.replies {
		if keep == nil || keep(r) {
			out = append(out, r.lat)
		}
	}
	return out
}

// closedLoop runs one goroutine per client; each sends its next request
// only when the previous reply is in, until stop reports true. On the
// traced pass every second request is traced, so traced and untraced
// latencies come from the same phase.
func (r *servedRig) closedLoop(res *results, cfg sizing, clients int, next func(c int) (request, bool, error), stop func() bool) (servedPhase, error) {
	type clientOut struct {
		servedPhase
		attempted, failed int
		notes             []string
		err               error
	}
	outs := make([]clientOut, clients)
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			for i := 0; !stop(); i++ {
				q, sampled, err := next(c)
				if err != nil {
					o.err = err
					return
				}
				trace := r.tr != nil && i%2 == 1
				at := time.Since(begin)
				resp, err := r.get(cfg, q, trace)
				o.attempted++
				if err != nil {
					o.failed++
					o.notes = append(o.notes, err.Error())
					continue
				}
				o.counts.outcome(resp.cache)
				o.replies = append(o.replies, timedReply{at: at, lat: ms(resp.lat), cache: resp.cache, trace: trace})
				if sampled {
					o.sampled = append(o.sampled, sampledReply{q: q, body: resp.body})
				}
			}
		}(c)
	}
	wg.Wait()
	ph := servedPhase{wall: time.Since(begin)}
	for _, o := range outs {
		if o.err != nil {
			return ph, o.err
		}
		res.attempted += o.attempted
		res.failed += o.failed
		res.notes = append(res.notes, o.notes...)
		ph.replies = append(ph.replies, o.replies...)
		ph.sampled = append(ph.sampled, o.sampled...)
		ph.counts.hits += o.counts.hits
		ph.counts.misses += o.counts.misses
		ph.counts.joins += o.counts.joins
	}
	sort.Slice(ph.replies, func(i, j int) bool { return ph.replies[i].at < ph.replies[j].at })
	if len(ph.replies) == 0 {
		return ph, fmt.Errorf("no request returned a correct reply")
	}
	return ph, nil
}

// verifySampled checks the set-aside replies against the reference and
// turns each wrong one from a success into a failure.
func verifySampled(res *results, cfg sizing, csr *graph.CSR, sampled []sampledReply) {
	refs := make(map[request]error) // hot roots recur: check each once
	for _, s := range sampled {
		err, done := refs[s.q]
		if !done {
			err = s.q.verify(cfg, csr, s.body)
			refs[s.q] = err
		}
		if err != nil {
			res.failed++
			res.note("wrong answer: %v", err)
		}
	}
}

// measuredLoop is a served workload's read phase: a closed loop between
// two /metrics scrapes, reported as the query metrics, the sweep and
// serving-layer ratios, the allocation cost and the roofline input. tail
// is the rank reported as query_p99_ms.
func (r *servedRig) measuredLoop(res *results, e *env, what string, clients int, inputEdges int64, tail float64,
	next func(c int) (request, bool, error), stop func() bool) (servedPhase, error) {
	before, err := r.scrape()
	if err != nil {
		return servedPhase{}, err
	}
	memBefore := memNow()
	ph, err := r.closedLoop(res, e.cfg, clients, next, stop)
	if err != nil {
		return ph, err
	}
	memNow().reportSince(res, memBefore, len(ph.replies))
	after, err := r.scrape()
	if err != nil {
		return ph, err
	}
	sweep := phaseDelta(before, after, e.clients, &ph.counts)
	rp := readPhase{lat: ph.latencies(nil), wall: ph.wall, sweep: sweep, queries: len(ph.replies),
		computed: ph.latencies(func(r timedReply) bool { return r.cache == "miss" })}
	if err := reportReads(res, e, what, rp, tail); err != nil {
		return ph, err
	}
	res.set("edges_per_s", float64(inputEdges)*float64(rp.queries)/ph.wall.Seconds())
	if e.traced() {
		traced := ph.latencies(func(r timedReply) bool { return r.trace })
		plain := ph.latencies(func(r timedReply) bool { return !r.trace })
		res.set("trace.overhead_frac", median(traced)/median(plain)-1)
	}
	sweep.report(res, rp.queries)
	reportServing(res, ph.counts)
	res.roof = rooflineIn{codec: "snb", algo: "msbfs", threads: e.clients,
		swept: ratio(float64(r.stored)*float64(sweep.iterations), sweep.elapsed.Seconds())}
	return ph, nil
}

func runServePoint(e *env) (*results, error) {
	cfg, res := e.cfg, newResults()
	el, comp, genTime, err := makeInput(res, cfg.serveScale, cfg.edgeFactor, e.seed)
	if err != nil {
		return nil, err
	}
	mix, err := newMixPlan(cfg, e.seed, comp, e.clients)
	if err != nil {
		return nil, err
	}
	rig, setup, err := setupServed(e, el, mix.warm)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	res.set("setup_s", genTime.Seconds()+setup)

	// Read phase: a closed loop of e.clients clients for -seconds.
	rss := startRSS()
	defer rss.finish()
	deadline := time.Now().Add(time.Duration(e.seconds) * time.Second)
	ph, err := rig.measuredLoop(res, e, wlServe, e.clients, int64(len(el.Edges)), 0.99,
		mix.draw, func() bool { return !time.Now().Before(deadline) })
	if err != nil {
		return nil, err
	}
	if hr := res.vals["qcache.hit_ratio"]; cfg.strict && (hr < 0.3 || hr > 0.7) {
		return nil, fmt.Errorf("serve-point: result-cache hit ratio %.3f left the 0.3–0.7 band the workload is sized for", hr)
	}
	csr := graph.NewCSR(el, false)
	verifySampled(res, cfg, csr, ph.sampled)

	// Traced pass only: misses from one client, one at a time, before any
	// write — what the reads after the write phase are compared with.
	var pristine samples
	if e.traced() {
		roots, err := mix.clients[0].cold.take(cfg.mergeReads)
		if err != nil {
			return nil, err
		}
		if pristine, err = rig.mergedReads(res, e, csr, roots); err != nil {
			return nil, err
		}
	}

	// Closing write phase through POST /edges, then misses over base ∪ delta.
	model := newEdgeModel(el)
	batches := opStream(newRand(e.seed, streamOps), el, comp, cfg.closingBatches, cfg.batchOps)
	if err := writePhase(res, cfg, batches, model, func(ops []delta.Op) error { return rig.postEdges(ops, false) }); err != nil {
		return nil, err
	}
	if err := rig.postEdges(nil, true); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	reportRSS(res, rss)
	final := model.final()
	if err := reportDisk(res, rig.dir, final); err != nil {
		return nil, err
	}
	roots, err := mix.clients[0].cold.take(e.postReads())
	if err != nil {
		return nil, err
	}
	post, err := rig.mergedReads(res, e, graph.NewCSR(final, false), roots)
	if err != nil {
		return nil, err
	}
	if e.traced() {
		res.set("delta.merge_overhead_ratio", median(post)/median(pristine))
	}
	return res, nil
}

// mergedReads issues one GET /bfs per root, one at a time, and checks
// every reply against the reference over the final edge set.
func (r *servedRig) mergedReads(res *results, e *env, csr *graph.CSR, roots []uint32) (samples, error) {
	var lat samples
	for _, root := range roots {
		q := request{root: root}
		resp, err := r.get(e.cfg, q, false)
		if err == nil {
			err = q.verify(e.cfg, csr, resp.body)
		}
		res.op(err == nil)
		if err != nil {
			res.note("after the write phase: %v", err)
			continue
		}
		lat = append(lat, ms(resp.lat))
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no read after the write phase returned a correct reply")
	}
	return lat, nil
}
