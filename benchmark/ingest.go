package main

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/graph"
)

// runIngestQuery is the write path beside reads. Phase W: one writer
// posts a fixed number of batches, then flushes. Phase R: one reader
// issues never-repeated GET /bfs while one paced writer posts a fixed
// number of smaller batches on a schedule. Fixed op counts keep the
// delta, and so the read-time merge work, the same from run to run.
func runIngestQuery(e *env) (*results, error) {
	cfg, res := e.cfg, newResults()
	el, comp, genTime, err := makeInput(res, cfg.serveScale, cfg.edgeFactor, e.seed)
	if err != nil {
		return nil, err
	}
	order, err := drawRoots(newRand(e.seed, streamRoots), comp, len(comp.members))
	if err != nil {
		return nil, err
	}
	roots := rootPool(order)
	warmRoots, err := roots.take(warmups)
	if err != nil {
		return nil, err
	}
	rig, setup, err := setupServed(e, el, func(r *servedRig) error {
		for _, root := range warmRoots {
			if _, err := r.get(cfg, request{root: root}, false); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer rig.close()
	res.set("setup_s", genTime.Seconds()+setup)

	// Traced pass only: the same kind of read before any write, for the
	// merge overhead ratio.
	var pristine samples
	if e.traced() {
		pre, err := roots.take(cfg.mergeReads)
		if err != nil {
			return nil, err
		}
		if pristine, err = rig.mergedReads(res, e, graph.NewCSR(el, false), pre); err != nil {
			return nil, err
		}
	}

	// Phase W.
	rss := startRSS()
	defer rss.finish()
	model := newEdgeModel(el)
	rng := newRand(e.seed, streamOps)
	if err := writePhase(res, cfg, opStream(rng, el, comp, cfg.ingestBatches, cfg.batchOps), model,
		func(ops []delta.Op) error { return rig.postEdges(ops, false) }); err != nil {
		return nil, err
	}
	if err := rig.postEdges(nil, true); err != nil {
		return nil, fmt.Errorf("flush after phase W: %w", err)
	}

	// Phase R: the reader runs until the paced writer has posted its
	// last batch, so the op count is exact.
	paced := opStream(rng, el, comp, e.seconds*int(time.Second/cfg.pacedEvery), cfg.pacedOps)
	settle()
	var writerDone atomic.Bool
	writerErr := make(chan error, 1)
	writerRes := newResults() // the writer's own counters until it has stopped
	go func() {
		defer writerDone.Store(true)
		tick := time.NewTicker(cfg.pacedEvery)
		defer tick.Stop()
		for i, ops := range paced {
			<-tick.C
			err := rig.postEdges(ops, false)
			writerRes.op(err == nil)
			if err != nil {
				writerErr <- fmt.Errorf("paced write %d: %w", i, err)
				return
			}
			model.apply(ops)
		}
		writerErr <- nil
	}()
	ph, err := rig.measuredLoop(res, e, wlIngest, 1, int64(len(el.Edges)), 0.90, func(int) (request, bool, error) {
		r, err := roots.take(1)
		if err != nil {
			return request{}, false, err
		}
		return request{root: r[0]}, false, nil
	}, writerDone.Load)
	if werr := <-writerErr; werr != nil {
		return nil, werr
	}
	if err != nil {
		return nil, err
	}
	res.merge(writerRes)
	if e.traced() {
		res.set("delta.merge_overhead_ratio", median(ph.latencies(nil))/median(pristine))
	}

	// Final flush, then the answers over base ∪ acked inserts − deletes.
	if err := rig.postEdges(nil, true); err != nil {
		return nil, fmt.Errorf("final flush: %w", err)
	}
	reportRSS(res, rss)
	final := model.final()
	if err := reportDisk(res, rig.dir, final); err != nil {
		return nil, err
	}
	checkRoots, err := roots.take(cfg.postReads)
	if err != nil {
		return nil, err
	}
	if _, err := rig.mergedReads(res, e, graph.NewCSR(final, false), checkRoots); err != nil {
		return nil, err
	}
	res.op(rig.checkWCC(res, final))
	return res, nil
}

// checkWCC compares POST /wcc with the reference components of el.
func (r *servedRig) checkWCC(res *results, el *graph.EdgeList) bool {
	resp, err := r.do(http.MethodPost, graphPath("wcc"), []byte("{}"), false)
	if err == nil && resp.status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.status, resp.body.Error)
	}
	if err == nil {
		components, largest := componentSummary(graph.RefWCC(el))
		if b := resp.body; b.Components == nil || b.Largest == nil || *b.Components != components || *b.Largest != largest {
			err = fmt.Errorf("components/largest differ from the reference %d/%d", components, largest)
		}
	}
	if err != nil {
		res.note("POST wcc after ingest: %v", err)
	}
	return err == nil
}
