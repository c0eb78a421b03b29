package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/metrics"
	"github.com/gwu-systems/gstore/internal/qcache"
	"github.com/gwu-systems/gstore/internal/tile"
)

// This file is the serving tier of the personalized-query path:
// GET /graphs/{name}/bfs?root= and GET|POST /graphs/{name}/ppr answer
// per-user queries through the result cache (qcache) and, for BFS, the
// scheduler's coalescing window — so a burst of single-root queries
// arriving while the engine is busy costs one msbfs run slot instead of
// one slot each, a query on an idle engine runs a plain BFS without
// waiting, and repeats within the TTL cost nothing at all.

// cacheHeader tells clients how their query was satisfied:
// hit | miss | join | bypass.
const cacheHeader = "X-Gstore-Cache"

// errTenantQuota marks a request rejected by the per-tenant
// concurrent-run cap; it surfaces as 429 with a "quota" metric status,
// distinct from queue-full "rejected".
var errTenantQuota = errors.New("server: tenant concurrent-run quota exceeded")

// metaDigest fingerprints a graph's on-disk identity for cache keys:
// codec, format version, and (v2+) the tiles-section CRC, so re-serving
// a re-converted graph under the same name never reuses stale entries.
func metaDigest(g *tile.Graph) string {
	m := g.Meta
	d := fmt.Sprintf("%s-v%d", m.TupleCodec(), m.Version)
	if m.Manifest != nil {
		d += fmt.Sprintf("-%08x", m.Manifest.Tiles.CRC32C)
	}
	return d
}

// generation is the graph's delta-store generation: the last WAL
// sequence number applied. Every mutation batch bumps it, so cache
// entries keyed to an older generation are invalidated on next lookup.
// Read-only graphs are frozen at generation 0.
func (h *GraphHandle) generation() uint64 {
	if h.delta == nil {
		return 0
	}
	return h.delta.View().Upto()
}

// cacheKey is (graph, codec/meta digest, algo, params); the generation
// is checked separately so a stale entry is counted as an invalidation,
// not a plain miss.
func (h *GraphHandle) cacheKey(op, params string) string {
	return h.Name + "|" + h.digest + "|" + op + "|" + params
}

// acquireTenant claims one per-tenant run slot and returns its release.
// With no tenant named or no cap configured it is a no-op. On rejection
// it records the distinct status="quota" outcome.
func (s *Server) acquireTenant(h *GraphHandle, op, tenant string) (func(), error) {
	if tenant == "" || s.TenantMaxRuns <= 0 {
		return func() {}, nil
	}
	h.tenantMu.Lock()
	if h.tenants == nil {
		h.tenants = map[string]int{}
	}
	if h.tenants[tenant] >= s.TenantMaxRuns {
		h.tenantMu.Unlock()
		s.engineRuns(h.Name, op, "quota").Inc()
		return nil, fmt.Errorf("%w: tenant %q already has %d concurrent runs on %q",
			errTenantQuota, tenant, s.TenantMaxRuns, h.Name)
	}
	h.tenants[tenant]++
	h.tenantMu.Unlock()
	return func() {
		h.tenantMu.Lock()
		h.tenants[tenant]--
		if h.tenants[tenant] <= 0 {
			delete(h.tenants, tenant)
		}
		h.tenantMu.Unlock()
	}, nil
}

func (s *Server) engineRuns(graph, alg, status string) *metrics.Counter {
	return s.reg.Counter("gstore_engine_runs_total",
		"Engine runs by graph, algorithm and outcome.",
		metrics.L("graph", graph),
		metrics.L("algo", alg),
		metrics.L("status", status))
}

func (s *Server) batchedRoots(graph string) *metrics.Histogram {
	return s.reg.Histogram("gstore_personal_batched_roots",
		"Query roots coalesced into each personalized BFS run, by graph.",
		occupancyBuckets, metrics.L("graph", graph))
}

func (s *Server) coalescedRuns(graph string) *metrics.Counter {
	return s.reg.Counter("gstore_personal_coalesced_runs_total",
		"Multi-root runs the coalescing window produced (BatchedRoots > 1), by graph.",
		metrics.L("graph", graph))
}

// observePersonalRun is the scheduler's PersonalRunHook: it publishes
// the same per-run accounting s.run does, once per underlying coalesced
// run (never once per rider), plus the coalescing-specific series.
func (s *Server) observePersonalRun(graph string, st *core.Stats, err error) {
	status := classifyRunStatus(err)
	if status == "rejected" {
		s.runsRejected(graph).Inc()
	}
	s.engineRuns(graph, "bfs", status).Inc()
	if st == nil {
		return
	}
	s.queueWait(graph).Observe(st.QueueWait.Seconds())
	if st.SharedRuns > 0 {
		s.batchOccupancy(graph).Observe(float64(st.SharedRuns))
		core.PublishStats(s.reg, graph, st)
	}
	if st.BatchedRoots > 0 {
		s.batchedRoots(graph).Observe(float64(st.BatchedRoots))
		if st.BatchedRoots > 1 {
			s.coalescedRuns(graph).Inc()
		}
	}
}

// publishQCache republishes the shared cache's counters. The cache is
// server-wide (keys carry the graph), so the series are unlabeled.
func (s *Server) publishQCache() {
	if s.qc == nil {
		return
	}
	st := s.qc.Stats()
	s.reg.Counter("gstore_qcache_hits_total",
		"Personalized queries answered from the result cache.").Set(st.Hits)
	s.reg.Counter("gstore_qcache_misses_total",
		"Personalized queries that ran a computation and filled the cache.").Set(st.Misses)
	s.reg.Counter("gstore_qcache_joins_total",
		"Personalized queries that joined an identical in-flight computation (single-flight dedup).").Set(st.Joins)
	s.reg.Counter("gstore_qcache_invalidations_total",
		"Cache entries discarded because the graph's delta generation moved past them.").Set(st.Stale)
	s.reg.Counter("gstore_qcache_expirations_total",
		"Cache entries dropped by TTL on access.").Set(st.Expired)
	s.reg.Counter("gstore_qcache_evictions_total",
		"Cache entries evicted to stay under the byte budget.").Set(st.Evictions)
	s.reg.Gauge("gstore_qcache_entries",
		"Live result cache entries.").Set(st.Entries)
	s.reg.Gauge("gstore_qcache_bytes",
		"Declared byte cost of live result cache entries.").Set(st.Bytes)
}

// handlePersonal routes the GET fast path: /bfs?root=N and
// /ppr?root=N[&iterations=I][&top=T], both with an optional
// tenant= admission label.
func (s *Server) handlePersonal(w http.ResponseWriter, r *http.Request, h *GraphHandle, op string) {
	q := r.URL.Query()
	rootStr := q.Get("root")
	if rootStr == "" {
		writeError(w, http.StatusBadRequest, "root query parameter required")
		return
	}
	root64, err := strconv.ParseUint(rootStr, 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad root %q: %v", rootStr, err)
		return
	}
	tenant := q.Get("tenant")
	switch op {
	case "bfs":
		s.personalBFS(w, r, h, uint32(root64), tenant)
	case "ppr":
		iters := 10
		if v := q.Get("iterations"); v != "" {
			if iters, err = strconv.Atoi(v); err != nil || iters <= 0 {
				writeError(w, http.StatusBadRequest, "bad iterations %q", v)
				return
			}
		}
		top := 10
		if v := q.Get("top"); v != "" {
			if top, err = strconv.Atoi(v); err != nil || top <= 0 {
				writeError(w, http.StatusBadRequest, "bad top %q", v)
				return
			}
		}
		s.personalPPR(w, r, h, uint32(root64), iters, top, tenant)
	}
}

// personalEntryCost is the declared cache cost of one summarized query
// result. Results are summaries (counts, a top list), not per-vertex
// vectors, so a flat estimate keeps the accounting simple and honest
// within a factor of two.
const personalEntryCost = 512

// personalBFS answers one single-root BFS through the cache and
// Scheduler.RunPersonalBFS (a solo BFS or a coalesced run).
func (s *Server) personalBFS(w http.ResponseWriter, r *http.Request, h *GraphHandle, root uint32, tenant string) {
	fill := func() (interface{}, int64, error) {
		release, err := s.acquireTenant(h, "bfs", tenant)
		if err != nil {
			return nil, 0, err
		}
		defer release()
		depths, st, err := h.sched.RunPersonalBFS(r.Context(), root)
		s.queueDepth(h.Name).Set(int64(h.sched.QueueDepth()))
		if err != nil {
			return nil, 0, err
		}
		reached := 0
		maxDepth := int32(-1)
		for _, d := range depths {
			if d >= 0 {
				reached++
				if d > maxDepth {
					maxDepth = d
				}
			}
		}
		return map[string]interface{}{
			"root": root, "reached": reached, "max_depth": maxDepth,
			"batched_roots": st.BatchedRoots,
			"stats":         toStats(st),
		}, personalEntryCost, nil
	}
	s.servePersonal(w, r, h, "bfs", fmt.Sprintf("root=%d", root), fill)
}

// personalPPR answers one personalized PageRank query. PPR runs as a
// normal (non-coalesced) run on the shared sweep; the cache and
// single-flight dedup carry the serving load for repeated roots. The
// cached reply holds only the top list, never the rank vector, so it
// costs what it declares. top is clamped to the vertex count before it
// keys or sizes anything.
func (s *Server) personalPPR(w http.ResponseWriter, r *http.Request, h *GraphHandle, root uint32, iters, top int, tenant string) {
	top = min(top, int(h.Graph.Meta.NumVertices))
	fill := func() (interface{}, int64, error) {
		release, err := s.acquireTenant(h, "ppr", tenant)
		if err != nil {
			return nil, 0, err
		}
		defer release()
		a := algo.NewPPR(root, iters)
		st, err := s.run(r.Context(), h, a)
		if err != nil {
			return nil, 0, err
		}
		return map[string]interface{}{
			"root": root, "iterations": iters, "top": topRanks(a.Ranks(), top, true),
			"stats": toStats(st),
		}, personalEntryCost + int64(top)*16, nil
	}
	s.servePersonal(w, r, h, "ppr", fmt.Sprintf("root=%d&iterations=%d&top=%d", root, iters, top), fill)
}

// servePersonal runs fill through the result cache (or straight through
// when the cache is disabled) and writes the response with the
// cache-status header.
func (s *Server) servePersonal(w http.ResponseWriter, r *http.Request, h *GraphHandle, op, params string, fill func() (interface{}, int64, error)) {
	if s.qc == nil {
		res, _, err := fill()
		if err != nil {
			writeRunError(w, err)
			return
		}
		w.Header().Set(cacheHeader, qcache.Bypass.String())
		writeJSON(w, http.StatusOK, res)
		return
	}
	val, outcome, err := s.qc.Do(r.Context(), h.cacheKey(op, params), h.generation(), fill)
	s.publishQCache()
	if err != nil {
		writeRunError(w, err)
		return
	}
	w.Header().Set(cacheHeader, outcome.String())
	writeJSON(w, http.StatusOK, val)
}

// handlePPRPost is the JSON-body twin of the GET ppr fast path, for
// clients that POST like the other algorithm endpoints.
func (s *Server) handlePPRPost(w http.ResponseWriter, r *http.Request, h *GraphHandle) {
	var req struct {
		Root       uint32 `json:"root"`
		Iterations int    `json:"iterations"`
		Top        int    `json:"top"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	if req.Iterations <= 0 {
		req.Iterations = 10
	}
	if req.Top <= 0 {
		req.Top = 10
	}
	s.personalPPR(w, r, h, req.Root, req.Iterations, req.Top, r.URL.Query().Get("tenant"))
}
