// Package server exposes converted graphs over HTTP: the "store" face of
// G-Store. One process serves any number of converted graphs; each
// algorithm request runs through the slide-cache-rewind engine and
// returns a JSON summary (full per-vertex results are available paged).
//
// Endpoints:
//
//	GET  /healthz                     — liveness
//	GET  /readyz                      — readiness: graphs loaded, schedulers
//	                                    accepting, no WAL in the failed state
//	GET  /metrics                     — Prometheus text exposition
//	GET  /graphs                      — list loaded graphs
//	GET  /graphs/{name}               — one graph's metadata
//	POST /graphs/{name}/bfs           — {"root":0,"async":false}
//	GET  /graphs/{name}/bfs?root=N    — personalized fast path: result-cached,
//	                                    coalesced with concurrent roots into one msbfs run
//	POST /graphs/{name}/msbfs         — {"roots":[0,1,2]}
//	POST /graphs/{name}/pagerank      — {"iterations":10,"top":10}
//	GET  /graphs/{name}/ppr?root=N    — personalized PageRank (result-cached);
//	                                    also POST {"root":0,"iterations":10,"top":10}
//	POST /graphs/{name}/wcc           — {}
//	POST /graphs/{name}/scc           — {} (directed graphs only)
//	POST /graphs/{name}/edges         — {"edges":[{"src":0,"dst":1,"delete":false},…],"flush":false}
//
// Every request passes through instrumentation middleware that records
// method/graph/op/status counters, a latency histogram, and an in-flight
// gauge into the server's metrics.Registry. Engine runs honor the
// request context, so a disconnected client cancels its run. Run errors
// are classified: invalid request parameters are 400s, canceled runs and
// runs refused by a scheduler that graceful shutdown already closed are
// 503s, and engine/storage failures are 500s.
//
// Unless the server is ReadOnly, each graph is served with its mutable
// write path attached: POST /graphs/{name}/edges appends a durable WAL
// record and publishes the batch to the delta layer, so subsequent
// queries see base ∪ delta. Crash recovery (snapshot load + WAL replay)
// happens in AddGraph.
//
// Concurrent algorithm requests against one graph are co-scheduled onto
// a shared tile sweep by a core.Scheduler (up to MaxConcurrentRuns at
// once, MaxQueuedRuns waiting); when both are full the request is
// rejected with 429 Too Many Requests.
//
// The personalized GET endpoints additionally pass through a bounded
// result cache (QCacheBytes/QCacheTTL) keyed by graph, meta digest,
// algorithm, params and delta generation — mutations through /edges
// bump the generation and implicitly invalidate — with single-flight
// dedup of identical in-flight queries; the X-Gstore-Cache response
// header reports hit/miss/join/bypass. An optional ?tenant= label on
// run-submitting requests enforces a per-tenant concurrent-run quota
// (TenantMaxRuns), rejected with 429 and a distinct "quota" status.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/faultfs"
	"github.com/gwu-systems/gstore/internal/metrics"
	"github.com/gwu-systems/gstore/internal/qcache"
	"github.com/gwu-systems/gstore/internal/tile"
	"github.com/gwu-systems/gstore/internal/wal"
)

// GraphHandle is one served graph: the open tile store, its engine, and
// the scheduler that co-schedules concurrent algorithm runs onto the
// engine's shared tile sweep.
type GraphHandle struct {
	Name   string
	Graph  *tile.Graph
	engine *core.Engine
	sched  *core.Scheduler
	// delta is the graph's write path (WAL + delta tiles); nil on a
	// read-only server, in which case POST /graphs/{name}/edges is 403.
	delta *delta.Store
	// applyMu serializes mutation batches per graph: delta.Store.Apply is
	// safe for one writer at a time (readers never block).
	applyMu sync.Mutex

	// digest fingerprints the on-disk graph for result cache keys (see
	// metaDigest).
	digest string
	// tenants counts in-flight runs per tenant label when the server
	// enforces TenantMaxRuns.
	tenantMu sync.Mutex
	tenants  map[string]int
}

// Server routes requests to its graphs.
type Server struct {
	// ReadOnly, when set before AddGraph, serves graphs without opening
	// their write path: no WAL replay, no on-disk side effects, and edge
	// mutations are refused with 403.
	ReadOnly bool

	// QCacheBytes, when positive before the first AddGraph, enables the
	// personalized-query result cache with that byte budget (shared
	// across graphs; keys carry the graph name and meta digest).
	QCacheBytes int64
	// QCacheTTL is the result cache entry lifetime (default one minute).
	QCacheTTL time.Duration
	// TenantMaxRuns, when positive, caps concurrent algorithm runs per
	// tenant query label; requests over the cap get 429 with a "quota"
	// metric status. Zero disables the cap.
	TenantMaxRuns int

	// DeltaFS, when set before AddGraph, routes every write-path file
	// operation (WAL, delta snapshots) through it. The chaos harness and
	// degraded-mode tests inject a faultfs.FaultFS here; production
	// leaves it nil (real filesystem).
	DeltaFS faultfs.FS

	mu     sync.RWMutex
	graphs map[string]*GraphHandle
	reg    *metrics.Registry
	qc     *qcache.Cache
}

// New creates an empty server.
func New() *Server {
	return &Server{
		graphs: make(map[string]*GraphHandle),
		reg:    metrics.NewRegistry(),
	}
}

// Metrics returns the server's registry, so daemons can publish their
// own series (build info, uptime) alongside the request metrics.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// validGraphName reports whether name is servable: non-empty, at most
// 128 bytes, and restricted to [A-Za-z0-9._-] so it round-trips through
// one URL path segment without escaping ambiguity ('/' or '%' in a name
// would be mis-routed by the path split).
func validGraphName(name string) bool {
	if name == "" || len(name) > 128 || name == "." || name == ".." {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return false
		}
	}
	return true
}

// AddGraph opens the graph at basePath and serves it under name. opts
// configures its engine. Unless the server is ReadOnly, the graph's
// write path is opened too: any snapshot and WAL left by a previous
// process are recovered here, so acked mutations survive a crash.
func (s *Server) AddGraph(name, basePath string, opts core.Options) error {
	if !validGraphName(name) {
		return fmt.Errorf("server: invalid graph name %q (need [A-Za-z0-9._-], ≤128 bytes)", name)
	}
	g, err := tile.Open(basePath)
	if err != nil {
		return err
	}
	eng, err := core.NewEngine(g, opts)
	if err != nil {
		g.Close()
		return err
	}
	var ds *delta.Store
	if !s.ReadOnly {
		fsync := s.walFsync(name)
		ds, err = delta.Open(g, basePath, delta.Options{
			OnFsync: func(d time.Duration) { fsync.Observe(d.Seconds()) },
			FS:      s.DeltaFS,
		})
		if err != nil {
			eng.Close()
			g.Close()
			return fmt.Errorf("server: opening write path for %q: %w", name, err)
		}
		eng.SetDeltaStore(ds)
		st := ds.Stats()
		gl := metrics.L("graph", name)
		s.reg.Counter("gstore_wal_replay_segments_total",
			"WAL segments scanned during crash recovery at graph open.", gl).
			Add(int64(st.ReplaySegments))
		s.reg.Counter("gstore_wal_replay_records_total",
			"WAL records re-applied during crash recovery at graph open.", gl).
			Add(int64(st.ReplayRecords))
		s.reg.Counter("gstore_wal_replay_ops_total",
			"Edge mutations re-applied during crash recovery at graph open.", gl).
			Add(st.ReplayOps)
		s.deltaMetrics(name, st)
		// Pre-register the degradation gauge at 0 so dashboards can alert
		// on the 0→1 transition instead of on series appearance.
		s.walFailed(name).Set(0)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.graphs[name]; dup {
		eng.Close()
		if ds != nil {
			ds.Close()
		}
		g.Close()
		return fmt.Errorf("server: graph %q already loaded", name)
	}
	if s.qc == nil && s.QCacheBytes > 0 {
		ttl := s.QCacheTTL
		if ttl <= 0 {
			ttl = time.Minute
		}
		s.qc = qcache.New(s.QCacheBytes, ttl)
	}
	sched := core.NewScheduler(eng)
	sched.PersonalRunHook = func(st *core.Stats, err error) { s.observePersonalRun(name, st, err) }
	s.graphs[name] = &GraphHandle{
		Name: name, Graph: g, engine: eng, sched: sched, delta: ds,
		digest: metaDigest(g),
	}
	// Register the scheduler series now so they are visible at /metrics
	// from the first scrape, not only after the first (or first
	// rejected) run.
	s.queueDepth(name)
	s.queueWait(name)
	s.batchOccupancy(name)
	s.runsRejected(name)
	s.batchedRoots(name)
	s.coalescedRuns(name)
	s.publishQCache()
	return nil
}

func (s *Server) queueDepth(graph string) *metrics.Gauge {
	return s.reg.Gauge("gstore_run_queue_depth",
		"Runs waiting for scheduler admission, by graph.",
		metrics.L("graph", graph))
}

func (s *Server) queueWait(graph string) *metrics.Histogram {
	return s.reg.Histogram("gstore_run_queue_wait_seconds",
		"Time runs waited for scheduler admission, by graph.",
		metrics.DefBuckets, metrics.L("graph", graph))
}

func (s *Server) batchOccupancy(graph string) *metrics.Histogram {
	return s.reg.Histogram("gstore_run_batch_occupancy",
		"Peak number of runs sharing the sweep each run rode, by graph.",
		occupancyBuckets, metrics.L("graph", graph))
}

func (s *Server) runsRejected(graph string) *metrics.Counter {
	return s.reg.Counter("gstore_runs_rejected_total",
		"Runs rejected because the admission queue was full, by graph.",
		metrics.L("graph", graph))
}

func (s *Server) walFsync(graph string) *metrics.Histogram {
	return s.reg.Histogram("gstore_wal_fsync_seconds",
		"WAL group-commit fsync latency, by graph.",
		metrics.DefBuckets, metrics.L("graph", graph))
}

func (s *Server) walFailed(graph string) *metrics.Gauge {
	return s.reg.Gauge("gstore_wal_failed",
		"1 when the graph's WAL is in the sticky failed state (ingest "+
			"degraded to read-only, queries unaffected), by graph.",
		metrics.L("graph", graph))
}

// deltaMetrics republishes the write path's cumulative counters and
// current delta-layer shape from one stats snapshot.
func (s *Server) deltaMetrics(graph string, st delta.Stats) {
	gl := metrics.L("graph", graph)
	s.reg.Counter("gstore_wal_appends_total",
		"Mutation records appended to the WAL, by graph.", gl).
		Set(int64(st.WALAppends))
	s.reg.Counter("gstore_wal_flushes_total",
		"Delta snapshots flushed (each truncates the WAL), by graph.", gl).
		Set(int64(st.Flushes))
	s.reg.Gauge("gstore_wal_segment",
		"Index of the WAL segment currently being appended to, by graph.", gl).
		Set(int64(st.WALSegment))
	s.reg.Gauge("gstore_delta_tiles",
		"Tiles with pending delta-layer mutations, by graph.", gl).
		Set(int64(st.DeltaTiles))
	s.reg.Gauge("gstore_delta_inserted_tuples",
		"Edge tuples inserted by the delta layer, by graph.", gl).
		Set(st.InsTuples)
	s.reg.Gauge("gstore_delta_masked_keys",
		"Base edge keys masked (deleted) by the delta layer, by graph.", gl).
		Set(st.MaskedKeys)
}

// Close releases every graph.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.graphs {
		h.sched.Close()
		h.engine.Close()
		if h.delta != nil {
			// Flushes the delta layer to a snapshot and truncates the WAL;
			// a kill before this point recovers via replay at next open.
			h.delta.Close()
		}
		h.Graph.Close()
	}
	s.graphs = map[string]*GraphHandle{}
}

// Handler returns the HTTP handler with instrumentation middleware
// (request metrics + panic containment) applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", s.handleReady)
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("/graphs", s.handleList)
	mux.HandleFunc("/graphs/", s.handleGraph)
	return s.instrument(mux)
}

// handleReady is the readiness probe: 200 only while the server can do
// useful work — at least one graph is loaded, every scheduler still
// admits runs, and no graph's WAL has entered the sticky failed state.
// A not-ready server keeps serving the requests it can (queries work
// during WAL-failed degradation); readiness only steers load balancers
// and rollout gates.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.RLock()
	handles := make([]*GraphHandle, 0, len(s.graphs))
	for _, h := range s.graphs {
		handles = append(handles, h)
	}
	s.mu.RUnlock()
	if len(handles) == 0 {
		writeErrorStatus(w, http.StatusServiceUnavailable, "no_graphs", "no graphs loaded")
		return
	}
	for _, h := range handles {
		if !h.sched.Accepting() {
			writeErrorStatus(w, http.StatusServiceUnavailable, "shutting_down",
				"graph %q is no longer accepting runs", h.Name)
			return
		}
		if h.delta != nil {
			if err := h.delta.Failed(); err != nil {
				s.walFailed(h.Name).Set(1)
				writeErrorStatus(w, http.StatusServiceUnavailable, "wal_failed",
					"graph %q write path failed: %v", h.Name, err)
				return
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"status": "ok", "graphs": len(handles)})
}

// ops are the algorithm path segments; anything else is labeled "other"
// to keep metric cardinality bounded.
var ops = map[string]bool{
	"bfs": true, "khop": true, "msbfs": true,
	"pagerank": true, "ppr": true, "wcc": true, "scc": true,
	"edges": true,
}

// routeLabels derives bounded-cardinality graph/op labels from a request
// path. Unknown graphs and ops collapse into "unknown"/"other".
func (s *Server) routeLabels(path string) (graph, op string) {
	switch {
	case path == "/healthz":
		return "", "healthz"
	case path == "/readyz":
		return "", "readyz"
	case path == "/metrics":
		return "", "metrics"
	case path == "/graphs":
		return "", "list"
	case strings.HasPrefix(path, "/graphs/"):
		name, opSeg, _ := splitGraphPath(path)
		if s.lookup(name) != nil {
			graph = name
		} else {
			graph = "unknown"
		}
		switch {
		case opSeg == "":
			op = "info"
		case ops[opSeg]:
			op = opSeg
		default:
			op = "other"
		}
		return graph, op
	default:
		return "", "other"
	}
}

// statusRecorder captures the status code written by a handler and
// whether anything was written at all (so panic recovery knows if a 500
// can still be sent).
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// instrument wraps next with per-request metrics — an in-flight gauge,
// a request counter by method/graph/op/status, and a latency histogram
// by op — and panic containment: a panicking handler is logged with its
// stack and answered with 500 status="panic" (when the response has not
// started) instead of killing the whole process.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inflight := s.reg.Gauge("gstore_http_requests_in_flight",
			"Requests currently being served.")
		inflight.Add(1)
		defer inflight.Add(-1)

		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.reg.Counter("gstore_http_panics_total",
					"Handler panics contained by the recovery middleware.").Inc()
				log.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				rec.code = http.StatusInternalServerError
				if !rec.wrote {
					writeErrorStatus(rec, http.StatusInternalServerError, "panic",
						"internal error (handler panic)")
				}
			}
			graph, op := s.routeLabels(r.URL.EscapedPath())
			s.reg.Counter("gstore_http_requests_total",
				"HTTP requests by method, graph, operation and status.",
				metrics.L("method", r.Method),
				metrics.L("graph", graph),
				metrics.L("op", op),
				metrics.L("status", strconv.Itoa(rec.code))).Inc()
			s.reg.Histogram("gstore_http_request_duration_seconds",
				"Request latency by operation.", metrics.DefBuckets,
				metrics.L("op", op)).Observe(time.Since(start).Seconds())
		}()
		next.ServeHTTP(rec, r)
	})
}

// splitGraphPath splits an escaped "/graphs/…" path into its decoded
// graph name and operation segment. A name whose decoded form contains
// '/' (an escaped %2F) can never match a served graph, because AddGraph
// rejects such names — so escape tricks fall through to 404 instead of
// being mis-routed.
func splitGraphPath(escapedPath string) (name, op string, err error) {
	rest := strings.TrimPrefix(escapedPath, "/graphs/")
	parts := strings.SplitN(rest, "/", 2)
	name, err = url.PathUnescape(parts[0])
	if err != nil {
		return "", "", fmt.Errorf("bad graph name escape: %v", err)
	}
	if len(parts) == 2 {
		op, err = url.PathUnescape(parts[1])
		if err != nil {
			return "", "", fmt.Errorf("bad operation escape: %v", err)
		}
	}
	return name, op, nil
}

func (s *Server) lookup(name string) *GraphHandle {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.graphs[name]
}

type graphInfo struct {
	Name        string `json:"name"`
	Vertices    uint32 `json:"vertices"`
	Edges       int64  `json:"edges"`
	StoredEdges int64  `json:"stored_tuples"`
	Directed    bool   `json:"directed"`
	Half        bool   `json:"half_stored"`
	TileBits    uint   `json:"tile_bits"`
	Tiles       int    `json:"tiles"`
	DataBytes   int64  `json:"data_bytes"`
}

func info(h *GraphHandle) graphInfo {
	m := h.Graph.Meta
	return graphInfo{
		Name:        h.Name,
		Vertices:    m.NumVertices,
		Edges:       m.NumOriginal,
		StoredEdges: m.NumStored,
		Directed:    m.Directed,
		Half:        m.Half,
		TileBits:    m.TileBits,
		Tiles:       h.Graph.Layout.NumTiles(),
		DataBytes:   h.Graph.DataBytes(),
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// Snapshot the handles in one critical section: resolving each name
	// with a second lookup would race with Close and hand info a nil
	// handle.
	s.mu.RLock()
	handles := make([]*GraphHandle, 0, len(s.graphs))
	for _, h := range s.graphs {
		handles = append(handles, h)
	}
	s.mu.RUnlock()
	sort.Slice(handles, func(i, j int) bool { return handles[i].Name < handles[j].Name })
	out := make([]graphInfo, 0, len(handles))
	for _, h := range handles {
		out = append(out, info(h))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	// Split on the escaped path so a %2F inside a segment stays inside
	// that segment instead of shifting the route.
	name, op, err := splitGraphPath(r.URL.EscapedPath())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	h := s.lookup(name)
	if h == nil {
		writeError(w, http.StatusNotFound, "unknown graph %q", name)
		return
	}
	if op == "" {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, http.StatusOK, info(h))
		return
	}
	if r.Method == http.MethodGet && (op == "bfs" || op == "ppr") {
		// The personalized fast path: cached, single-flight deduped, and
		// (for BFS) coalesced with concurrent roots into one msbfs run.
		s.handlePersonal(w, r, h, op)
		return
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if op != "edges" && op != "ppr" {
		// Per-tenant admission quota for the run-submitting POST ops; the
		// personalized paths (GET bfs/ppr, POST ppr) apply it inside the
		// cache fill instead, so cache hits stay quota-free.
		release, err := s.acquireTenant(h, op, r.URL.Query().Get("tenant"))
		if err != nil {
			writeRunError(w, err)
			return
		}
		defer release()
	}
	switch op {
	case "edges":
		s.handleEdges(w, r, h)
	case "bfs":
		s.handleBFS(w, r, h)
	case "khop":
		s.handleKHop(w, r, h)
	case "msbfs":
		s.handleMSBFS(w, r, h)
	case "pagerank":
		s.handlePageRank(w, r, h)
	case "ppr":
		s.handlePPRPost(w, r, h)
	case "wcc":
		s.handleComponents(w, r, h, false)
	case "scc":
		s.handleComponents(w, r, h, true)
	default:
		writeError(w, http.StatusNotFound, "unknown operation %q", op)
	}
}

type runStats struct {
	Iterations int     `json:"iterations"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	BytesRead  int64   `json:"bytes_read"`
	CacheHits  int64   `json:"tiles_from_cache"`
}

func toStats(st *core.Stats) runStats {
	return runStats{
		Iterations: st.Iterations,
		ElapsedMS:  float64(st.Elapsed) / float64(time.Millisecond),
		BytesRead:  st.BytesRead,
		CacheHits:  st.TilesFromCache,
	}
}

// occupancyBuckets grades how many runs shared one sweep (1 = solo, up
// to the 64-run interest-mask ceiling).
var occupancyBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// run submits the algorithm to the graph's shared-sweep scheduler,
// publishes the run's engine/storage/mem counters, and honors the
// request context: a client that disconnects cancels its run, whether
// it is queued or mid-sweep.
func (s *Server) run(ctx context.Context, h *GraphHandle, a algo.Algorithm) (*core.Stats, error) {
	st, err := h.sched.Run(ctx, a)
	s.queueDepth(h.Name).Set(int64(h.sched.QueueDepth()))

	status := classifyRunStatus(err)
	if status == "rejected" {
		s.runsRejected(h.Name).Inc()
	}
	s.engineRuns(h.Name, a.Name(), status).Inc()
	if st != nil {
		// Queue wait is observed for every run that has stats — including
		// ones canceled or rejected while still queued, which would
		// otherwise bias the histogram toward waits that ended in
		// admission. Occupancy and engine counters only make sense for
		// runs that actually rode a sweep (SharedRuns ≥ 1).
		s.queueWait(h.Name).Observe(st.QueueWait.Seconds())
		if st.SharedRuns > 0 {
			s.batchOccupancy(h.Name).Observe(float64(st.SharedRuns))
			core.PublishStats(s.reg, h.Name, st)
		}
	}
	return st, err
}

// classifyRunStatus maps a Run error onto the bounded status label set
// of gstore_engine_runs_total.
func classifyRunStatus(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, core.ErrQueueFull):
		return "rejected"
	case errors.Is(err, core.ErrSchedulerClosed):
		return "shutdown"
	case errors.As(err, new(*core.BadRequestError)):
		return "bad_request"
	case errors.As(err, new(*core.IntegrityError)):
		return "integrity"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "error"
	}
}

// writeRunError maps a Run error onto the right status class: request
// errors are the client's fault (400), admission overflow is
// backpressure the client should retry later (429), a scheduler closed
// by graceful shutdown or a canceled run mean the server is going away
// or the client already left (503), detected tile corruption is a 500
// naming the damaged tile (the operator's cue to run gstore fsck), and
// anything else is an engine/storage failure (500).
func writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.As(err, new(*core.BadRequestError)):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, core.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, errTenantQuota):
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, core.ErrSchedulerClosed):
		writeError(w, http.StatusServiceUnavailable, "server shutting down: %v", err)
	case errors.As(err, new(*core.IntegrityError)):
		writeError(w, http.StatusInternalServerError, "data integrity failure: %v", err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, "run canceled: %v", err)
	default:
		writeError(w, http.StatusInternalServerError, "engine failure: %v", err)
	}
}

// handleEdges applies one batch of edge mutations through the graph's
// WAL-backed write path. The batch is atomic with respect to queries
// (readers see all of it or none of it) and durable once the response
// is written: the WAL record is fsynced before Apply returns. Once the
// WAL enters its sticky failed state the graph degrades to read-only:
// every mutation gets 503 status="wal_failed" (queries keep serving)
// until the operator restarts the process against healthy storage.
func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request, h *GraphHandle) {
	if h.delta == nil {
		writeError(w, http.StatusForbidden, "graph %q is read-only", h.Name)
		return
	}
	if err := h.delta.Failed(); err != nil {
		s.walFailed(h.Name).Set(1)
		writeErrorStatus(w, http.StatusServiceUnavailable, "wal_failed",
			"graph %q is read-only (write path failed): %v", h.Name, err)
		return
	}
	var req struct {
		Edges []struct {
			Src uint32 `json:"src"`
			Dst uint32 `json:"dst"`
			Del bool   `json:"delete"`
		} `json:"edges"`
		// Flush writes a delta snapshot and truncates the WAL after the
		// batch. Nothing flushes automatically: without it the WAL grows
		// until a request sets flush or the server shuts down.
		Flush bool `json:"flush"`
	}
	if !readJSONLimit(w, r, &req, 64<<20) {
		return
	}
	if len(req.Edges) == 0 && !req.Flush {
		writeError(w, http.StatusBadRequest, "empty batch: need edges or flush")
		return
	}
	ops := make([]delta.Op, len(req.Edges))
	for i, e := range req.Edges {
		ops[i] = delta.Op{Del: e.Del, Src: e.Src, Dst: e.Dst}
	}

	h.applyMu.Lock()
	changed, err := h.delta.Apply(ops)
	if err == nil && req.Flush {
		err = h.delta.Flush()
	}
	st := h.delta.Stats()
	h.applyMu.Unlock()

	if err != nil {
		var bad *delta.BadOpError
		switch {
		case errors.As(err, &bad):
			writeError(w, http.StatusBadRequest, "%v", err)
		case errors.Is(err, wal.ErrFailed):
			// The fsync failed under this very batch (or one racing it):
			// nothing was acked, the WAL is poisoned, and the graph is now
			// read-only for mutations.
			s.walFailed(h.Name).Set(1)
			writeErrorStatus(w, http.StatusServiceUnavailable, "wal_failed",
				"graph %q write failed and is now read-only: %v", h.Name, err)
		default:
			writeError(w, http.StatusInternalServerError, "write path failure: %v", err)
		}
		return
	}
	s.deltaMetrics(h.Name, st)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"applied":     len(ops),
		"changed":     changed,
		"seq":         st.Seq,
		"delta_tiles": st.DeltaTiles,
		"wal_segment": st.WALSegment,
	})
}

func (s *Server) handleBFS(w http.ResponseWriter, r *http.Request, h *GraphHandle) {
	var req struct {
		Root  uint32 `json:"root"`
		Async bool   `json:"async"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	var depths []int32
	var st *core.Stats
	var err error
	if req.Async {
		a := algo.NewAsyncBFS(req.Root)
		st, err = s.run(r.Context(), h, a)
		if err == nil {
			depths = a.Depths()
		}
	} else {
		a := algo.NewBFS(req.Root)
		st, err = s.run(r.Context(), h, a)
		if err == nil {
			depths = a.Depths()
		}
	}
	if err != nil {
		writeRunError(w, err)
		return
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
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"root": req.Root, "reached": reached, "max_depth": maxDepth,
		"stats": toStats(st),
	})
}

// handleKHop answers neighborhood-size queries: how many vertices lie
// within k hops of root (per ring and cumulative).
func (s *Server) handleKHop(w http.ResponseWriter, r *http.Request, h *GraphHandle) {
	var req struct {
		Root uint32 `json:"root"`
		K    int    `json:"k"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	if req.K <= 0 {
		req.K = 2
	}
	a := algo.NewBFS(req.Root)
	st, err := s.run(r.Context(), h, a)
	if err != nil {
		writeRunError(w, err)
		return
	}
	rings := make([]int, req.K+1)
	beyond := 0
	for _, d := range a.Depths() {
		switch {
		case d < 0:
		case int(d) <= req.K:
			rings[d]++
		default:
			beyond++
		}
	}
	cum := 0
	cums := make([]int, len(rings))
	for i, n := range rings {
		cum += n
		cums[i] = cum
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"root": req.Root, "k": req.K,
		"ring_sizes": rings, "cumulative": cums, "beyond_k": beyond,
		"stats": toStats(st),
	})
}

func (s *Server) handleMSBFS(w http.ResponseWriter, r *http.Request, h *GraphHandle) {
	var req struct {
		Roots []uint32 `json:"roots"`
	}
	if !readJSON(w, r, &req) {
		return
	}
	a := algo.NewMSBFS(req.Roots)
	st, err := s.run(r.Context(), h, a)
	if err != nil {
		writeRunError(w, err)
		return
	}
	out := make([]map[string]interface{}, len(req.Roots))
	for i, root := range req.Roots {
		reached := 0
		for _, d := range a.Depth(i) {
			if d >= 0 {
				reached++
			}
		}
		out[i] = map[string]interface{}{"root": root, "reached": reached}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"sources": out, "stats": toStats(st),
	})
}

func (s *Server) handlePageRank(w http.ResponseWriter, r *http.Request, h *GraphHandle) {
	var req struct {
		Iterations int `json:"iterations"`
		Top        int `json:"top"`
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
	a := algo.NewPageRank(req.Iterations)
	st, err := s.run(r.Context(), h, a)
	if err != nil {
		writeRunError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"top": topRanks(a.Ranks(), req.Top, false), "stats": toStats(st),
	})
}

func (s *Server) handleComponents(w http.ResponseWriter, r *http.Request, h *GraphHandle, strong bool) {
	var req struct{}
	if !readJSON(w, r, &req) {
		return
	}
	var labels []uint32
	var st *core.Stats
	var err error
	if strong {
		a := algo.NewSCC()
		st, err = s.run(r.Context(), h, a)
		if err == nil {
			labels = a.Labels()
		}
	} else {
		a := algo.NewWCC()
		st, err = s.run(r.Context(), h, a)
		if err == nil {
			labels = a.Labels()
		}
	}
	if err != nil {
		writeRunError(w, err)
		return
	}
	sizes := map[uint32]int{}
	for _, l := range labels {
		sizes[l]++
	}
	largest := 0
	for _, n := range sizes {
		if n > largest {
			largest = n
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"components": len(sizes), "largest": largest, "stats": toStats(st),
	})
}

func readJSON(w http.ResponseWriter, r *http.Request, into interface{}) bool {
	return readJSONLimit(w, r, into, 1<<20)
}

func readJSONLimit(w http.ResponseWriter, r *http.Request, into interface{}, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if err := dec.Decode(into); err != nil && err != io.EOF {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeErrorStatus is writeError with a machine-readable "status" field
// so clients can distinguish degradation classes (wal_failed, panic,
// shutting_down, …) without parsing the human message.
func writeErrorStatus(w http.ResponseWriter, code int, status, format string, args ...interface{}) {
	writeJSON(w, code, map[string]string{
		"error":  fmt.Sprintf(format, args...),
		"status": status,
	})
}
