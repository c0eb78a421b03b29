package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/server"
)

// serveOptions mirrors gstored's flag defaults (memory 64 MiB, segment
// memory/8, -maxruns 8, -queue 64, -batch-window 2ms) on the file backend.
func serveOptions(threads int) core.Options {
	o := core.DefaultOptions()
	o.Backend = "file"
	o.Threads = threads
	o.MemoryBytes = 64 << 20
	o.SegmentSize = o.MemoryBytes / 8
	o.MaxConcurrentRuns = 8
	o.MaxQueuedRuns = 64
	o.BatchWindow = 2 * time.Millisecond
	return o
}

const (
	qcacheBytes = 64 << 20 // gstored -qcache-bytes default
	graphName   = "g"

	spanHeader    = "X-Bench-Span"         // client.request span → handler's parent
	queryHeader   = "X-Bench-Query"        // query id shared by a request's spans
	handlerHeader = "X-Bench-Handler-Span" // handler's span, returned to the client
	cacheHeader   = "X-Gstore-Cache"
)

// servedRig is one converted graph behind an in-process server.Server on
// a loopback listener, with its write path attached.
type servedRig struct {
	dir    string
	stored int64 // stored tuples of the base graph
	srv    *server.Server
	hs     *http.Server
	done   chan struct{} // closed when hs.Serve returns
	base   string
	client *http.Client
	tr     *tracer
}

func openServed(el *graph.EdgeList, dir string, scale uint, threads int, tr *tracer) (*servedRig, error) {
	g, err := convertGraph(el, dir, graphName, scale, "snb")
	if err != nil {
		return nil, err
	}
	stored, basePath := g.Meta.NumStored, g.BasePath()
	if err := g.Close(); err != nil {
		return nil, err
	}
	srv := server.New()
	srv.QCacheBytes = qcacheBytes
	if err := srv.AddGraph(graphName, basePath, serveOptions(threads)); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	handler := srv.Handler()
	if tr != nil {
		handler = traceHandler(tr, handler)
	}
	r := &servedRig{
		dir: dir, stored: stored, srv: srv, tr: tr,
		hs:   &http.Server{Handler: handler},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 128, MaxIdleConnsPerHost: 128, // warm-up fans out wider than the measured clients
		}},
	}
	go func() {
		defer close(r.done)
		_ = r.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return r, nil
}

func (r *servedRig) close() {
	r.client.CloseIdleConnections()
	_ = r.hs.Close()
	<-r.done
	r.srv.Close()
	os.RemoveAll(r.dir)
}

// traceHandler is the benchmark's own middleware around Server.Handler():
// a server.handler span under the client's request span.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.Atoi(req.Header.Get(spanHeader))
		if err != nil { // an untraced request of the traced pass
			next.ServeHTTP(w, req)
			return
		}
		query, _ := strconv.ParseInt(req.Header.Get(queryHeader), 10, 64)
		id := tr.begin("server.handler", parent, query)
		w.Header().Set(handlerHeader, strconv.Itoa(id))
		next.ServeHTTP(w, req)
		tr.end(id)
	})
}

// reply is the union of the JSON bodies the harness reads.
type reply struct {
	Root     *uint32        `json:"root"`
	Reached  *int           `json:"reached"`
	MaxDepth *int32         `json:"max_depth"`
	Top      []rankedVertex `json:"top"`
	Stats    *struct {
		ElapsedMS float64 `json:"elapsed_ms"`
	} `json:"stats"`
	Components *int   `json:"components"`
	Largest    *int   `json:"largest"`
	Applied    *int   `json:"applied"`
	Error      string `json:"error"`
}

type response struct {
	status int
	cache  string // X-Gstore-Cache: hit | miss | join | bypass
	body   reply
	lat    time.Duration
}

// do sends one request and reads the whole reply. With trace set it
// records client.request → server.handler → (on a computed reply) a
// synthetic core.Scheduler.Run lasting the reply's stats.elapsed_ms.
func (r *servedRig) do(method, path string, payload []byte, trace bool) (response, error) {
	req, err := http.NewRequest(method, r.base+path, bytes.NewReader(payload))
	if err != nil {
		return response{}, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	tr := r.tr
	if !trace {
		tr = nil
	}
	query := tr.newQuery()
	id := tr.begin("client.request", 0, query)
	if id != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(id))
		req.Header.Set(queryHeader, strconv.FormatInt(query, 10))
	}
	begin := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		tr.end(id)
		return response{}, err
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := response{status: resp.StatusCode, cache: resp.Header.Get(cacheHeader), lat: time.Since(begin)}
	tr.end(id)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(blob, &out.body); err != nil {
		return out, fmt.Errorf("%s %s: reply is not JSON: %w", method, path, err)
	}
	if handler, err := strconv.Atoi(resp.Header.Get(handlerHeader)); err == nil && out.body.Stats != nil && out.cache != "hit" && out.cache != "join" {
		tr.attach("core.Scheduler.Run", handler, 0, time.Duration(out.body.Stats.ElapsedMS*float64(time.Millisecond)))
	}
	return out, nil
}

// get sends one personalized query and checks the shape of its reply.
func (r *servedRig) get(cfg sizing, q request, trace bool) (response, error) {
	resp, err := r.do(http.MethodGet, q.path(cfg), nil, trace)
	if err == nil {
		err = q.shape(cfg, resp)
	}
	if err != nil {
		return resp, fmt.Errorf("GET %s: %w", q.path(cfg), err)
	}
	return resp, nil
}

func graphPath(op string) string { return "/graphs/" + graphName + "/" + op }

// request is one personalized query of the serving mix.
type request struct {
	ppr  bool
	root uint32
}

func (q request) path(cfg sizing) string {
	if q.ppr {
		return fmt.Sprintf("%s?root=%d&iterations=%d&top=%d", graphPath("ppr"), q.root, cfg.pprIterations, cfg.pprTop)
	}
	return fmt.Sprintf("%s?root=%d", graphPath("bfs"), q.root)
}

// shape checks status and body of a GET reply: the fields the endpoint
// promises, echoing the root asked for. A refusal (429/503) fails here.
func (q request) shape(cfg sizing, resp response) error {
	if resp.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.status, resp.body.Error)
	}
	b := resp.body
	switch {
	case b.Root == nil || *b.Root != q.root:
		return fmt.Errorf("reply does not echo root %d", q.root)
	case b.Stats == nil:
		return fmt.Errorf("reply carries no stats")
	case resp.cache != "hit" && resp.cache != "miss" && resp.cache != "join":
		return fmt.Errorf("cache header %q", resp.cache)
	}
	if q.ppr {
		if len(b.Top) == 0 || len(b.Top) > cfg.pprTop {
			return fmt.Errorf("top list has %d entries", len(b.Top))
		}
		for i := 1; i < len(b.Top); i++ {
			if b.Top[i].Rank > b.Top[i-1].Rank {
				return fmt.Errorf("top list is not in rank order")
			}
		}
		return nil
	}
	if b.Reached == nil || b.MaxDepth == nil || *b.Reached < 1 || *b.MaxDepth < 0 {
		return fmt.Errorf("bfs reply lacks reached/max_depth")
	}
	return nil
}

// verify compares a reply with the reference answer over csr.
func (q request) verify(cfg sizing, csr *graph.CSR, b reply) error {
	if q.ppr {
		ref := graph.RefPersonalizedPageRank(csr, q.root, graph.DefaultPageRank(cfg.pprIterations))
		return topMatches(b.Top, ref, cfg.pprTop)
	}
	want := refBFS(csr, q.root)
	if *b.Reached != want.reached || *b.MaxDepth != want.maxDepth {
		return fmt.Errorf("bfs from %d: reached %d depth %d, want %d and %d",
			q.root, *b.Reached, *b.MaxDepth, want.reached, want.maxDepth)
	}
	return nil
}

type edgeJSON struct {
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
	Del bool   `json:"delete"`
}

// postEdges sends one mutation batch (or, with no ops, a bare flush) and
// returns once it is acked.
func (r *servedRig) postEdges(ops []delta.Op, flush bool) error {
	body := struct {
		Edges []edgeJSON `json:"edges"`
		Flush bool       `json:"flush"`
	}{Edges: make([]edgeJSON, len(ops)), Flush: flush}
	for i, op := range ops {
		body.Edges[i] = edgeJSON{Src: op.Src, Dst: op.Dst, Del: op.Del}
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := r.do(http.MethodPost, graphPath("edges"), payload, true)
	if err != nil {
		return err
	}
	if resp.status != http.StatusOK {
		return fmt.Errorf("POST edges: status %d: %s", resp.status, resp.body.Error)
	}
	if resp.body.Applied == nil || *resp.body.Applied != len(ops) {
		return fmt.Errorf("POST edges: ack does not confirm %d ops", len(ops))
	}
	return nil
}

// scrape reads /metrics into series → value.
type scrape map[string]float64

func (r *servedRig) scrape() (scrape, error) {
	resp, err := r.client.Get(r.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// sum adds up every series of the family whose label set contains all of
// the given label="value" fragments.
func (s scrape) sum(family string, labels ...string) float64 {
	var total float64
series:
	for key, v := range s {
		if key != family && !strings.HasPrefix(key, family+"{") {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(key, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

// servingCounts is what the serving layers reported for a phase: cache
// outcomes as clients saw them in X-Gstore-Cache, the rest from scrapes.
type servingCounts struct {
	hits, misses, joins int
	invalidations       float64
	occupancySum, occupancyN,
	batchedSum, batchedN float64
}

func (c *servingCounts) outcome(cache string) {
	switch cache {
	case "hit":
		c.hits++
	case "miss":
		c.misses++
	case "join":
		c.joins++
	}
}

func (c servingCounts) lookups() float64 { return float64(c.hits + c.misses + c.joins) }

// reportServing writes the serving layers' per-layer metrics; all zero
// for a workload that calls the engine directly.
func reportServing(res *results, c servingCounts) {
	res.set("qcache.hit_ratio", ratio(float64(c.hits), c.lookups()))
	res.set("qcache.join_ratio", ratio(float64(c.joins), c.lookups()))
	res.set("qcache.invalidation_ratio", ratio(c.invalidations, c.lookups()))
	res.set("core.sched.shared_runs_mean", ratio(c.occupancySum, c.occupancyN))
	res.set("core.personal.batched_roots_mean", ratio(c.batchedSum, c.batchedN))
}

// phaseDelta turns two scrapes around a phase into the engine's totals
// and the scheduler/cache counters for it.
func phaseDelta(before, after scrape, threads int, c *servingCounts) sweepTotals {
	d := func(family string, labels ...string) float64 {
		return after.sum(family, labels...) - before.sum(family, labels...)
	}
	t := sweepTotals{
		iterations: int64(d("gstore_engine_iterations_total")),
		elapsed:    time.Duration(d("gstore_engine_run_seconds_sum") * float64(time.Second)),
		iowait:     time.Duration(d("gstore_engine_iowait_microseconds_total")) * time.Microsecond,
		compute:    time.Duration(d("gstore_engine_compute_microseconds_total")) * time.Microsecond,
		processed:  int64(d("gstore_engine_tiles_processed_total")),
		fromCache:  int64(d("gstore_engine_tiles_from_cache_total")),
		skipped:    int64(d("gstore_engine_tiles_skipped_total")),
		requests:   int64(d("gstore_engine_io_requests_total")),
		bytes:      int64(d("gstore_engine_bytes_read_total")),
		workerBusy: make([]time.Duration, threads),
	}
	for w := range t.workerBusy {
		us := d("gstore_engine_worker_busy_microseconds_total", fmt.Sprintf("worker=%q", strconv.Itoa(w)))
		t.workerBusy[w] = time.Duration(us) * time.Microsecond
	}
	c.invalidations = d("gstore_qcache_invalidations_total")
	c.occupancySum, c.occupancyN = d("gstore_run_batch_occupancy_sum"), d("gstore_run_batch_occupancy_count")
	c.batchedSum, c.batchedN = d("gstore_personal_batched_roots_sum"), d("gstore_personal_batched_roots_count")
	return t
}
