package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/tile"
)

// personalTestServer serves one kron graph through the personalized
// path: result cache on, the given coalescing window, an optional
// per-tenant run cap, and one run slot, so a window that fires behind
// occupy's held run waits in the queue where waitQueued sees it. Returns
// the edge list for reference computations.
func personalTestServer(t *testing.T, window time.Duration, tenantMax int) (*Server, *httptest.Server, *graph.EdgeList) {
	t.Helper()
	s := New()
	t.Cleanup(s.Close)
	s.QCacheBytes = 1 << 20
	s.QCacheTTL = time.Minute
	s.TenantMaxRuns = tenantMax

	opts := core.DefaultOptions()
	opts.MemoryBytes = 2 << 20
	opts.SegmentSize = 128 << 10
	opts.Threads = 2
	opts.MaxConcurrentRuns = 1
	opts.BatchWindow = window

	el, err := gen.Generate(gen.Graph500Config(9, 8, 95))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	g, err := tile.Convert(el, dir, "kron", tile.ConvertOptions{
		TileBits: 5, GroupQ: 2, Symmetry: true, Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	if err := s.AddGraph("kron", tile.BasePath(dir, "kron"), opts); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, el
}

// gatedRun holds an algorithm at its first iteration boundary until
// release is closed; entered is signaled when it gets there.
type gatedRun struct {
	algo.Algorithm
	entered, release chan struct{}
}

func (g *gatedRun) AfterIteration(i int) bool {
	done := g.Algorithm.AfterIteration(i)
	if i == 0 {
		g.entered <- struct{}{}
		<-g.release
	}
	return done
}

// occupy makes graph's engine busy, so personalized roots arriving now
// park in a coalescing window instead of running solo at once: a gated
// BFS is admitted straight through the scheduler (never the personal
// path, so the personal metrics do not see it) and held until the
// returned release is called (cleanup calls it too). release waits for
// the held run to finish.
func occupy(t *testing.T, s *Server, graph string) (release func()) {
	t.Helper()
	g := &gatedRun{Algorithm: algo.NewBFS(0), entered: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := s.lookup(graph).sched.Run(context.Background(), g)
		done <- err
	}()
	<-g.entered
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(g.release)
			if err := <-done; err != nil {
				t.Errorf("occupying run: %v", err)
			}
		})
	}
	t.Cleanup(release)
	return release
}

// waitQueued blocks until n runs wait for admission on graph: behind
// occupy's held run, that is a coalescing window that fired with the
// riders parked in it.
func waitQueued(t *testing.T, s *Server, graph string, n int) {
	t.Helper()
	sched := s.lookup(graph).sched
	deadline := time.Now().Add(5 * time.Second)
	for sched.QueueDepth() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d queued runs", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// getJSON GETs url and decodes the JSON body, returning the response
// for header/status checks.
func getJSON(t *testing.T, url string) (*http.Response, map[string]interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp, out
}

// refReach computes (reached, max_depth) for a root from the reference
// BFS, the two summary numbers the personalized endpoint returns.
func refReach(el *graph.EdgeList, root uint32) (int, int) {
	depths := graph.RefBFS(graph.NewCSR(el, false), graph.VertexID(root))
	reached, maxDepth := 0, -1
	for _, d := range depths {
		if d >= 0 {
			reached++
			if int(d) > maxDepth {
				maxDepth = int(d)
			}
		}
	}
	return reached, maxDepth
}

// TestPersonalBFSMissThenHit pins the cache fast path: the first GET
// computes (miss), the repeat is served from memory (hit) with an
// identical body, and the qcache metric families move.
func TestPersonalBFSMissThenHit(t *testing.T) {
	_, ts, el := personalTestServer(t, 0, 0)
	url := ts.URL + "/graphs/kron/bfs?root=3"

	resp1, out1 := getJSON(t, url)
	if resp1.StatusCode != 200 {
		t.Fatalf("first GET = %d: %v", resp1.StatusCode, out1)
	}
	if h := resp1.Header.Get(cacheHeader); h != "miss" {
		t.Fatalf("first GET %s = %q, want miss", cacheHeader, h)
	}
	wantReached, wantDepth := refReach(el, 3)
	if int(out1["reached"].(float64)) != wantReached || int(out1["max_depth"].(float64)) != wantDepth {
		t.Fatalf("summary = reached %v depth %v, reference %d/%d",
			out1["reached"], out1["max_depth"], wantReached, wantDepth)
	}

	resp2, out2 := getJSON(t, url)
	if h := resp2.Header.Get(cacheHeader); h != "hit" {
		t.Fatalf("second GET %s = %q, want hit", cacheHeader, h)
	}
	if out2["reached"] != out1["reached"] || out2["max_depth"] != out1["max_depth"] {
		t.Fatalf("hit body differs: %v vs %v", out2, out1)
	}

	mb := metricsBody(t, ts)
	for _, want := range []string{"gstore_qcache_hits_total 1", "gstore_qcache_misses_total 1"} {
		if !strings.Contains(mb, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestPersonalBFSIdleSkipsWindowOverHTTP: a lone GET on an idle server
// runs at once as a one-root run, however wide the window.
func TestPersonalBFSIdleSkipsWindowOverHTTP(t *testing.T) {
	_, ts, el := personalTestServer(t, 10*time.Second, 0)
	begin := time.Now()
	resp, out := getJSON(t, ts.URL+"/graphs/kron/bfs?root=7")
	if resp.StatusCode != 200 {
		t.Fatalf("GET = %d: %v", resp.StatusCode, out)
	}
	if took := time.Since(begin); took > time.Second {
		t.Fatalf("idle GET took %v: it waited in the window", took)
	}
	if br := int(out["batched_roots"].(float64)); br != 1 {
		t.Fatalf("batched_roots = %d, want 1", br)
	}
	wantReached, wantDepth := refReach(el, 7)
	if int(out["reached"].(float64)) != wantReached || int(out["max_depth"].(float64)) != wantDepth {
		t.Fatalf("summary = reached %v depth %v, reference %d/%d",
			out["reached"], out["max_depth"], wantReached, wantDepth)
	}
}

// TestPersonalBFSCoalescedOverHTTP: concurrent GETs with distinct roots
// arriving at a busy engine inside one window fuse into a single
// multi-source run; every response still carries that root's exact
// reference summary.
func TestPersonalBFSCoalescedOverHTTP(t *testing.T) {
	s, ts, el := personalTestServer(t, 200*time.Millisecond, 0)
	release := occupy(t, s, "kron")
	roots := []uint32{1, 5, 9, 33}

	type res struct {
		status  int
		body    map[string]interface{}
		outcome string
	}
	results := make([]res, len(roots))
	var wg sync.WaitGroup
	for i, r := range roots {
		wg.Add(1)
		go func(i int, r uint32) {
			defer wg.Done()
			resp, out := getJSON(t, fmt.Sprintf("%s/graphs/kron/bfs?root=%d", ts.URL, r))
			results[i] = res{resp.StatusCode, out, resp.Header.Get(cacheHeader)}
		}(i, r)
	}
	waitQueued(t, s, "kron", 1)
	release()
	wg.Wait()

	for i, r := range roots {
		got := results[i]
		if got.status != 200 {
			t.Fatalf("root %d: status %d (%v)", r, got.status, got.body)
		}
		wantReached, wantDepth := refReach(el, r)
		if int(got.body["reached"].(float64)) != wantReached || int(got.body["max_depth"].(float64)) != wantDepth {
			t.Fatalf("root %d: summary %v/%v, reference %d/%d",
				r, got.body["reached"], got.body["max_depth"], wantReached, wantDepth)
		}
		if br := int(got.body["batched_roots"].(float64)); br != len(roots) {
			t.Fatalf("root %d: batched_roots = %d, want %d", r, br, len(roots))
		}
	}
	mb := metricsBody(t, ts)
	if !strings.Contains(mb, `gstore_personal_coalesced_runs_total{graph="kron"} 1`) {
		t.Fatalf("metrics missing the coalesced-run count:\n%s",
			grepLines(mb, "gstore_personal"))
	}
}

// TestPersonalCacheInvalidationOnIngest is the staleness acceptance
// test: a cached answer must not survive a mutation — the post-ingest
// query recomputes and matches a fresh reference computation exactly.
func TestPersonalCacheInvalidationOnIngest(t *testing.T) {
	_, ts, _ := personalTestServer(t, 0, 0)
	url := ts.URL + "/graphs/kron/bfs?root=0"

	_, before := getJSON(t, url)
	if resp, _ := getJSON(t, url); resp.Header.Get(cacheHeader) != "hit" {
		t.Fatal("warm-up repeat was not a hit")
	}

	// Star every vertex to root 0: BFS from 0 now reaches all 512
	// vertices at depth <= 1, whatever the kron draw was.
	nv := 512
	edges := make([]edgeReq, 0, nv-1)
	for v := 1; v < nv; v++ {
		edges = append(edges, edgeReq{Src: 0, Dst: uint32(v)})
	}
	resp, out := post(t, ts.URL+"/graphs/kron/edges", map[string]interface{}{"edges": edges})
	if resp.StatusCode != 200 {
		t.Fatalf("ingest = %d: %v", resp.StatusCode, out)
	}

	resp2, after := getJSON(t, url)
	if resp2.StatusCode != 200 {
		t.Fatalf("post-ingest GET = %d: %v", resp2.StatusCode, after)
	}
	if h := resp2.Header.Get(cacheHeader); h != "miss" {
		t.Fatalf("post-ingest GET %s = %q, want miss (generation bump must invalidate)", cacheHeader, h)
	}
	if int(after["reached"].(float64)) != nv {
		t.Fatalf("post-ingest reached = %v, want %d (stale answer served?)", after["reached"], nv)
	}
	if after["reached"] == before["reached"] {
		t.Fatalf("ingest did not change the answer (reached %v) — test graph degenerate", before["reached"])
	}
	if !strings.Contains(metricsBody(t, ts), "gstore_qcache_invalidations_total 1") {
		t.Fatal("metrics missing the invalidation count")
	}
}

// TestPersonalTenantQuota: with a cap of one concurrent run per tenant,
// a second query from the same tenant is rejected 429 with the distinct
// status="quota" metric label while another tenant proceeds.
func TestPersonalTenantQuota(t *testing.T) {
	s, ts, _ := personalTestServer(t, 300*time.Millisecond, 1)
	release := occupy(t, s, "kron")

	first := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/graphs/kron/bfs?root=1&tenant=alice")
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	waitQueued(t, s, "kron", 1) // rider 1's window fired behind the held run; she holds alice's slot

	resp, err := http.Get(ts.URL + "/graphs/kron/bfs?root=2&tenant=alice")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second alice query = %d, want 429", resp.StatusCode)
	}
	release()

	resp, err = http.Get(ts.URL + "/graphs/kron/bfs?root=3&tenant=bob")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("bob's query = %d, want 200 (quota is per tenant)", resp.StatusCode)
	}
	if st := <-first; st != 200 {
		t.Fatalf("alice's first query = %d, want 200", st)
	}

	mb := metricsBody(t, ts)
	if !strings.Contains(mb, `status="quota"`) {
		t.Fatalf("metrics missing status=\"quota\":\n%s", grepLines(mb, "engine_runs"))
	}

	// The slot was released: alice can run again.
	resp, err = http.Get(ts.URL + "/graphs/kron/bfs?root=4&tenant=alice")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("alice after release = %d, want 200", resp.StatusCode)
	}
}

// TestPersonalPPR pins the GET and POST ppr endpoints to the reference
// personalized PageRank and checks the repeat is cached.
func TestPersonalPPR(t *testing.T) {
	_, ts, el := personalTestServer(t, 0, 0)
	const root, iters, top = 5, 8, 5
	url := fmt.Sprintf("%s/graphs/kron/ppr?root=%d&iterations=%d&top=%d", ts.URL, root, iters, top)

	resp, out := getJSON(t, url)
	if resp.StatusCode != 200 {
		t.Fatalf("GET ppr = %d: %v", resp.StatusCode, out)
	}
	want := graph.RefPersonalizedPageRank(graph.NewCSR(el, false), root, graph.DefaultPageRank(iters))
	topList := out["top"].([]interface{})
	if len(topList) != top {
		t.Fatalf("top list has %d entries, want %d", len(topList), top)
	}
	prev := math.Inf(1)
	for i, e := range topList {
		m := e.(map[string]interface{})
		v := uint32(m["vertex"].(float64))
		rank := m["rank"].(float64)
		if rank > prev {
			t.Fatalf("top list not sorted at %d", i)
		}
		prev = rank
		if d := math.Abs(rank - want[v]); d > 1e-9 {
			t.Fatalf("top[%d] vertex %d rank %g, reference %g", i, v, rank, want[v])
		}
	}

	if resp, _ := getJSON(t, url); resp.Header.Get(cacheHeader) != "hit" {
		t.Fatal("repeated GET ppr was not a hit")
	}

	// The POST twin computes the same answer (and shares the cache key,
	// so it hits).
	presp, pout := post(t, ts.URL+"/graphs/kron/ppr",
		map[string]interface{}{"root": root, "iterations": iters, "top": top})
	if presp.StatusCode != 200 {
		t.Fatalf("POST ppr = %d: %v", presp.StatusCode, pout)
	}
	if fmt.Sprint(pout["top"]) != fmt.Sprint(out["top"]) {
		t.Fatalf("POST top %v differs from GET top %v", pout["top"], out["top"])
	}
}

// TestPersonalBadRequests: parameter validation on the GET fast path.
func TestPersonalBadRequests(t *testing.T) {
	_, ts, _ := personalTestServer(t, 0, 0)
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/graphs/kron/bfs", 400},            // root required
		{"/graphs/kron/bfs?root=zebra", 400}, // not a number
		{"/graphs/kron/bfs?root=99999", 400}, // outside vertex space
		{"/graphs/kron/ppr?root=1&iterations=-1", 400},
		{"/graphs/kron/ppr?root=1&top=0", 400},
		{"/graphs/nosuch/bfs?root=1", 404},
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("GET %s = %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}
}

// grepLines filters a metrics body to lines containing sub, for terse
// failure messages.
func grepLines(body, sub string) string {
	var out []string
	for _, l := range strings.Split(body, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
