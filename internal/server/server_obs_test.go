package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/storage"
	"github.com/gwu-systems/gstore/internal/tile"
)

// addGraph converts a small kron graph and serves it under name with the
// given engine options.
func addGraph(t *testing.T, s *Server, name string, opts core.Options) {
	t.Helper()
	el, err := gen.Generate(gen.Graph500Config(9, 8, 101))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	g, err := tile.Convert(el, dir, name, tile.ConvertOptions{
		TileBits: 5, GroupQ: 2, Symmetry: true, Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	if err := s.AddGraph(name, tile.BasePath(dir, name), opts); err != nil {
		t.Fatal(err)
	}
}

// newTestHTTP serves s without the testServer fixture's stock graphs.
func newTestHTTP(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func fetchMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func findLine(body, prefix string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// TestMetricsEndpoint drives one run and asserts the /metrics exposition
// carries the request histogram, the in-flight gauge, and the per-graph
// engine/storage counters in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)

	resp, out := post(t, ts.URL+"/graphs/kron/bfs", map[string]interface{}{"root": 0})
	if resp.StatusCode != 200 {
		t.Fatalf("bfs status %d: %v", resp.StatusCode, out)
	}

	body := fetchMetrics(t, ts.URL)
	for _, want := range []string{
		// Request middleware series.
		"# TYPE gstore_http_requests_total counter",
		`gstore_http_requests_total{graph="kron",method="POST",op="bfs",status="200"} 1`,
		"# TYPE gstore_http_request_duration_seconds histogram",
		`gstore_http_request_duration_seconds_bucket{op="bfs",le="+Inf"} 1`,
		`gstore_http_request_duration_seconds_count{op="bfs"} 1`,
		// The /metrics request itself is the one in flight right now.
		"gstore_http_requests_in_flight 1",
		// Per-graph engine counters published after the run.
		`gstore_engine_runs_total{algo="bfs",graph="kron",status="ok"} 1`,
		`gstore_engine_bytes_read_total{graph="kron"}`,
		`gstore_engine_tiles_processed_total{graph="kron"}`,
		`gstore_storage_bytes_read_total{graph="kron"}`,
		`gstore_mem_copied_bytes_total{graph="kron"}`,
		`gstore_engine_run_seconds_bucket{graph="kron",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// Iterations really accumulated (BFS needs at least 2).
	var iters int64
	if _, err := fmt.Sscanf(findLine(body, `gstore_engine_iterations_total{graph="kron"}`),
		`gstore_engine_iterations_total{graph="kron"} %d`, &iters); err != nil || iters < 2 {
		t.Fatalf("iterations counter: %v (parsed %d)", err, iters)
	}
}

// TestEngineFaultIs500 drives a fault-injected device through the server:
// the storage failure must surface as 500, not 400, and be distinguished
// from genuine client errors on the same server.
func TestEngineFaultIs500(t *testing.T) {
	s := New()
	t.Cleanup(s.Close)
	opts := core.DefaultOptions()
	opts.MemoryBytes = 2 << 20
	opts.SegmentSize = 128 << 10
	opts.Threads = 2
	opts.MaxRetries = 0
	opts.Fault = &storage.FaultConfig{Seed: 7, ErrorRate: 1} // every read fails
	addGraph(t, s, "faulty", opts)
	ts := newTestHTTP(t, s)

	// Engine failure → 500.
	resp, out := post(t, ts+"/graphs/faulty/bfs", map[string]interface{}{"root": 0})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("engine fault: status %d (%v), want 500", resp.StatusCode, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "engine failure") {
		t.Fatalf("error message %q lacks engine-failure marker", msg)
	}

	// Client error on the same graph is still 400: the fault device never
	// gets a chance to read because the root is rejected at Init.
	resp2, _ := post(t, ts+"/graphs/faulty/bfs", map[string]interface{}{"root": 1 << 30})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad root on faulty graph: status %d, want 400", resp2.StatusCode)
	}

	// The run counter distinguishes the outcomes.
	body := fetchMetrics(t, ts)
	for _, want := range []string{
		`gstore_engine_runs_total{algo="bfs",graph="faulty",status="error"} 1`,
		`gstore_engine_runs_total{algo="bfs",graph="faulty",status="bad_request"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestDaemonExportsFaultAndWorkerSeries serves one query on a graph whose
// device injects recoverable read errors and requires the series only the
// engine's run loop can fill — injected faults, per-worker busy time, the
// balance gauge — on /metrics. Every served query goes through the
// scheduler, which before the run loops were merged reported none of them.
func TestDaemonExportsFaultAndWorkerSeries(t *testing.T) {
	s := New()
	t.Cleanup(s.Close)
	opts := core.DefaultOptions()
	opts.Cache = core.CacheNone // stream the whole (16 KiB) graph every iteration
	opts.MemoryBytes = 8 << 10
	opts.Threads = 2
	opts.MaxRetries = 8
	opts.Fault = &storage.FaultConfig{Seed: 7, ErrorRate: 0.2}
	addGraph(t, s, "flaky", opts)
	ts := newTestHTTP(t, s)

	resp, out := post(t, ts+"/graphs/flaky/pagerank", map[string]interface{}{"iterations": 10})
	if resp.StatusCode != 200 {
		t.Fatalf("pagerank over a flaky device: status %d (%v), want 200 via retries", resp.StatusCode, out)
	}
	body := fetchMetrics(t, ts)
	number := func(series string) (v float64) {
		t.Helper()
		if _, err := fmt.Sscanf(findLine(body, series+" "), series+" %g", &v); err != nil {
			t.Fatalf("/metrics has no %s: %v\n%s", series, err, body)
		}
		return v
	}
	if n, retried := number(`gstore_engine_faults_injected_errors_total{graph="flaky"}`),
		number(`gstore_engine_io_retries_total{graph="flaky"}`); n < 1 || n != retried {
		t.Fatalf("%v injected errors and %v retries after streaming through a device that fails one read in five", n, retried)
	}
	var busy float64
	for _, w := range []string{"0", "1"} {
		busy += number(`gstore_engine_worker_busy_microseconds_total{graph="flaky",worker="` + w + `"}`)
	}
	if busy <= 0 {
		t.Fatal("no worker reported any busy time")
	}
	if im := number(`gstore_engine_compute_imbalance{graph="flaky"}`); im < 1 {
		t.Fatalf("compute_imbalance = %v, want ≥ 1", im)
	}
}

// TestGraphNameValidation rejects unservable names at AddGraph.
func TestGraphNameValidation(t *testing.T) {
	s := New()
	t.Cleanup(s.Close)
	opts := core.DefaultOptions()
	for _, name := range []string{"", "a/b", "a b", ".", "..", "%41", "a\nb",
		strings.Repeat("x", 129)} {
		if err := s.AddGraph(name, "/nonexistent", opts); err == nil ||
			!strings.Contains(err.Error(), "invalid graph name") {
			t.Fatalf("AddGraph(%q) = %v, want invalid-name error", name, err)
		}
	}
}

// TestEscapedPathRouting: %2F inside the first path segment must stay in
// the graph name (404) instead of shifting the operation boundary, and
// invalid escapes are client errors.
func TestEscapedPathRouting(t *testing.T) {
	_, ts := testServer(t)

	// Before the EscapedPath split this ran bfs on "kron"; now the
	// request names the graph "kron/bfs", which can never be served.
	resp, err := http.Post(ts.URL+"/graphs/kron%2Fbfs", "application/json",
		strings.NewReader(`{"root":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /graphs/kron%%2Fbfs: status %d, want 404", resp.StatusCode)
	}

	// An escaped op segment still routes to the op.
	resp2, out := post(t, ts.URL+"/graphs/kron/%62fs", map[string]interface{}{"root": 0})
	if resp2.StatusCode != 200 {
		t.Fatalf("escaped op: status %d (%v), want 200", resp2.StatusCode, out)
	}

	// An invalid escape in the path is rejected with a 400 (by the server
	// or by our splitGraphPath, whichever sees it first), never routed.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /graphs/bad%%zzname HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, " 400 ") {
		t.Fatalf("bad escape: status line %q, want 400", status)
	}
}

// TestCancelMidRunOverHTTP cancels a slow request from the client side,
// then proves the same graph still serves: the canceled engine run
// released its segments.
func TestCancelMidRunOverHTTP(t *testing.T) {
	s := New()
	t.Cleanup(s.Close)
	opts := core.DefaultOptions()
	opts.MemoryBytes = 2 << 20
	opts.SegmentSize = 128 << 10
	opts.Threads = 2
	opts.Cache = core.CacheNone
	opts.Disks = 1
	opts.Bandwidth = 512 << 10 // ~0.5 MB/s: 100 PageRank iterations take seconds
	addGraph(t, s, "slow", opts)
	ts := newTestHTTP(t, s)

	client := &http.Client{Timeout: 150 * time.Millisecond}
	_, err := client.Post(ts+"/graphs/slow/pagerank", "application/json",
		bytes.NewReader([]byte(`{"iterations":100}`)))
	if err == nil {
		t.Fatal("slow run finished under the client timeout; raise iterations")
	}

	// The canceled run must have torn down cleanly: an untimed request on
	// the same (still throttled) graph completes.
	resp, out := post(t, ts+"/graphs/slow/bfs", map[string]interface{}{"root": 0})
	if resp.StatusCode != 200 {
		t.Fatalf("post-cancel run: status %d (%v), want 200", resp.StatusCode, out)
	}

	// The canceled run is visible in the metrics.
	body := fetchMetrics(t, ts)
	if !strings.Contains(body, `gstore_engine_runs_total{algo="pagerank",graph="slow",status="canceled"} 1`) {
		t.Fatalf("/metrics missing canceled run counter: %q",
			findLine(body, "gstore_engine_runs_total"))
	}
}

// TestConcurrentTwoGraphsWithMetrics hammers two graphs and the read
// endpoints concurrently; with -race it verifies the whole serving path
// (middleware, registry, engine serialization) is data-race free.
func TestConcurrentTwoGraphsWithMetrics(t *testing.T) {
	_, ts := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	do := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				errs <- err
			}
		}()
	}
	for i := 0; i < 6; i++ {
		root := i
		do(func() error {
			resp, err := http.Post(ts.URL+"/graphs/kron/bfs", "application/json",
				strings.NewReader(fmt.Sprintf(`{"root":%d}`, root)))
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				return fmt.Errorf("kron bfs: status %d", resp.StatusCode)
			}
			return nil
		})
		do(func() error {
			resp, err := http.Post(ts.URL+"/graphs/web/pagerank", "application/json",
				strings.NewReader(`{"iterations":3}`))
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				return fmt.Errorf("web pagerank: status %d", resp.StatusCode)
			}
			return nil
		})
		do(func() error {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		})
		do(func() error {
			resp, err := http.Get(ts.URL + "/graphs")
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	body := fetchMetrics(t, ts.URL)
	if !strings.Contains(body, `gstore_http_requests_total{graph="kron",method="POST",op="bfs",status="200"} 6`) {
		t.Fatalf("kron bfs request count wrong: %q",
			findLine(body, `gstore_http_requests_total{graph="kron"`))
	}
	if !strings.Contains(body, `gstore_engine_runs_total{algo="pagerank",graph="web",status="ok"} 6`) {
		t.Fatalf("web pagerank run count wrong: %q",
			findLine(body, `gstore_engine_runs_total{algo="pagerank"`))
	}
}
