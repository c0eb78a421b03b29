package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/faultfs"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/tile"
)

// A panicking handler must be contained by the middleware: the client
// gets a 500 with status="panic", the panic counter increments, and the
// server keeps serving.
func TestPanicRecoveryMiddleware(t *testing.T) {
	s := New()
	t.Cleanup(s.Close)
	bomb := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom: handler bug")
	})
	ts := httptest.NewServer(s.instrument(bomb))
	t.Cleanup(ts.Close)

	for i := 0; i < 2; i++ {
		resp, out := post(t, ts.URL+"/graphs/none/bfs", map[string]interface{}{"root": 0})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status = %d, want 500", i, resp.StatusCode)
		}
		if out["status"] != "panic" {
			t.Fatalf("request %d: body = %v, want status=panic", i, out)
		}
	}
	if got := s.reg.Counter("gstore_http_panics_total",
		"Handler panics contained by the recovery middleware.").Value(); got != 2 {
		t.Fatalf("panic counter = %d, want 2", got)
	}
}

// A handler that panics after starting its response cannot get a 500;
// recovery must still swallow the panic and count it.
func TestPanicAfterHeadersIsStillContained(t *testing.T) {
	s := New()
	t.Cleanup(s.Close)
	bomb := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("partial"))
		panic("late boom")
	})
	ts := httptest.NewServer(s.instrument(bomb))
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/")
	if err == nil {
		resp.Body.Close()
	}
	if got := s.reg.Counter("gstore_http_panics_total",
		"Handler panics contained by the recovery middleware.").Value(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
}

// /readyz reflects server state: 503 with no graphs, 200 with healthy
// graphs, 503 shutting_down once schedulers close.
func TestReadyzLifecycle(t *testing.T) {
	empty := New()
	t.Cleanup(empty.Close)
	te := httptest.NewServer(empty.Handler())
	t.Cleanup(te.Close)
	resp, out := getJSON(t, te.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || out["status"] != "no_graphs" {
		t.Fatalf("empty server /readyz = %d %v, want 503 no_graphs", resp.StatusCode, out)
	}

	s, ts := testServer(t)
	resp, out = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("/readyz = %d %v, want 200 ok", resp.StatusCode, out)
	}
	resp, out = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d %v", resp.StatusCode, out)
	}

	// Close the schedulers (graceful shutdown begins): not ready anymore.
	s.mu.RLock()
	for _, h := range s.graphs {
		h.sched.Close()
	}
	s.mu.RUnlock()
	resp, out = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || out["status"] != "shutting_down" {
		t.Fatalf("post-close /readyz = %d %v, want 503 shutting_down", resp.StatusCode, out)
	}
}

// faultServer builds a one-graph server whose write path runs over the
// given FaultFS.
func faultServer(t *testing.T, fs faultfs.FS) (*Server, *httptest.Server) {
	t.Helper()
	s := New()
	s.DeltaFS = fs
	t.Cleanup(s.Close)
	opts := core.DefaultOptions()
	opts.MemoryBytes = 2 << 20
	opts.SegmentSize = 128 << 10
	opts.Threads = 2
	el, err := gen.Generate(gen.Graph500Config(9, 8, 91))
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
	return s, ts
}

// A persistent fsync failure must flip ingest to 503 status="wal_failed"
// — sticky, with the gstore_wal_failed gauge raised and /readyz failing
// — while queries keep serving.
func TestWALFailedDegradesToReadOnly(t *testing.T) {
	fs := faultfs.New(11)
	fs.Arm(faultfs.Rule{Op: faultfs.OpSync, PathContains: ".wal", Every: true})
	_, ts := faultServer(t, fs)

	// Ingest hits the failed fsync: no ack, degraded response.
	resp, out := post(t, ts.URL+"/graphs/kron/edges", map[string]interface{}{
		"edges": []edgeReq{{Src: 0, Dst: 1}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable || out["status"] != "wal_failed" {
		t.Fatalf("ingest under failed fsync = %d %v, want 503 wal_failed", resp.StatusCode, out)
	}
	// Sticky: the next batch is rejected up front, same shape.
	resp, out = post(t, ts.URL+"/graphs/kron/edges", map[string]interface{}{
		"edges": []edgeReq{{Src: 0, Dst: 2}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable || out["status"] != "wal_failed" {
		t.Fatalf("second ingest = %d %v, want sticky 503 wal_failed", resp.StatusCode, out)
	}

	// Queries keep serving on the degraded graph.
	resp, out = post(t, ts.URL+"/graphs/kron/bfs", map[string]interface{}{"root": 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bfs on degraded graph = %d %v, want 200", resp.StatusCode, out)
	}
	resp, _ = getJSON(t, ts.URL+"/graphs/kron/bfs?root=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("personalized bfs on degraded graph = %d, want 200", resp.StatusCode)
	}

	// Readiness and metrics surface the degradation.
	resp, out = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || out["status"] != "wal_failed" {
		t.Fatalf("/readyz = %d %v, want 503 wal_failed", resp.StatusCode, out)
	}
	if m := metricsBody(t, ts); !strings.Contains(m, `gstore_wal_failed{graph="kron"} 1`) {
		t.Fatalf("metrics missing gstore_wal_failed=1:\n%s", m)
	}
}

// A transient write error (not an fsync failure) must NOT poison the
// WAL: the failed batch is rolled back and the next batch succeeds.
func TestTransientWriteErrorDoesNotPoison(t *testing.T) {
	fs := faultfs.New(12)
	fs.Arm(faultfs.Rule{Op: faultfs.OpWrite, PathContains: ".wal"}) // fires once
	_, ts := faultServer(t, fs)

	resp, out := post(t, ts.URL+"/graphs/kron/edges", map[string]interface{}{
		"edges": []edgeReq{{Src: 0, Dst: 1}},
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("ingest under write error = %d %v, want 500", resp.StatusCode, out)
	}
	resp, out = post(t, ts.URL+"/graphs/kron/edges", map[string]interface{}{
		"edges": []edgeReq{{Src: 0, Dst: 1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after transient error = %d %v, want 200", resp.StatusCode, out)
	}
	resp, out = getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after recovered transient error = %d %v, want 200", resp.StatusCode, out)
	}
}
