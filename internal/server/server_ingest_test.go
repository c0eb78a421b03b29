package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/tile"
)

type edgeReq struct {
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
	Del bool   `json:"delete,omitempty"`
}

func metricsBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Mutations posted to /edges must be durable, visible to subsequent
// queries, and reflected in the WAL/delta metric families.
func TestEdgesIngestAndQuery(t *testing.T) {
	_, ts := testServer(t)

	resp, out := post(t, ts.URL+"/graphs/kron/bfs", map[string]interface{}{"root": 0})
	if resp.StatusCode != 200 {
		t.Fatalf("bfs before ingest: %d %v", resp.StatusCode, out)
	}

	// Star every vertex to root 0: afterwards BFS from 0 reaches the
	// whole graph and WCC is one component, whatever the kron draw was.
	resp, info := post(t, ts.URL+"/graphs/kron/edges", nil)
	if resp.StatusCode != 400 {
		t.Fatalf("empty batch status = %d, want 400 (%v)", resp.StatusCode, info)
	}
	nv := 512 // kron scale 9
	edges := make([]edgeReq, 0, nv-1)
	for v := 1; v < nv; v++ {
		edges = append(edges, edgeReq{Src: 0, Dst: uint32(v)})
	}
	resp, out = post(t, ts.URL+"/graphs/kron/edges", map[string]interface{}{"edges": edges})
	if resp.StatusCode != 200 {
		t.Fatalf("ingest status = %d: %v", resp.StatusCode, out)
	}
	if out["seq"].(float64) != 1 || out["applied"].(float64) != float64(nv-1) {
		t.Fatalf("ingest response = %v", out)
	}
	if out["changed"].(float64) == 0 || out["delta_tiles"].(float64) == 0 {
		t.Fatalf("ingest had no effect: %v", out)
	}

	resp, out = post(t, ts.URL+"/graphs/kron/bfs", map[string]interface{}{"root": 0})
	if resp.StatusCode != 200 {
		t.Fatalf("bfs after ingest: %d %v", resp.StatusCode, out)
	}
	if got := out["reached"].(float64); got != float64(nv) {
		t.Fatalf("bfs reached %v of %d after starring the graph", got, nv)
	}
	resp, out = post(t, ts.URL+"/graphs/kron/wcc", nil)
	if resp.StatusCode != 200 || out["components"].(float64) != 1 {
		t.Fatalf("wcc after ingest: %d %v", resp.StatusCode, out)
	}

	// Deleting the star edge to vertex 1 must not disconnect it if the
	// base graph already linked it; instead pin the delete's bookkeeping.
	resp, out = post(t, ts.URL+"/graphs/kron/edges", map[string]interface{}{
		"edges": []edgeReq{{Src: 0, Dst: 1, Del: true}}, "flush": true,
	})
	if resp.StatusCode != 200 || out["seq"].(float64) != 2 {
		t.Fatalf("delete batch: %d %v", resp.StatusCode, out)
	}

	m := metricsBody(t, ts)
	for _, want := range []string{
		`gstore_wal_appends_total{graph="kron"} 2`,
		`gstore_wal_flushes_total{graph="kron"} 1`,
		`gstore_delta_tiles{graph="kron"}`,
		`gstore_engine_delta_tiles_total{graph="kron"}`,
		`gstore_wal_fsync_seconds_count{graph="kron"}`,
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}

	// Out-of-range vertex IDs are the client's fault.
	resp, out = post(t, ts.URL+"/graphs/kron/edges", map[string]interface{}{
		"edges": []edgeReq{{Src: 0, Dst: 1 << 20}},
	})
	if resp.StatusCode != 400 {
		t.Fatalf("bad-op status = %d, want 400 (%v)", resp.StatusCode, out)
	}
}

// A ReadOnly server must refuse mutations and leave no write-path files
// behind.
func TestEdgesReadOnlyServer(t *testing.T) {
	s := New()
	s.ReadOnly = true
	t.Cleanup(s.Close)
	el, err := gen.Generate(gen.Graph500Config(8, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	g, err := tile.Convert(el, dir, "ro", tile.ConvertOptions{
		TileBits: 5, GroupQ: 2, Symmetry: true, Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	if err := s.AddGraph("ro", tile.BasePath(dir, "ro"), core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, out := post(t, ts.URL+"/graphs/ro/edges", map[string]interface{}{
		"edges": []edgeReq{{Src: 0, Dst: 1}},
	})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only ingest status = %d, want 403 (%v)", resp.StatusCode, out)
	}
}

// Regression: a run refused because graceful shutdown already closed the
// scheduler is backpressure (503, status="shutdown"), not an engine
// failure (500, status="error") — clients should retry elsewhere, and
// error-rate alerts must not fire for a clean drain.
func TestShutdownRunReturns503(t *testing.T) {
	s, ts := testServer(t)
	s.mu.RLock()
	h := s.graphs["kron"]
	s.mu.RUnlock()
	h.sched.Close()

	resp, out := post(t, ts.URL+"/graphs/kron/bfs", map[string]interface{}{"root": 0})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%v)", resp.StatusCode, out)
	}
	if msg := fmt.Sprint(out["error"]); !strings.Contains(msg, "shutting down") {
		t.Fatalf("error = %q, want mention of shutdown", msg)
	}
	m := metricsBody(t, ts)
	if want := `gstore_engine_runs_total{algo="bfs",graph="kron",status="shutdown"} 1`; !strings.Contains(m, want) {
		t.Fatalf("metrics missing %q in:\n%s", want, m)
	}
}
