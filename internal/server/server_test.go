package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/tile"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New()
	t.Cleanup(s.Close)

	opts := core.DefaultOptions()
	opts.MemoryBytes = 2 << 20
	opts.SegmentSize = 128 << 10
	opts.Threads = 2

	// Undirected kron graph.
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

	// Directed graph for SCC.
	eld, err := gen.Generate(gen.TwitterLikeConfig(9, 4, 92))
	if err != nil {
		t.Fatal(err)
	}
	gd, err := tile.Convert(eld, dir, "web", tile.ConvertOptions{
		TileBits: 5, GroupQ: 2, Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gd.Close()
	if err := s.AddGraph("web", tile.BasePath(dir, "web"), opts); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body interface{}) (*http.Response, map[string]interface{}) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHealthAndList(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("listed %d graphs, want 2", len(list))
	}
	if list[0]["name"] != "kron" || list[1]["name"] != "web" {
		t.Fatalf("names: %v, %v", list[0]["name"], list[1]["name"])
	}
}

func TestGraphInfo(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/graphs/kron")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gi map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&gi); err != nil {
		t.Fatal(err)
	}
	if gi["vertices"].(float64) != 512 {
		t.Fatalf("vertices = %v", gi["vertices"])
	}
	if gi["directed"].(bool) {
		t.Fatal("kron reported directed")
	}

	resp2, err := http.Get(ts.URL + "/graphs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d", resp2.StatusCode)
	}
}

func TestBFSEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, out := post(t, ts.URL+"/graphs/kron/bfs", map[string]interface{}{"root": 0})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["reached"].(float64) < 2 {
		t.Fatalf("reached = %v", out["reached"])
	}
	stats := out["stats"].(map[string]interface{})
	if stats["iterations"].(float64) < 2 {
		t.Fatalf("iterations = %v", stats["iterations"])
	}

	// Async variant must reach the same vertex count.
	_, outAsync := post(t, ts.URL+"/graphs/kron/bfs",
		map[string]interface{}{"root": 0, "async": true})
	if outAsync["reached"] != out["reached"] {
		t.Fatalf("async reached %v, sync %v", outAsync["reached"], out["reached"])
	}

	// Bad root is a client error.
	resp3, _ := post(t, ts.URL+"/graphs/kron/bfs", map[string]interface{}{"root": 1 << 30})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad root: status %d", resp3.StatusCode)
	}
}

func TestMSBFSEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, out := post(t, ts.URL+"/graphs/kron/msbfs",
		map[string]interface{}{"roots": []uint32{0, 1, 2}})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if len(out["sources"].([]interface{})) != 3 {
		t.Fatalf("sources = %v", out["sources"])
	}
}

func TestPageRankEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, out := post(t, ts.URL+"/graphs/kron/pagerank",
		map[string]interface{}{"iterations": 5, "top": 3})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	top := out["top"].([]interface{})
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	first := top[0].(map[string]interface{})["rank"].(float64)
	second := top[1].(map[string]interface{})["rank"].(float64)
	if first < second {
		t.Fatal("top ranks not sorted")
	}
}

func TestComponentEndpoints(t *testing.T) {
	_, ts := testServer(t)
	resp, out := post(t, ts.URL+"/graphs/kron/wcc", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("wcc status %d: %v", resp.StatusCode, out)
	}
	if out["components"].(float64) < 1 {
		t.Fatalf("components = %v", out["components"])
	}

	resp2, out2 := post(t, ts.URL+"/graphs/web/scc", nil)
	if resp2.StatusCode != 200 {
		t.Fatalf("scc status %d: %v", resp2.StatusCode, out2)
	}
	// SCC on the undirected graph must be rejected.
	resp3, _ := post(t, ts.URL+"/graphs/kron/scc", nil)
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("scc on undirected: status %d", resp3.StatusCode)
	}
}

func TestMethodChecks(t *testing.T) {
	_, ts := testServer(t)
	// GET bfs is the personalized fast path now; without its required
	// root parameter it is a bad request, not a method error.
	resp, err := http.Get(ts.URL + "/graphs/kron/bfs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET on bfs without root: status %d", resp.StatusCode)
	}
	// Ops with no GET form still reject the method.
	respPR, err := http.Get(ts.URL + "/graphs/kron/pagerank")
	if err != nil {
		t.Fatal(err)
	}
	respPR.Body.Close()
	if respPR.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on pagerank: status %d", respPR.StatusCode)
	}
	resp2, _ := post(t, ts.URL+"/graphs/kron/nonsense", nil)
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown op: status %d", resp2.StatusCode)
	}
}

func TestDuplicateGraphRejected(t *testing.T) {
	s, _ := testServer(t)
	el, err := gen.Generate(gen.Graph500Config(6, 4, 93))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	g, err := tile.Convert(el, dir, "dup", tile.ConvertOptions{
		TileBits: 4, GroupQ: 2, Symmetry: true, Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	opts := core.DefaultOptions()
	opts.MemoryBytes = 1 << 20
	opts.SegmentSize = 64 << 10
	if err := s.AddGraph("kron", tile.BasePath(dir, "dup"), opts); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

// Concurrent requests against one graph must serialize safely and all
// succeed.
func TestConcurrentRequests(t *testing.T) {
	_, ts := testServer(t)
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(root int) {
			var buf bytes.Buffer
			fmt.Fprintf(&buf, `{"root":%d}`, root)
			resp, err := http.Post(ts.URL+"/graphs/kron/bfs", "application/json", &buf)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != 200 {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			errs <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestKHopEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, out := post(t, ts.URL+"/graphs/kron/khop",
		map[string]interface{}{"root": 0, "k": 2})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	rings := out["ring_sizes"].([]interface{})
	if len(rings) != 3 {
		t.Fatalf("rings = %v", rings)
	}
	if rings[0].(float64) != 1 {
		t.Fatalf("ring 0 = %v, want 1 (the root)", rings[0])
	}
	cums := out["cumulative"].([]interface{})
	last := cums[len(cums)-1].(float64)
	first := cums[0].(float64)
	if last < first {
		t.Fatal("cumulative not monotone")
	}
}

// A corrupted tiles file must surface as a 500 naming the damaged tile,
// with the integrity counters visible in /metrics.
func TestIntegrityErrorSurfacesAs500(t *testing.T) {
	s := New()
	t.Cleanup(s.Close)
	opts := core.DefaultOptions()
	opts.MemoryBytes = 2 << 20
	opts.SegmentSize = 128 << 10
	opts.Threads = 2
	el, err := gen.Generate(gen.Graph500Config(9, 8, 93))
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
	base := tile.BasePath(dir, "kron")
	if err := s.AddGraph("kron", base, opts); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Flip a byte mid-file; the engine's open handle shares the inode.
	data, err := os.ReadFile(base + ".tiles")
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(base+".tiles", data, 0o644); err != nil {
		t.Fatal(err)
	}

	resp, out := post(t, ts.URL+"/graphs/kron/bfs", map[string]interface{}{"root": 0})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %v", resp.StatusCode, out)
	}
	msg, _ := out["error"].(string)
	if !strings.Contains(msg, "data integrity failure") ||
		!strings.Contains(msg, "tile") || !strings.Contains(msg, "row") {
		t.Fatalf("error message does not name the corrupt tile: %q", msg)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(mbody)
	for _, want := range []string{
		`gstore_engine_integrity_errors_total{graph="kron"} 1`,
		`gstore_engine_checksum_mismatches_total{graph="kron"}`,
		`status="integrity"`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
