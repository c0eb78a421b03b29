package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/tile"
)

// kron12Server serves a kron-12 graph (4096 vertices, ~256 KiB of
// tiles) under gstored's default 64 MiB budget with the given result
// cache size (0 disables the cache).
func kron12Server(tb testing.TB, qcacheBytes int64) *Server {
	tb.Helper()
	s := New()
	tb.Cleanup(s.Close)
	s.QCacheBytes = qcacheBytes

	el, err := gen.Generate(gen.Graph500Config(12, 16, 3))
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	g, err := tile.Convert(el, dir, "kron", tile.ConvertOptions{
		TileBits: 6, GroupQ: 4, Symmetry: true, Degrees: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	g.Close()
	opts := core.DefaultOptions()
	opts.Threads = 2
	if err := s.AddGraph("kron", tile.BasePath(dir, "kron"), opts); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestHugeTopIsClamped: a top list asked for by a client is clamped to
// the vertex count before it sizes a reply or a cache entry, on the
// cached GET /ppr and on POST /pagerank alike.
func TestHugeTopIsClamped(t *testing.T) {
	s := kron12Server(t, 64<<20)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	nv := int(s.lookup("kron").Graph.Meta.NumVertices)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	url := ts.URL + "/graphs/kron/ppr?root=3&iterations=3&top=4294967295"
	resp, out := getJSON(t, url)
	presp, pout := post(t, ts.URL+"/graphs/kron/pagerank", map[string]interface{}{"iterations": 3, "top": 4294967295})
	runtime.ReadMemStats(&after)

	for what, r := range map[string]struct {
		status int
		body   map[string]interface{}
	}{"GET ppr": {resp.StatusCode, out}, "POST pagerank": {presp.StatusCode, pout}} {
		if r.status != 200 {
			t.Fatalf("%s = %d: %v", what, r.status, r.body)
		}
		if n := len(r.body["top"].([]interface{})); n == 0 || n > nv {
			t.Fatalf("%s: top list has %d entries, want 1..%d", what, n, nv)
		}
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("two queries allocated %d bytes: the top list was sized by the request", grew)
	}
	// The clamped entry declares a cost the cache can hold.
	if resp, _ := getJSON(t, url); resp.Header.Get(cacheHeader) != "hit" {
		t.Fatalf("repeat of the clamped query was %q, want hit", resp.Header.Get(cacheHeader))
	}
}

// TestCachedPPRHoldsDeclaredCost is the retention regression test: what
// the result cache keeps for each cold PPR reply must stay within a small
// multiple of the cost the entry declares — the top list, never the rank
// vector (64 KiB per reply on this graph) behind it.
func TestCachedPPRHoldsDeclaredCost(t *testing.T) {
	const entries, top = 64, 10
	s := kron12Server(t, 64<<20)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	query := func(root int) {
		resp, out := getJSON(t, fmt.Sprintf("%s/graphs/kron/ppr?root=%d&iterations=3&top=%d", ts.URL, root, top))
		if resp.StatusCode != 200 || resp.Header.Get(cacheHeader) != "miss" {
			t.Fatalf("root %d: status %d, cache %q: %v", root, resp.StatusCode, resp.Header.Get(cacheHeader), out)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle empties the sync.Pool victim caches
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// Warm up everything a first query sets up once: the connection, the
	// metric series, the encoder's type cache.
	for root := 1000; root < 1008; root++ {
		query(root)
	}
	base := heap()
	for root := 0; root < entries; root++ {
		query(root)
	}
	grew := int64(heap()) - int64(base)
	declared := int64(personalEntryCost + 16*top)
	if st := s.qc.Stats(); st.Entries != entries+8 {
		t.Fatalf("cache holds %d entries, want %d", st.Entries, entries+8)
	}
	if limit := 4 * declared * entries; grew > limit {
		t.Fatalf("%d cached replies retain %d bytes, %d each; declared %d each (limit 4x)",
			entries, grew, grew/entries, declared)
	}
	t.Logf("%d cached replies retain %d bytes each, declared %d", entries, grew/entries, declared)
}

// BenchmarkPPRReply measures one cold GET /ppr on kron-12 (the result
// cache off, so every request fills): the PPR run, the top-k selection and
// the JSON encode. With -benchmem, B/op shows at once if a reply starts
// carrying a per-vertex vector again.
func BenchmarkPPRReply(b *testing.B) {
	s := kron12Server(b, 0)
	h := s.Handler()
	nv := int(s.lookup("kron").Graph.Meta.NumVertices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/graphs/kron/ppr?root=%d&iterations=5&top=10", i%nv), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("GET ppr = %d: %s", rec.Code, rec.Body)
		}
	}
}
