package server

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/tile"
)

// schedTestServer serves one kron graph with the given admission limits.
func schedTestServer(t *testing.T, maxRuns, maxQueue int) (*Server, *httptest.Server) {
	t.Helper()
	s := New()
	t.Cleanup(s.Close)

	opts := core.DefaultOptions()
	opts.MemoryBytes = 2 << 20
	opts.SegmentSize = 128 << 10
	opts.Threads = 2
	opts.MaxConcurrentRuns = maxRuns
	opts.MaxQueuedRuns = maxQueue

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
	if err := s.AddGraph("kron", tile.BasePath(dir, "kron"), opts); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// ranksOf flattens a pagerank response's top list into vertex → rank.
func ranksOf(t *testing.T, body map[string]interface{}) map[float64]float64 {
	t.Helper()
	top, ok := body["top"].([]interface{})
	if !ok {
		t.Fatalf("pagerank response missing top: %v", body)
	}
	out := make(map[float64]float64, len(top))
	for _, e := range top {
		m := e.(map[string]interface{})
		out[m["vertex"].(float64)] = m["rank"].(float64)
	}
	return out
}

// Eight mixed requests fired concurrently at one graph must answer
// exactly what their solo runs answer: the shared sweep changes I/O, not
// results. CI runs this under -race.
func TestServerConcurrentMixedRequestsMatchSolo(t *testing.T) {
	_, ts := schedTestServer(t, 8, 16)
	base := ts.URL + "/graphs/kron"

	// Solo references, one at a time.
	type req struct {
		op   string
		body interface{}
	}
	reqs := []req{
		{"bfs", map[string]int{"root": 0}},
		{"bfs", map[string]int{"root": 1}},
		{"bfs", map[string]int{"root": 2}},
		{"wcc", map[string]int{}},
		{"wcc", map[string]int{}},
		{"pagerank", map[string]int{"iterations": 10, "top": 600}},
		{"pagerank", map[string]int{"iterations": 10, "top": 600}},
		{"pagerank", map[string]int{"iterations": 20, "top": 600}},
	}
	solo := make([]map[string]interface{}, len(reqs))
	for i, rq := range reqs {
		resp, body := post(t, base+"/"+rq.op, rq.body)
		if resp.StatusCode != 200 {
			t.Fatalf("solo %s: status %d (%v)", rq.op, resp.StatusCode, body)
		}
		solo[i] = body
	}

	// The same eight, all at once.
	shared := make([]map[string]interface{}, len(reqs))
	codes := make([]int, len(reqs))
	var wg sync.WaitGroup
	for i, rq := range reqs {
		wg.Add(1)
		go func(i int, rq req) {
			defer wg.Done()
			resp, body := post(t, base+"/"+rq.op, rq.body)
			codes[i], shared[i] = resp.StatusCode, body
		}(i, rq)
	}
	wg.Wait()

	for i, rq := range reqs {
		if codes[i] != 200 {
			t.Fatalf("shared %s: status %d (%v)", rq.op, codes[i], shared[i])
		}
		switch rq.op {
		case "bfs":
			for _, k := range []string{"root", "reached", "max_depth"} {
				if solo[i][k] != shared[i][k] {
					t.Fatalf("bfs[%d] %s = %v shared, %v solo", i, k, shared[i][k], solo[i][k])
				}
			}
		case "wcc":
			for _, k := range []string{"components", "largest"} {
				if solo[i][k] != shared[i][k] {
					t.Fatalf("wcc[%d] %s = %v shared, %v solo", i, k, shared[i][k], solo[i][k])
				}
			}
		case "pagerank":
			want, got := ranksOf(t, solo[i]), ranksOf(t, shared[i])
			if len(want) != len(got) {
				t.Fatalf("pagerank[%d] returned %d ranks shared, %d solo", i, len(got), len(want))
			}
			for v, w := range want {
				if g, ok := got[v]; !ok || math.Abs(g-w) > 1e-9 {
					t.Fatalf("pagerank[%d] rank[%v] = %v shared, %v solo", i, v, got[v], w)
				}
			}
		}
	}
}

// With the batch and queue both full, further requests bounce with 429
// and the rejection counter shows at /metrics.
func TestServerQueueFullReturns429(t *testing.T) {
	_, ts := schedTestServer(t, 1, 0)
	base := ts.URL + "/graphs/kron"

	// Park a long run in the only slot. Its context is canceled at test
	// end so it never outlives the poll loop below.
	ctx, cancel := context.WithCancel(context.Background())
	hogDone := make(chan struct{})
	go func() {
		defer close(hogDone)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/pagerank",
			strings.NewReader(`{"iterations":1000000}`))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	t.Cleanup(func() { cancel(); <-hogDone })

	// Probing too early would win the only slot and bounce the hog
	// itself, so wait until the hog request is in flight (the gauge
	// counts the scrape too, hence 2) plus a beat for its admission.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("hog request never showed up in flight")
		}
		mresp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(raw), "gstore_http_requests_in_flight 2") {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)

	// Once the hog holds the slot, a probe must bounce with 429.
	saw429 := false
	for !saw429 {
		if time.Now().After(deadline) {
			t.Fatal("never observed a 429 while the slot was held")
		}
		resp, body := post(t, base+"/wcc", map[string]int{})
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			if msg, _ := body["error"].(string); !strings.Contains(msg, "queue full") {
				t.Fatalf("429 body = %v, want queue-full error", body)
			}
			saw429 = true
		case http.StatusOK:
			time.Sleep(2 * time.Millisecond)
		default:
			t.Fatalf("probe status %d (%v)", resp.StatusCode, body)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`gstore_runs_rejected_total{graph="kron"}`,
		"gstore_run_queue_depth",
		"gstore_run_queue_wait_seconds",
		"gstore_run_batch_occupancy",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
