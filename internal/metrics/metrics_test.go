package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests", L("op", "bfs"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Same name+labels returns the same instance.
	if r.Counter("reqs_total", "requests", L("op", "bfs")) != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Different labels are a different series.
	c2 := r.Counter("reqs_total", "requests", L("op", "wcc"))
	if c2 == c || c2.Value() != 0 {
		t.Fatal("label set not distinguished")
	}

	g := r.Gauge("in_flight", "in-flight requests")
	g.Add(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Value())
	}
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestLabelOrderInsensitive(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", L("a", "1"), L("b", "2"))
	b := r.Counter("x_total", "", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order changed the series identity")
	}
}

// Set mirrors cumulative totals: the newest snapshot wins whatever order
// snapshots arrive in, a bucket beyond the bounds folds into +Inf, and the
// series never moves backwards.
func TestHistogramSetFromTotals(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("read_seconds", "latency", []float64{0.01, 0.1})
	h.Set([]int64{4, 2, 1, 1}, 3.5) // newest first
	h.Set([]int64{1, 2}, 0.25)      // an older snapshot arriving late
	if h.Count() != 8 || h.Sum() != 3.5 {
		t.Fatalf("count = %d, sum = %v, want 8 and 3.5", h.Count(), h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`read_seconds_bucket{le="0.01"} 4`,
		`read_seconds_bucket{le="0.1"} 6`,
		`read_seconds_bucket{le="+Inf"} 8`,
		`read_seconds_count 8`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.005+0.01+0.05+0.5+5; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// 0.005 and 0.01 both fall in the le="0.01" bucket (le is inclusive).
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 2`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "bees", L("kind", `qu"ote`)).Add(2)
	r.Gauge("a_gauge", "an a").Set(-4)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Families render sorted by name, with HELP/TYPE headers.
	ai := strings.Index(out, "# HELP a_gauge an a")
	bi := strings.Index(out, "# HELP b_total bees")
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("family order/headers wrong:\n%s", out)
	}
	if !strings.Contains(out, `b_total{kind="qu\"ote"} 2`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
	if !strings.Contains(out, "a_gauge -4\n") {
		t.Fatalf("unlabeled gauge wrong:\n%s", out)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Fatalf("body:\n%s", rec.Body.String())
	}

	rec2 := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec2, httptest.NewRequest("POST", "/metrics", nil))
	if rec2.Code != 405 {
		t.Fatalf("POST status %d, want 405", rec2.Code)
	}
}

// TestConcurrent hammers one registry from many goroutines; run with
// -race it verifies the lock-free hot path.
func TestConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total", "").Inc()
				r.Gauge("g", "").Add(1)
				r.Histogram("h_seconds", "", DefBuckets).Observe(float64(j) / 1000)
				if n == 0 && j%100 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
				}
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("c_total", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h_seconds", "", DefBuckets).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestWriteEvent(t *testing.T) {
	var b strings.Builder
	WriteEvent(&b, "iteration",
		KV{"algo", "bfs"},
		KV{"iter", 3},
		KV{"read_bytes", int64(4096)},
		KV{"iowait", 1500 * time.Microsecond},
		KV{"note", "two words"},
	)
	got := b.String()
	want := "event=iteration algo=bfs iter=3 read_bytes=4096 iowait=1.5ms note=\"two words\"\n"
	if got != want {
		t.Fatalf("event line:\n got %q\nwant %q", got, want)
	}
	// nil writer must not panic.
	WriteEvent(nil, "noop", KV{"k", "v"})
}

func TestFloatGauge(t *testing.T) {
	r := NewRegistry()
	fg := r.FloatGauge("imbalance", "max/mean worker busy", L("graph", "g"))
	fg.Set(1.25)
	if v := fg.Value(); v != 1.25 {
		t.Fatalf("FloatGauge = %v, want 1.25", v)
	}
	if r.FloatGauge("imbalance", "max/mean worker busy", L("graph", "g")) != fg {
		t.Fatal("re-registration returned a different FloatGauge")
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Renders as a Prometheus gauge with the float value verbatim.
	if !strings.Contains(out, "# TYPE imbalance gauge\n") {
		t.Fatalf("missing gauge TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `imbalance{graph="g"} 1.25`+"\n") {
		t.Fatalf("missing float sample line:\n%s", out)
	}

	// A name is one type forever: requesting it as an int Gauge panics.
	defer func() {
		if recover() == nil {
			t.Fatal("Gauge() on a FloatGauge name did not panic")
		}
	}()
	r.Gauge("imbalance", "wrong type")
}
