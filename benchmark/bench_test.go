package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/delta"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesTables holds BENCHMARK.json and the harness's own
// metric tables in step: same names, same units, same order.
func TestManifestMatchesTables(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, harness runs %v", names, workloadNames)
	}
	check := func(kind string, listed []manifestMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness emits %d", kind, len(listed), len(defs))
			return
		}
		seen := map[string]bool{}
		for i, m := range listed {
			if m.Name != defs[i].Name || m.Unit != defs[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness %s (%s)", kind, i, m.Name, m.Unit, defs[i].Name, defs[i].Unit)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: name %q is malformed or repeated", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd, true)
	check("per_layer", man.PerLayer, perLayer, false)
}

// TestSmokeEmitsEveryMetricOnce runs both passes of every workload at the
// smoke scale: each pass must print every metric of its table exactly
// once, finite, with its unit, with every answer check passing.
func TestSmokeEmitsEveryMetricOnce(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-smoke", "-seconds", "1", "-seed", "7", "-workload", w, "-trace", "both", "-workdir", t.TempDir()}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			var lines []resultLine
			table := map[string]int{}
			for _, l := range strings.Split(stdout.String(), "\n") {
				if strings.HasPrefix(l, "{") {
					var rl resultLine
					if err := json.Unmarshal([]byte(l), &rl); err != nil {
						t.Fatalf("result line: %v", err)
					}
					lines = append(lines, rl)
				} else if f := strings.Fields(l); len(f) >= 4 && f[0] == w && f[1] != "note:" {
					table[f[1]]++
				}
			}
			if len(lines) != 2 {
				t.Fatalf("want 2 result lines, got %d", len(lines))
			}
			for i, defs := range [][]metricDef{endToEnd, perLayer} {
				rl := lines[i]
				if !rl.Correct || rl.Failed != 0 || rl.Attempted < 1 {
					t.Errorf("pass %d: correct=%v attempted=%d failed=%d\n%s", i, rl.Correct, rl.Attempted, rl.Failed, stdout.String())
				}
				if len(rl.Metrics) != len(defs) {
					t.Errorf("pass %d: %d metrics, want %d", i, len(rl.Metrics), len(defs))
				}
				for _, d := range defs {
					mv, ok := rl.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("pass %d: %s missing", i, d.Name)
					case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
						t.Errorf("pass %d: %s = %v", i, d.Name, mv.Value)
					case mv.Unit != d.Unit:
						t.Errorf("pass %d: %s unit %q, want %q", i, d.Name, mv.Unit, d.Unit)
					}
					if table[d.Name] != 1 {
						t.Errorf("pass %d: %s printed %d times in the table", i, d.Name, table[d.Name])
					}
				}
			}
			for _, d := range endToEnd {
				if lines[0].Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end %s = %v, must never be 0", d.Name, lines[0].Metrics[d.Name].Value)
				}
			}
		})
	}
}

// inputsOf renders every seeded input of a run as text.
func inputsOf(t *testing.T, seed int64) string {
	t.Helper()
	cfg := smokeSizing
	el, _, err := genGraph(cfg.serveScale, cfg.edgeFactor, seed)
	if err != nil {
		t.Fatal(err)
	}
	comp := largestComponent(el)
	roots, err := drawRoots(newRand(seed, streamRoots), comp, 32)
	if err != nil {
		t.Fatal(err)
	}
	ops := opStream(newRand(seed, streamOps), el, comp, 3, 64)
	mix, err := newMixPlan(cfg, seed, comp, 2)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintln(&b, el.Edges[:64], roots, ops, mix.hotBFS, mix.hotPPR)
	for c := 0; c < 2; c++ {
		for i := 0; i < 200; i++ {
			q, sampled, err := mix.draw(c)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(&b, c, q, sampled)
		}
	}
	return b.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := inputsOf(t, 3), inputsOf(t, 3), inputsOf(t, 4)
	if a != b {
		t.Error("the same seed gave different roots, op streams or request mixes")
	}
	if a == c {
		t.Error("different seeds gave identical inputs")
	}
}

func TestQuantileRefusesThinTails(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false}, {20, 0.5, 10, true},
		{99, 0.9, 90, false}, {100, 0.9, 90, true},
		{999, 0.99, 990, false}, {1000, 0.99, 990, true},
	} {
		v, ok := quantile(mk(tc.n), tc.p)
		if v != tc.want || ok != tc.ok {
			t.Errorf("quantile(n=%d, p=%v) = %v, %v; want %v, %v", tc.n, tc.p, v, ok, tc.want, tc.ok)
		}
	}
	if _, err := samples(mk(50)).pct(0.9, true, "x"); err == nil {
		t.Error("strict pct reported a p90 of 50 samples")
	}
	if err := (samples{1, 1, 1, 1, 2, 2, 2, 2}).stationary("x"); err == nil {
		t.Error("a phase whose halves differ twofold passed as stationary")
	}
}

func TestEdgeModel(t *testing.T) {
	el, _, err := genGraph(8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := newEdgeModel(el)
	gone := el.Edges[0]
	m.apply([]delta.Op{{Del: true, Src: gone.Dst, Dst: gone.Src}, {Src: 200, Dst: 100}, {Src: 5, Dst: 6}, {Del: true, Src: 6, Dst: 5}})
	has := map[uint64]int{}
	for _, e := range m.final().Edges {
		has[canonKey(e.Src, e.Dst)]++
	}
	if has[canonKey(gone.Src, gone.Dst)] != 0 || has[canonKey(100, 200)] != 1 || has[canonKey(5, 6)] != 0 {
		t.Errorf("final edge set wrong: deleted %d, inserted %d, inserted-then-deleted %d",
			has[canonKey(gone.Src, gone.Dst)], has[canonKey(100, 200)], has[canonKey(5, 6)])
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	root := tr.begin("client.request", 0, 1)
	child := tr.begin("server.handler", root, 1)
	time.Sleep(2 * time.Millisecond)
	tr.end(child)
	tr.end(root)
	tr.attach("core.Scheduler.Run", child, 0, time.Millisecond)
	spans := tr.snapshot()
	self := selfTimes(spans)
	if got, want := self[child], spans[1].dur()-time.Millisecond; got != want {
		t.Errorf("handler self time %v, want %v", got, want)
	}
	if got, want := self[root], spans[0].dur()-spans[1].dur(); got != want {
		t.Errorf("request self time %v, want %v", got, want)
	}
	if _, cover := layerSelf(spans); cover < 0.999 {
		t.Errorf("self times cover %.3f of the query", cover)
	}
	var off *tracer
	if id := off.begin("x", 0, 0); id != 0 || off.snapshot() != nil {
		t.Error("a nil tracer recorded a span")
	}
	off.end(0)
	off.attach("x", 0, 0, 0)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "BENCHMARK.json")
	writeFile := func(path, body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(manifestPath, `{"workloads":[{"name":"scan-pr-v3","why":"x"}],
		"end_to_end":[{"name":"edges_per_s","unit":"1/s","better":"higher","bound":0.1},
		              {"name":"query_p50_ms","unit":"ms","better":"lower","bound":0.1},
		              {"name":"disk_bytes_per_edge","unit":"B","better":"lower","bound":0.01}],
		"per_layer":[{"name":"read_bytes_per_query","unit":"B","better":"lower"}]}`)
	side := func(path string, edges, p50 []float64, bytes float64) {
		var b strings.Builder
		for i := range edges {
			rec := recordLine{Workload: wlScanPR, Seed: int64(i), resultLine: resultLine{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{
					"edges_per_s":          {edges[i], "1/s"},
					"query_p50_ms":         {p50[i], "ms"},
					"disk_bytes_per_edge":  {bytes, "B"},
					"read_bytes_per_query": {bytes, "B"},
				}}}
			b.WriteString(marshalLine(rec) + "\n")
		}
		writeFile(path, b.String())
	}
	a, same, slow, noisy, more := filepath.Join(dir, "a"), filepath.Join(dir, "same"), filepath.Join(dir, "slow"), filepath.Join(dir, "noisy"), filepath.Join(dir, "more")
	side(a, []float64{100, 101, 102, 103}, []float64{10, 10.1, 10.2, 10.3}, 4096)
	side(same, []float64{101, 100, 103, 102}, []float64{10.2, 10.1, 10.3, 10}, 4096)
	side(slow, []float64{80, 81, 82, 83}, []float64{10, 10.1, 10.2, 10.3}, 4096)
	side(noisy, []float64{100, 101, 102, 103}, []float64{6, 9, 12, 15}, 4096)
	side(more, []float64{100, 101, 102, 103}, []float64{10, 10.1, 10.2, 10.3}, 8192)
	for _, tc := range []struct {
		b    string
		code int
		want string
	}{
		{same, 0, "identical"},
		{slow, 1, "REGRESSED"},
		{noisy, 1, "unresolved (spread exceeds bound)"},
		{more, 1, "REGRESSED"},
	} {
		var stdout, stderr bytes.Buffer
		code := compareFiles(&stdout, &stderr, manifestPath, a, tc.b)
		if code != tc.code || !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("compare with %s: exit %d, want %d and %q in\n%s%s", filepath.Base(tc.b), code, tc.code, tc.want, stdout.String(), stderr.String())
		}
	}
}
