package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// manifest is the part of BENCHMARK.json that -compare reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runSet is one side's results: workload → metric → seed → values.
type runSet map[string]map[string]map[int64][]float64

func readRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec recordLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		byMetric := set[rec.Workload]
		if byMetric == nil {
			byMetric = map[string]map[int64][]float64{}
			set[rec.Workload] = byMetric
		}
		for name, mv := range rec.Metrics {
			if byMetric[name] == nil {
				byMetric[name] = map[int64][]float64{}
			}
			byMetric[name][rec.Seed] = append(byMetric[name][rec.Seed], mv.Value)
		}
	}
	return set, sc.Err()
}

func (s runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, vs := range s[workload][metric] {
		out = append(out, vs...)
	}
	sort.Float64s(out)
	return out
}

// quartiles are Python's statistics.quantiles(values, n=4): the driver's
// spread is (q3 − q1) ÷ median over these.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // taken after clamping j, so the ends extrapolate
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side summarizes one side of a row.
type side struct {
	n      int
	median float64
	spread float64 // (q3 − q1) ÷ median; 0 when n < 2
}

func summarize(sorted []float64) side {
	s := side{n: len(sorted)}
	switch {
	case s.n == 0:
	case s.n == 1:
		s.median = sorted[0]
	default:
		q1, q2, q3 := quartiles(sorted)
		s.median = q2
		if q2 != 0 {
			s.spread = (q3 - q1) / q2
		}
	}
	return s
}

// sameCounts reports whether every seed both sides ran gave the same
// values, and whether any seed was shared at all.
func sameCounts(a, b map[int64][]float64) (same, shared bool) {
	same = true
	for seed, av := range a {
		bv, ok := b[seed]
		if !ok {
			continue
		}
		shared = true
		for _, x := range av {
			for _, y := range bv {
				if x != y {
					same = false
				}
			}
		}
	}
	return same, shared
}

// verdict judges one workload × metric row. worse is the share by which B
// is worse than A in the metric's stated direction. Per-layer rows are
// not judged (they carry no bound): they get a verdict only as counts.
func verdict(m manifestMetric, judged, exact bool, a, b side, same, shared bool) (v string, worse float64) {
	if a.n == 0 || b.n == 0 {
		return "missing", 0
	}
	if a.median != 0 {
		worse = (b.median - a.median) / a.median
		if m.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case exact && shared && same:
		return "identical", worse
	case exact && !shared:
		return "unresolved (exact count, no seed in common)", worse
	case !judged:
		if exact {
			return "changed", worse
		}
		return "", worse
	case !exact && (a.n < 2 || b.n < 2):
		return "unresolved (needs 2+ runs a side)", worse
	case !exact && (a.spread > m.Bound || b.spread > m.Bound):
		return "unresolved (spread exceeds bound)", worse
	case worse > m.Bound:
		return "REGRESSED", worse
	case worse < -m.Bound:
		return "improved", worse
	case exact:
		return "changed within bound", worse
	}
	return "unchanged", worse
}

// compareFiles prints one row per workload × metric and returns 0 only
// when no end-to-end row regressed or stayed unresolved.
func compareFiles(stdout, stderr io.Writer, manifestPath, pathA, pathB string) int {
	man, err := readManifest(manifestPath)
	if err == nil && len(man.EndToEnd) == 0 {
		err = fmt.Errorf("%s lists no end_to_end metrics", manifestPath)
	}
	var a, b runSet
	if err == nil {
		a, err = readRuns(pathA)
	}
	if err == nil {
		b, err = readRuns(pathB)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -compare: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "A = %s, B = %s; worse = share by which B's median is worse than A's\n", pathA, pathB)
	fmt.Fprintf(stdout, "%-18s %-36s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "A iqr", "B iqr", "bound", "verdict")
	bad := 0
	row := func(w string, m manifestMetric, judged bool) {
		exact := isExact(m.Name, w)
		sa, sb := summarize(a.values(w, m.Name)), summarize(b.values(w, m.Name))
		if !judged && sa.n == 0 && sb.n == 0 {
			return // no traced runs on either side
		}
		same, shared := sameCounts(a[w][m.Name], b[w][m.Name])
		v, worse := verdict(m, judged, exact, sa, sb, same, shared)
		bound := "-"
		if judged {
			bound = fmt.Sprintf("%.3f", m.Bound)
			if v == "REGRESSED" || v == "missing" || strings.HasPrefix(v, "unresolved") {
				bad++
			}
		}
		fmt.Fprintf(stdout, "%-18s %-36s %14.6g %14.6g %+8.3f %7.3f %7.3f %6s  %s\n",
			w, m.Name, sa.median, sb.median, worse, sa.spread, sb.spread, bound, v)
	}
	for _, w := range man.Workloads {
		for _, m := range man.EndToEnd {
			row(w.Name, m, true)
		}
		for _, m := range man.PerLayer {
			row(w.Name, m, false)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d end-to-end rows regressed, are unresolved or are missing\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "no end-to-end row regressed; none unresolved")
	return 0
}
