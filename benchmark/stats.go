package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many raw samples must lie beyond a percentile before
// the harness will report it (choosing-metrics §1): p50 needs 20 samples,
// p90 100, p99 1000.
const minBeyond = 10

// quantile returns the nearest-rank p-quantile of sorted raw samples. ok
// is false when fewer than minBeyond samples lie beyond the returned
// value — the caller must then refuse to report it.
func quantile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// samples is a set of raw latency observations in milliseconds.
type samples []float64

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// pct reports the p-quantile. In strict mode an unsupported percentile is
// an error (the run is failed rather than reported); otherwise the value
// is returned as is, which only the smoke configuration uses.
func (s samples) pct(p float64, strict bool, what string) (float64, error) {
	v, ok := quantile(s.sorted(), p)
	if !ok && strict {
		return 0, fmt.Errorf("%s: p%g needs at least %d samples beyond it, have %d samples in all",
			what, p*100, minBeyond, len(s))
	}
	if math.IsNaN(v) {
		return 0, fmt.Errorf("%s: no samples", what)
	}
	return v, nil
}

// summary lists the extremes and every percentile the sample count
// supports, for the notes a pass prints.
func (s samples) summary() string {
	sorted := s.sorted()
	out := fmt.Sprintf("min %.4g", sorted[0])
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		if v, ok := quantile(sorted, p); ok {
			out += fmt.Sprintf(" p%g %.4g", p*100, v)
		}
	}
	return out + fmt.Sprintf(" max %.4g (n=%d)", sorted[len(sorted)-1], len(sorted))
}

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// stationaryLimit is how far the medians of the two halves of a measured
// phase may differ. The old scale-12 baselines recorded warm-up as if it
// were the effect under test — 6× and 10× gaps; on the reference sandbox
// the same commit's halves differ by up to 26 % from machine noise alone
// (6 of 40 runs exceeded the issue's 15 %), so the guard sits well above
// that and well below any warm-up artefact. It examines engine-computed
// replies only: the 0.1 ms median of cache hits differed 1.7× between
// halves in 1 of 80 runs.
const stationaryLimit = 1.5

// stationary fails when the first and second half of a phase disagree.
func (s samples) stationary(what string) error {
	if len(s) < 4 {
		return nil
	}
	h := len(s) / 2
	a, _ := quantile(samples(s[:h]).sorted(), 0.5)
	b, _ := quantile(samples(s[h:]).sorted(), 0.5)
	if lo, hi := math.Min(a, b), math.Max(a, b); lo <= 0 || hi/lo > stationaryLimit {
		return fmt.Errorf("%s not stationary: first-half p50 %.4f ms, second-half p50 %.4f ms (limit %g×)", what, a, b, stationaryLimit)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of a small slice of numbers (set-up repetitions, probe reruns).
func median(v []float64) float64 {
	m, _ := quantile(samples(v).sorted(), 0.5)
	return m
}

// ratio returns num/den, or 0 when the layer saw no work at all.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
