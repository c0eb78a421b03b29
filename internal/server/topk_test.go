package server

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// fullSortTop is the reference topRanks replaces: every candidate
// sorted by rank descending, ties by ascending vertex, cut to k.
func fullSortTop(ranks []float64, k int, positiveOnly bool) []rankedVertex {
	var all []rankedVertex
	for v, r := range ranks {
		if !positiveOnly || r > 0 {
			all = append(all, rankedVertex{uint32(v), r})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Rank != all[j].Rank {
			return all[i].Rank > all[j].Rank
		}
		return all[i].Vertex < all[j].Vertex
	})
	return all[:min(k, len(all))]
}

// TestTopRanksMatchesFullSort pins the one-pass selector to a full sort
// on tie-heavy random vectors, at the edges of k and of the input, for
// both the positive-only (PPR) and the all-vertices (PageRank) lists.
func TestTopRanksMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func(n, levels int, zeros bool) []float64 {
		r := make([]float64, n)
		for i := range r {
			// Few distinct levels, so most entries tie with many others.
			r[i] = float64(rng.Intn(levels)) / float64(levels)
			if !zeros && r[i] == 0 {
				r[i] = 1
			}
		}
		return r
	}
	cases := []struct {
		name  string
		ranks []float64
		ks    []int
	}{
		{"empty", nil, []int{1, 10}},
		{"single", []float64{0.5}, []int{1, 2}},
		{"all-zero", make([]float64, 50), []int{1, 10, 50, 51}},
		{"ties-small", random(20, 3, true), []int{1, 2, 5, 19, 20, 21, 1000}},
		{"ties-large", random(4096, 8, true), []int{1, 10, 100, 4095, 4096, 1 << 20}},
		{"no-zeros", random(1000, 5, false), []int{1, 7, 999, 1000}},
		{"distinct", func() []float64 {
			r := make([]float64, 3000)
			for i := range r {
				r[i] = rng.Float64()
			}
			return r
		}(), []int{1, 10, 3000}},
		{"negative", []float64{-1, 0, 2, -0.5, 2, 0, 1}, []int{1, 3, 7, 8}},
	}
	for _, tc := range cases {
		for _, k := range tc.ks {
			for _, positiveOnly := range []bool{true, false} {
				got := topRanks(tc.ranks, k, positiveOnly)
				want := fullSortTop(tc.ranks, k, positiveOnly)
				if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d positiveOnly=%v:\n got %v\nwant %v", tc.name, k, positiveOnly, got, want)
				}
				if cap(got) > k {
					t.Fatalf("%s k=%d positiveOnly=%v: cap %d exceeds k", tc.name, k, positiveOnly, cap(got))
				}
			}
		}
	}
}
