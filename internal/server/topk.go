package server

// rankedVertex is one entry of a reply's top list.
type rankedVertex struct {
	Vertex uint32  `json:"vertex"`
	Rank   float64 `json:"rank"`
}

// outranks orders a top list: higher rank first, ties to the lower vertex.
func (a rankedVertex) outranks(b rankedVertex) bool {
	return a.Rank > b.Rank || a.Rank == b.Rank && a.Vertex < b.Vertex
}

// topRanks returns the k best-ranked vertices of ranks, best first, ties
// broken by ascending vertex ID; with positiveOnly, vertices of rank 0 or
// less (the ones a personalized walk never reached) are left out. One pass
// keeps the best k seen so far in a heap whose root is the weakest of them,
// so it costs O(n log k) time and O(k) memory. The result is a fresh slice
// with a capacity of at most k: a reply that is cached holds k entries, not
// the rank vector.
func topRanks(ranks []float64, k int, positiveOnly bool) []rankedVertex {
	k = max(min(k, len(ranks)), 0)
	h := make([]rankedVertex, 0, k)
	if k == 0 {
		return h
	}
	for v, r := range ranks {
		if positiveOnly && !(r > 0) {
			continue
		}
		c := rankedVertex{uint32(v), r}
		if len(h) < k {
			h = append(h, c)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !h[p].outranks(h[i]) {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
		} else if c.outranks(h[0]) {
			h[0] = c
			siftWeakest(h)
		}
	}
	// Heap-sort in place: each pop moves the weakest left to the back.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftWeakest(h[:n])
	}
	return h
}

// siftWeakest restores the heap order of h after its root was replaced:
// every parent is outranked by both of its children.
func siftWeakest(h []rankedVertex) {
	for i := 0; ; {
		w := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && h[w].outranks(h[c]) {
				w = c
			}
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}
