package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"github.com/gwu-systems/gstore/internal/graph"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// depthDigest fingerprints a BFS depth vector so a hundred reference
// answers cost a hundred words, not a hundred vectors.
func depthDigest(depths []int32) uint64 {
	var buf [4096]byte
	var crc uint32
	for len(depths) > 0 {
		n := len(depths)
		if n > len(buf)/4 {
			n = len(buf) / 4
		}
		for i, d := range depths[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(d))
		}
		crc = crc32.Update(crc, castagnoli, buf[:4*n])
		depths = depths[n:]
	}
	return uint64(crc)
}

// bfsSummary is what the server reports of a BFS: vertices reached and
// the deepest level.
func bfsSummary(depths []int32) (reached int, maxDepth int32) {
	maxDepth = -1
	for _, d := range depths {
		if d >= 0 {
			reached++
			if d > maxDepth {
				maxDepth = d
			}
		}
	}
	return reached, maxDepth
}

// bfsRef is the reference answer for one root.
type bfsRef struct {
	digest   uint64
	reached  int
	maxDepth int32
}

func refBFS(csr *graph.CSR, root uint32) bfsRef {
	d := graph.RefBFS(csr, root)
	r, m := bfsSummary(d)
	return bfsRef{digest: depthDigest(d), reached: r, maxDepth: m}
}

const rankTolerance = 1e-9

// ranksMatch holds PageRank vectors to the repository's 1e-9 pin.
func ranksMatch(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("rank vector has %d entries, want %d", len(got), len(want))
	}
	for v := range want {
		if math.Abs(got[v]-want[v]) > rankTolerance {
			return fmt.Errorf("rank[%d] = %.12g, want %.12g", v, got[v], want[v])
		}
	}
	return nil
}

type rankedVertex struct {
	Vertex uint32  `json:"vertex"`
	Rank   float64 `json:"rank"`
}

// topMatches checks a reply's top-k list against the reference vector:
// the right length, every listed rank the reference's for that vertex,
// and position by position the k largest reference ranks (ties may order
// vertices either way, so positions compare ranks, not vertex IDs).
func topMatches(got []rankedVertex, ref []float64, k int) error {
	want := make([]float64, 0, len(ref))
	for _, r := range ref {
		if r > 0 {
			want = append(want, r)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	if len(want) > k {
		want = want[:k]
	}
	if len(got) != len(want) {
		return fmt.Errorf("top list has %d entries, want %d", len(got), len(want))
	}
	for i, g := range got {
		if int(g.Vertex) >= len(ref) || math.Abs(g.Rank-ref[g.Vertex]) > rankTolerance {
			return fmt.Errorf("top[%d]: vertex %d rank %.12g disagrees with the reference", i, g.Vertex, g.Rank)
		}
		if math.Abs(g.Rank-want[i]) > rankTolerance {
			return fmt.Errorf("top[%d]: rank %.12g, want %.12g", i, g.Rank, want[i])
		}
	}
	return nil
}

// componentSummary is what POST /wcc reports.
func componentSummary(labels []graph.VertexID) (components, largest int) {
	size := make(map[graph.VertexID]int)
	for _, l := range labels {
		size[l]++
	}
	for _, n := range size {
		if n > largest {
			largest = n
		}
	}
	return len(size), largest
}
