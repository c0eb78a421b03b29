// Quickstart: generate a small Kronecker graph, convert it to the
// G-Store tile format, and run BFS, PageRank and connected components
// through the slide-cache-rewind engine.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	gstore "github.com/gwu-systems/gstore"
)

func main() {
	// 1. A Graph500-style Kronecker graph: 2^16 vertices, 2^20 edges.
	edges, err := gstore.GenerateKronecker(16, 16, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d vertices, %d undirected edges\n",
		edges.NumVertices, len(edges.Edges))

	// 2. Convert to the tile format. At this scale we shrink the tile
	// width (the paper's 2^16-vertex tiles would put the whole graph in
	// one tile).
	dir, err := os.MkdirTemp("", "gstore-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	copts := gstore.DefaultConvertOptions()
	copts.TileBits = 10 // 64x64 tile grid
	copts.GroupQ = 8
	g, err := gstore.Convert(edges, dir, "quickstart", copts)
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()
	fmt.Printf("tile format: %d stored tuples in %d tiles (%.1fx smaller than the edge list)\n",
		g.Meta.NumStored, g.Layout.NumTiles(),
		float64(len(edges.Edges)*16)/float64(g.DataBytes()))

	// 3. An engine with a memory budget of a quarter of the graph.
	eopts := gstore.DefaultEngineOptions()
	eopts.MemoryBytes = g.DataBytes() / 4
	eng, err := gstore.NewEngine(g, eopts)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// 4. BFS from vertex 0.
	depths, st, err := eng.BFS(0)
	if err != nil {
		log.Fatal(err)
	}
	reached := 0
	for _, d := range depths {
		if d >= 0 {
			reached++
		}
	}
	fmt.Printf("bfs:      reached %d vertices in %d levels (%v, %.0f MTEPS)\n",
		reached, st.Iterations, st.Elapsed.Round(1e6), st.MTEPS(2*g.Meta.NumOriginal))

	// 5. Ten PageRank iterations.
	ranks, st, err := eng.PageRank(10)
	if err != nil {
		log.Fatal(err)
	}
	best, bestRank := 0, 0.0
	for v, r := range ranks {
		if r > bestRank {
			best, bestRank = v, r
		}
	}
	fmt.Printf("pagerank: top vertex %d with rank %.5f (%v, %d tiles from cache)\n",
		best, bestRank, st.Elapsed.Round(1e6), st.TilesFromCache)

	// 6. Weakly connected components.
	labels, st, err := eng.WCC()
	if err != nil {
		log.Fatal(err)
	}
	comps := map[uint32]int{}
	for _, l := range labels {
		comps[l]++
	}
	fmt.Printf("wcc:      %d components in %d iterations (%v)\n",
		len(comps), st.Iterations, st.Elapsed.Round(1e6))
}
