// Webcrawl: analyze the link structure of a synthetic web graph with
// strongly connected components — the bow-tie analysis classic for web
// graphs (Broder et al.), and the algorithm §IV-A of the paper singles
// out as requiring both edge directions, which G-Store's tile tuples
// provide from a single stored direction.
//
// The example reports the giant SCC (the web's "core"), compares it with
// the weak component structure, and shows how much smaller strong
// connectivity is than weak connectivity on directed link graphs.
//
// Run with:
//
//	go run ./examples/webcrawl [-scale 15]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	gstore "github.com/gwu-systems/gstore"
)

func main() {
	scale := flag.Uint("scale", 14, "log2 of the page count")
	flag.Parse()

	// A directed RMAT graph with subdomain-like skew stands in for a
	// hyperlink crawl.
	edges, err := gstore.GenerateTwitterLike(*scale, 8, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("web graph: %d pages, %d links\n", edges.NumVertices, len(edges.Edges))

	dir, err := os.MkdirTemp("", "gstore-webcrawl")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	copts := gstore.DefaultConvertOptions()
	copts.TileBits = *scale - 6
	copts.GroupQ = 8
	g, err := gstore.Convert(edges, dir, "web", copts)
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()

	eopts := gstore.DefaultEngineOptions()
	eopts.MemoryBytes = g.DataBytes()/2 + 1<<20
	eng, err := gstore.NewEngine(g, eopts)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	scc, sccStats, err := eng.SCC()
	if err != nil {
		log.Fatal(err)
	}
	wcc, _, err := eng.WCC()
	if err != nil {
		log.Fatal(err)
	}

	sccSizes := census(scc)
	wccSizes := census(wcc)
	fmt.Printf("strong components: %d (computed in %v, %d passes)\n",
		len(sccSizes), sccStats.Elapsed.Round(1e6), sccStats.Iterations)
	fmt.Printf("weak components:   %d\n", len(wccSizes))
	fmt.Printf("giant SCC ('core'): %d pages (%.1f%%)\n",
		sccSizes[0], 100*float64(sccSizes[0])/float64(edges.NumVertices))
	fmt.Printf("giant WCC:          %d pages (%.1f%%)\n",
		wccSizes[0], 100*float64(wccSizes[0])/float64(edges.NumVertices))

	// Bow-tie sanity: the giant SCC is a subset of the giant WCC.
	if sccSizes[0] > wccSizes[0] {
		log.Fatal("impossible: SCC larger than WCC")
	}
	singletons := 0
	for _, s := range sccSizes {
		if s == 1 {
			singletons++
		}
	}
	fmt.Printf("singleton SCCs (tendrils/IN/OUT pages): %d\n", singletons)
}

func census(labels []uint32) []int {
	m := map[uint32]int{}
	for _, l := range labels {
		m[l]++
	}
	sizes := make([]int, 0, len(m))
	for _, n := range m {
		sizes = append(sizes, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}
