// Connectivity: find the weakly connected components of a sparse random
// graph near the percolation threshold, where component structure is at
// its richest — the CC workload of the paper's evaluation.
//
// A uniform random graph with average degree ~1 sits at the phase
// transition: a giant component is just emerging amid a sea of small
// ones, so the component-size histogram is heavy-tailed.
//
// Run with:
//
//	go run ./examples/connectivity [-scale 18]
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
	scale := flag.Uint("scale", 17, "log2 of the vertex count")
	flag.Parse()

	// EdgeFactor 1 => average degree 2 (each edge touches two vertices):
	// just past the percolation threshold.
	edges, err := gstore.GenerateUniform(*scale, 1, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("random graph: %d vertices, %d edges (mean degree %.1f)\n",
		edges.NumVertices, len(edges.Edges),
		2*float64(len(edges.Edges))/float64(edges.NumVertices))

	dir, err := os.MkdirTemp("", "gstore-connectivity")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	copts := gstore.DefaultConvertOptions()
	copts.TileBits = *scale - 6
	copts.GroupQ = 8
	g, err := gstore.Convert(edges, dir, "random", copts)
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

	labels, st, err := eng.WCC()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wcc finished in %d iterations (%v)\n", st.Iterations, st.Elapsed.Round(1e6))

	sizes := map[uint32]int{}
	for _, l := range labels {
		sizes[l]++
	}
	var sorted []int
	for _, n := range sizes {
		sorted = append(sorted, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))

	fmt.Printf("components: %d total\n", len(sorted))
	fmt.Println("largest components:")
	for i := 0; i < 5 && i < len(sorted); i++ {
		fmt.Printf("  #%d: %d vertices (%.2f%% of the graph)\n",
			i+1, sorted[i], 100*float64(sorted[i])/float64(edges.NumVertices))
	}

	// Size histogram in powers of two: near the threshold this decays
	// polynomially rather than exponentially.
	hist := map[int]int{}
	for _, n := range sorted {
		b := 0
		for s := 1; s < n; s *= 2 {
			b++
		}
		hist[b]++
	}
	var buckets []int
	for b := range hist {
		buckets = append(buckets, b)
	}
	sort.Ints(buckets)
	fmt.Println("component-size histogram (bucket = next power of two):")
	for _, b := range buckets {
		fmt.Printf("  <=%-8d %d components\n", 1<<b, hist[b])
	}
}
