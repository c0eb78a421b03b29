// Graph500: a BFS benchmark in the style of the Graph500 list the paper
// cites — generate a Kronecker graph, traverse it from a set of random
// roots, validate each traversal, and report MTEPS (millions of traversed
// edges per second).
//
// Run with:
//
//	go run ./examples/graph500 [-scale 18] [-roots 8]
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
	scale := flag.Uint("scale", 16, "log2 of the vertex count")
	roots := flag.Int("roots", 8, "number of BFS roots")
	flag.Parse()

	edges, err := gstore.GenerateKronecker(*scale, 16, 500)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "gstore-graph500")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	copts := gstore.DefaultConvertOptions()
	copts.TileBits = *scale - 6
	copts.GroupQ = 8
	g, err := gstore.Convert(edges, dir, "graph500", copts)
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()

	eopts := gstore.DefaultEngineOptions()
	eopts.MemoryBytes = g.DataBytes()/4 + 1<<20
	eng, err := gstore.NewEngine(g, eopts)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Roots must have at least one edge, per the Graph500 rules.
	deg := edges.OutDegrees()
	var mteps []float64
	seed := uint32(12345)
	fmt.Printf("running %d BFS traversals on %s (%d vertices, %d edges)\n",
		*roots, "kron", edges.NumVertices, len(edges.Edges))
	for r := 0; r < *roots; r++ {
		root := seed
		for deg[root] == 0 {
			root = (root*1664525 + 1013904223) % edges.NumVertices
		}
		seed = (root*1664525 + 1013904223) % edges.NumVertices

		depths, st, err := eng.BFS(root)
		if err != nil {
			log.Fatal(err)
		}
		if err := validate(edges, depths, root); err != nil {
			log.Fatalf("root %d: INVALID traversal: %v", root, err)
		}
		// Graph500 counts edges within the reached component.
		traversed := int64(0)
		for v, d := range depths {
			if d >= 0 {
				traversed += int64(deg[v])
			}
		}
		m := st.MTEPS(traversed)
		mteps = append(mteps, m)
		fmt.Printf("  root %-10d depth %-3d reached %-8d %7.1f MTEPS  (%v)\n",
			root, st.Iterations-1, reached(depths), m, st.Elapsed.Round(1e6))
	}
	sort.Float64s(mteps)
	fmt.Printf("harmonic-mean MTEPS: %.1f   median: %.1f\n",
		harmonicMean(mteps), mteps[len(mteps)/2])
}

func reached(depths []int32) int {
	n := 0
	for _, d := range depths {
		if d >= 0 {
			n++
		}
	}
	return n
}

// validate applies the Graph500-style soundness checks: the root has
// depth 0, every edge spans at most one level, and every reached
// non-root vertex has a neighbor exactly one level up.
func validate(edges *gstore.EdgeList, depths []int32, root uint32) error {
	if depths[root] != 0 {
		return fmt.Errorf("root depth = %d", depths[root])
	}
	hasParent := make([]bool, len(depths))
	hasParent[root] = true
	for _, e := range edges.Edges {
		ds, dd := depths[e.Src], depths[e.Dst]
		if (ds < 0) != (dd < 0) {
			return fmt.Errorf("edge (%d,%d) spans reached/unreached", e.Src, e.Dst)
		}
		if ds < 0 {
			continue
		}
		diff := ds - dd
		if diff < -1 || diff > 1 {
			return fmt.Errorf("edge (%d,%d) spans %d levels", e.Src, e.Dst, diff)
		}
		if dd == ds+1 {
			hasParent[e.Dst] = true
		}
		if ds == dd+1 {
			hasParent[e.Src] = true
		}
	}
	for v, d := range depths {
		if d > 0 && !hasParent[v] {
			return fmt.Errorf("vertex %d at depth %d has no parent", v, d)
		}
	}
	return nil
}

func harmonicMean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += 1 / x
	}
	return float64(len(v)) / s
}
