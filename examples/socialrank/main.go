// Socialrank: rank the most influential accounts of a Twitter-like
// follower network with PageRank — the workload class the paper's
// introduction motivates (social networks with heavily skewed degree
// distributions).
//
// The graph is a directed RMAT graph whose skew mimics the Twitter
// follower graph from the paper's Table II: a handful of celebrity
// vertices collect millions of followers while most vertices have a few.
//
// Run with:
//
//	go run ./examples/socialrank [-scale 18]
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
	scale := flag.Uint("scale", 16, "log2 of the account count")
	flag.Parse()

	edges, err := gstore.GenerateTwitterLike(*scale, 8, 7)
	if err != nil {
		log.Fatal(err)
	}
	// In-degree = follower count (an edge u->v means "u follows v" here).
	followers := edges.InDegrees()
	maxF := uint32(0)
	for _, f := range followers {
		if f > maxF {
			maxF = f
		}
	}
	fmt.Printf("follower network: %d accounts, %d follow edges, top account has %d followers\n",
		edges.NumVertices, len(edges.Edges), maxF)

	dir, err := os.MkdirTemp("", "gstore-socialrank")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	copts := gstore.DefaultConvertOptions()
	copts.TileBits = *scale - 6
	copts.GroupQ = 8
	g, err := gstore.Convert(edges, dir, "followers", copts)
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

	// Iterate to (near) convergence instead of a fixed count.
	ranks, st, err := eng.PageRankUntil(1e-9*float64(edges.NumVertices), 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pagerank converged in %d iterations (%v), read %s total\n",
		st.Iterations, st.Elapsed.Round(1e6), fmtBytes(st.BytesRead))

	type acct struct {
		id        uint32
		rank      float64
		followers uint32
	}
	all := make([]acct, len(ranks))
	for v, r := range ranks {
		all[v] = acct{uint32(v), r, followers[v]}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].rank > all[j].rank })
	fmt.Println("top 10 accounts by PageRank:")
	fmt.Printf("  %-4s %-10s %-12s %s\n", "#", "account", "rank", "followers")
	for i := 0; i < 10 && i < len(all); i++ {
		a := all[i]
		fmt.Printf("  %-4d %-10d %-12.6g %d\n", i+1, a.id, a.rank, a.followers)
	}

	// PageRank rewards followers-of-influential, not raw counts: report
	// how the two orderings differ.
	byFollow := make([]acct, len(all))
	copy(byFollow, all)
	sort.Slice(byFollow, func(i, j int) bool { return byFollow[i].followers > byFollow[j].followers })
	topRank := map[uint32]bool{}
	for i := 0; i < 100 && i < len(all); i++ {
		topRank[all[i].id] = true
	}
	overlap := 0
	for i := 0; i < 100 && i < len(byFollow); i++ {
		if topRank[byFollow[i].id] {
			overlap++
		}
	}
	fmt.Printf("overlap between top-100 by rank and top-100 by followers: %d%%\n", overlap)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
