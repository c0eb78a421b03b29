// Command gengraph produces synthetic graphs in the binary edge-list
// format (8 bytes per edge: little-endian uint32 src, dst).
//
// Usage:
//
//	gengraph -kind kron -scale 20 -edgefactor 16 -seed 1 -out kron-20-16.bin
//	gengraph -kind twitter -scale 18 -edgefactor 8 -out twitter-like.bin
//	gengraph -kind rmat -a 0.6 -b 0.15 -c 0.15 -scale 18 -out rmat.bin
//
// -a/-b/-c apply to -kind rmat only; the other kinds reject them. Edges
// are generated on every core and written in the order of the sequential
// stream, so the file depends on the flags alone.
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"os"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
)

func main() {
	var (
		kind       = flag.String("kind", "kron", "generator: kron, rmat, random, twitter")
		scale      = flag.Uint("scale", 20, "log2 of the vertex count")
		edgeFactor = flag.Int("edgefactor", 16, "edges per vertex")
		seed       = flag.Uint64("seed", 1, "generator seed")
		a          = flag.Float64("a", 0.57, "RMAT quadrant probability a (-kind rmat only)")
		b          = flag.Float64("b", 0.19, "RMAT quadrant probability b (-kind rmat only)")
		cc         = flag.Float64("c", 0.19, "RMAT quadrant probability c (-kind rmat only)")
		directed   = flag.Bool("directed", false, "emit directed edges")
		out        = flag.String("out", "", "output file (required)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "gengraph: -out is required")
		os.Exit(2)
	}

	if *kind != "rmat" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "a" || f.Name == "b" || f.Name == "c" {
				fmt.Fprintf(os.Stderr, "gengraph: -%s applies only to -kind rmat; -kind %s has fixed probabilities\n", f.Name, *kind)
				os.Exit(2)
			}
		})
	}

	var cfg gen.Config
	switch *kind {
	case "kron":
		cfg = gen.Graph500Config(*scale, *edgeFactor, *seed)
		cfg.Directed = *directed
	case "rmat":
		cfg = gen.Config{Kind: gen.RMAT, Scale: *scale, EdgeFactor: *edgeFactor,
			A: *a, B: *b, C: *cc, Seed: *seed, Directed: *directed}
	case "random":
		cfg = gen.UniformConfig(*scale, *edgeFactor, *seed)
		cfg.Directed = *directed
	case "twitter":
		cfg = gen.TwitterLikeConfig(*scale, *edgeFactor, *seed)
	default:
		fmt.Fprintf(os.Stderr, "gengraph: unknown kind %q\n", *kind)
		os.Exit(2)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(2)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var buf [8]byte
	n := int64(0)
	err = gen.Stream(cfg, func(e graph.Edge) error {
		binary.LittleEndian.PutUint32(buf[0:4], e.Src)
		binary.LittleEndian.PutUint32(buf[4:8], e.Dst)
		n++
		_, werr := w.Write(buf[:])
		return werr
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: wrote %d edges (%d vertices) to %s\n", cfg.Name(), n, cfg.NumVertices(), *out)
}
