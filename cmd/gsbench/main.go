// Command gsbench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints an aligned text table; EXPERIMENTS.md
// records the measured values against the paper's.
//
// Usage:
//
//	gsbench -list
//	gsbench -run all [-scale 18] [-edgefactor 16] [-workdir DIR]
//	gsbench -run fig9,fig10 -quick
//
// The repository's performance benchmark is a separate harness:
// bash benchmark/run.sh (see benchmark/README.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/gwu-systems/gstore/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the chosen experiments
// and returns the exit code (2 for usage errors, 1 for a failed
// experiment).
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("gsbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		list       = fl.Bool("list", false, "list available experiments")
		runIDs     = fl.String("run", "", "comma-separated experiment IDs, or 'all'")
		scale      = fl.Uint("scale", 0, "Kronecker scale of the primary workload (default 18, quick 14)")
		edgeFactor = fl.Int("edgefactor", 0, "edges per vertex (default 16)")
		seed       = fl.Uint64("seed", 0, "generator seed")
		threads    = fl.Int("threads", 0, "worker threads (default GOMAXPROCS)")
		workDir    = fl.String("workdir", "", "directory for generated graphs (default under TMPDIR)")
		quick      = fl.Bool("quick", false, "shrink workloads for a fast smoke run")
	)
	if err := fl.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	if *list || *runIDs == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, r := range exp.All() {
			fmt.Fprintf(stdout, "  %-10s %s\n", r.ID, r.Title)
		}
		if *runIDs == "" && !*list {
			fmt.Fprintln(stdout, "\nuse -run <ids|all>")
		}
		return 0
	}

	cfg := &exp.Config{
		WorkDir:    *workDir,
		Scale:      *scale,
		EdgeFactor: *edgeFactor,
		Seed:       *seed,
		Threads:    *threads,
		Out:        stdout,
		Quick:      *quick,
	}
	cfg.Defaults()

	var ids []string
	if *runIDs == "all" {
		for _, r := range exp.All() {
			ids = append(ids, r.ID)
		}
	} else {
		ids = strings.Split(*runIDs, ",")
	}

	for _, id := range ids {
		r, ok := exp.Find(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(stderr, "gsbench: unknown experiment %q (use -list)\n", id)
			return 2
		}
		fmt.Fprintf(stdout, "-- %s: %s\n", r.ID, r.Title)
		begin := time.Now()
		if err := r.Run(cfg); err != nil {
			fmt.Fprintf(stderr, "gsbench: %s failed: %v\n", r.ID, err)
			return 1
		}
		fmt.Fprintf(stdout, "-- %s done in %v\n\n", r.ID, time.Since(begin).Round(time.Millisecond))
	}
	return 0
}
