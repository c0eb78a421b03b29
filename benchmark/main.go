// Command benchmark is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the store would see and a metric for every
// layer a query crosses. See README.md beside this file.
//
// It measures the store from outside — public calls timed, returned
// core.Stats, HTTP replies and /metrics scrapes read — and never imports
// internal/exp.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "one of scan-pr-v3, traverse-bfs-snb, serve-point, ingest-query, or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 20, "length of the measured read phase; analytic workloads run a fixed number of runs per second of it")
	trace := fs.String("trace", "0", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; both: one after the other")
	smoke := fs.Bool("smoke", false, "scale-12 inputs and no sample-count guards: exercises every path in seconds")
	out := fs.String("out", "", "append each pass's result to this file, one JSON object per line (the input of -compare)")
	workDir := fs.String("workdir", ".bench_work", "scratch directory for graphs, logs and span files")
	compare := fs.Bool("compare", false, "compare two -out files: -compare A.json B.json (bounds from ./BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, stderr, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
	}
	var passes []bool
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "benchmark: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	cfg := fullSizing
	if *smoke {
		cfg = smokeSizing
	}
	clients := runtime.NumCPU()
	if clients > 4 {
		clients = 4
	}
	fmt.Fprintf(stdout, "closed loops; clients = engine threads = %d; backend file (buffered: latencies are the sandbox's page cache, not a device's)\n", clients)

	for _, name := range names {
		for _, traced := range passes {
			e := &env{cfg: cfg, seed: *seed, seconds: *seconds, clients: clients,
				workDir: filepath.Join(*workDir, fmt.Sprintf("%s-%d", name, os.Getpid()))}
			if traced {
				e.tr = newTracer()
			}
			line, err := runPass(e, name, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			if *out != "" {
				if err := appendLine(*out, recordLine{Workload: name, Seed: *seed, Trace: traced, resultLine: line}); err != nil {
					fmt.Fprintf(stderr, "benchmark: %v\n", err)
					return 1
				}
			}
			fmt.Fprintln(stdout, marshalLine(line))
		}
	}
	return 0
}

// runPass runs one pass of one workload in a scratch directory of its
// own, prints its table and returns the contract's result object.
func runPass(e *env, name string, stdout io.Writer) (resultLine, error) {
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return resultLine{}, err
	}
	defer os.RemoveAll(e.workDir)

	var res *results
	var err error
	switch name {
	case wlScanPR:
		res, err = runDirect(e, pageRankSpec(e.cfg))
	case wlTraverse:
		res, err = runDirect(e, bfsSpec(e.cfg, e.seed))
	case wlServe:
		res, err = runServePoint(e)
	case wlIngest:
		res, err = runIngestQuery(e)
	default:
		return resultLine{}, fmt.Errorf("unknown workload (want one of %v)", workloadNames)
	}
	if err != nil {
		return resultLine{}, err
	}
	defs := endToEnd
	if e.traced() {
		defs = perLayer
		if err := runProbes(e, res); err != nil {
			return resultLine{}, err
		}
		// The self-time split is about the workload's own queries, not
		// the probes' calls.
		var queries []span
		for _, s := range e.tr.snapshot() {
			if !s.Probe {
				queries = append(queries, s)
			}
		}
		byName, coverage := layerSelf(queries)
		res.note("%d spans of traced queries; self times cover at least %.1f%% of every traced query's wall time", len(queries), 100*coverage)
		for _, name := range sortedKeys(byName) {
			res.note("self time %-24s %12.3f ms", name, ms(byName[name]))
		}
		// The span file outlives the scratch directory: it is the pass's
		// second output.
		path := filepath.Join(filepath.Dir(e.workDir), "spans-"+name+".json")
		if err := e.tr.writeFile(path); err != nil {
			return resultLine{}, err
		}
		res.note("spans written to %s", path)
	}
	line, err := res.line(defs)
	if err != nil {
		return line, err
	}
	res.printTable(stdout, name, defs)
	return line, nil
}

func sortedKeys(m map[string]time.Duration) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendLine(path string, v any) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, marshalLine(v)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
