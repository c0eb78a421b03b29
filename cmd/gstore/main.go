// Command gstore converts graphs to the tile format and runs the three
// algorithms of the paper over them with the slide-cache-rewind engine.
//
// Usage:
//
//	gstore convert -in edges.bin -vertices 1048576 [-directed] -dir data -name mygraph
//	gstore info -graph data/mygraph
//	gstore bfs -graph data/mygraph -root 0 [-backend file [-direct]]
//	gstore pagerank -graph data/mygraph -iters 10
//	gstore wcc -graph data/mygraph
//	gstore ingest -graph data/mygraph -in mutations.txt
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	gstore "github.com/gwu-systems/gstore"
	"github.com/gwu-systems/gstore/cmd/internal/engineflags"
	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/metrics"
	"github.com/gwu-systems/gstore/internal/report"
	"github.com/gwu-systems/gstore/internal/tile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "fsck":
		err = cmdFsck(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "ingest":
		err = cmdIngest(os.Args[2:])
	case "bfs", "asyncbfs", "pagerank", "wcc", "scc":
		err = cmdRun(os.Args[1], os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gstore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  gstore convert -in edges.bin -vertices N [-directed] -dir DIR -name NAME [-tilebits 16] [-groupq 256]
  gstore info -graph DIR/NAME
  gstore fsck -graph DIR/NAME
  gstore stats -graph DIR/NAME
  gstore ingest -graph DIR/NAME [-in FILE|-] [-batch 4096]   (lines: "src dst" inserts, "del src dst" deletes)
  gstore bfs -graph DIR/NAME -root 0 [engine flags]
  gstore bfs -graph DIR/NAME -roots 0,1,2,3   (co-scheduled on one shared scan)
  gstore asyncbfs -graph DIR/NAME -root 0 [engine flags]
  gstore pagerank -graph DIR/NAME -iters 10 [engine flags]
  gstore wcc -graph DIR/NAME [engine flags]
  gstore scc -graph DIR/NAME [engine flags]   (directed graphs)`)
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "binary edge list input (8 bytes/edge)")
	vertices := fs.Uint64("vertices", 0, "number of vertices")
	directed := fs.Bool("directed", false, "treat input as directed")
	dir := fs.String("dir", ".", "output directory")
	name := fs.String("name", "", "output base name")
	tileBits := fs.Uint("tilebits", 16, "log2 tile width")
	groupQ := fs.Uint("groupq", 256, "physical group width in tiles")
	noSym := fs.Bool("nosymmetry", false, "disable the symmetry (half) storage")
	codec := fs.String("codec", "", "tuple codec: snb (default), raw, or v3")
	fs.Parse(args)
	if *in == "" || *name == "" || *vertices == 0 {
		return fmt.Errorf("convert: -in, -name and -vertices are required")
	}
	if *vertices > math.MaxUint32 {
		return fmt.Errorf("convert: -vertices %d exceeds 2^32-1", *vertices)
	}
	if *groupQ > math.MaxUint32 {
		return fmt.Errorf("convert: -groupq %d exceeds 2^32-1", *groupQ)
	}
	// The input streams from disk twice with a 256 MiB staging budget, so
	// it may be larger than memory.
	opts := tile.ExternalConvertOptions{ConvertOptions: tile.ConvertOptions{
		TileBits: *tileBits,
		GroupQ:   uint32(*groupQ),
		Symmetry: !*noSym,
		Codec:    *codec,
		Degrees:  true,
	}}
	g, err := tile.ConvertExternal(*in, uint32(*vertices), *directed, *dir, *name, opts)
	if err != nil {
		return err
	}
	defer g.Close()
	fmt.Printf("converted %s: %d vertices, %d stored tuples, %s data + %s start-edge\n",
		*name, g.Meta.NumVertices, g.Meta.NumStored,
		report.Bytes(g.DataBytes()), report.Bytes(g.StartBytes()))
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	path := fs.String("graph", "", "graph base path (dir/name)")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("info: -graph is required")
	}
	g, err := gstore.Open(*path)
	if err != nil {
		return err
	}
	defer g.Close()
	m := g.Meta
	fmt.Printf("name:        %s\n", m.Name)
	fmt.Printf("vertices:    %d\n", m.NumVertices)
	fmt.Printf("stored:      %d tuples (%d original edges)\n", m.NumStored, m.NumOriginal)
	fmt.Printf("tile width:  2^%d (%d tiles/side, %d stored tiles)\n",
		m.TileBits, g.Layout.P, g.Layout.NumTiles())
	fmt.Printf("groups:      %dx%d tiles\n", m.GroupQ, m.GroupQ)
	fmt.Printf("directed:    %v   half-stored: %v   codec: %s\n", m.Directed, m.Half, m.TupleCodec())
	fmt.Printf("format:      v%d\n", m.Version)
	fmt.Printf("data:        %s (+%s start-edge)\n",
		report.Bytes(g.DataBytes()), report.Bytes(g.StartBytes()))
	return nil
}

// cmdFsck validates a graph offline — header, start-array monotonicity,
// per-tile CRC32C checksums, tuple ranges, degree file — and, when the
// graph has a write path on disk, its WAL segments and delta snapshots
// too. Every corrupt section, tile, segment and snapshot is reported.
// Exit status 0 means the graph passed every applicable check (a torn
// WAL tail from a crash is informational, not a failure: replay discards
// it).
func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	path := fs.String("graph", "", "graph base path (dir/name)")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("fsck: -graph is required")
	}
	r := tile.Fsck(*path)
	dFindings, dNotes := delta.Fsck(*path)
	for _, n := range dNotes {
		fmt.Printf("fsck: note: %s\n", n)
	}
	problems := len(r.Findings) + len(dFindings)
	if r.OK() && len(dFindings) == 0 {
		fmt.Printf("%s: OK — format v%d, full (per-tile crc32c); %d tiles, %d tuples checked\n",
			*path, r.Version, r.TilesChecked, r.TuplesChecked)
		return nil
	}
	for _, f := range r.Findings {
		fmt.Fprintf(os.Stderr, "fsck: %s\n", f)
	}
	for _, f := range dFindings {
		fmt.Fprintf(os.Stderr, "fsck: %s\n", f)
	}
	if r.Truncated {
		fmt.Fprintf(os.Stderr, "fsck: ... further tile findings suppressed after the first %d\n",
			len(r.Findings))
	}
	return fmt.Errorf("%s: %d problem(s) found", *path, problems)
}

// cmdIngest streams edge mutations from a text file (or stdin) through
// the graph's WAL-backed write path: each batch is appended to the WAL
// (fsynced) before it becomes visible, and a final snapshot flush leaves
// the store clean for the next open. Lines are "src dst" to insert or
// "del src dst" to delete; "add src dst" is accepted too; '#' starts a
// comment.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	path := fs.String("graph", "", "graph base path (dir/name)")
	in := fs.String("in", "-", `mutation input file ("-" = stdin)`)
	batch := fs.Int("batch", 4096, "mutations per WAL record (one atomic, durable batch)")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("ingest: -graph is required")
	}
	if *batch <= 0 {
		*batch = 4096
	}
	var r io.Reader = os.Stdin
	if *in != "-" && *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	g, err := gstore.Open(*path)
	if err != nil {
		return err
	}
	defer g.Close()
	ds, err := delta.Open(g, *path, delta.Options{})
	if err != nil {
		return err
	}
	if st := ds.Stats(); st.ReplayRecords > 0 {
		fmt.Printf("recovered %d mutation(s) in %d WAL record(s) from a previous run\n",
			st.ReplayOps, st.ReplayRecords)
	}

	start := time.Now()
	var total, changed int64
	var ops []delta.Op
	apply := func() error {
		if len(ops) == 0 {
			return nil
		}
		n, err := ds.Apply(ops)
		if err != nil {
			return err
		}
		total += int64(len(ops))
		changed += int64(n)
		ops = ops[:0]
		return nil
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		op := delta.Op{}
		switch {
		case len(fields) == 2:
		case len(fields) == 3 && fields[0] == "add":
			fields = fields[1:]
		case len(fields) == 3 && fields[0] == "del":
			op.Del = true
			fields = fields[1:]
		default:
			return fmt.Errorf("ingest: line %d: want \"src dst\", \"add src dst\" or \"del src dst\", got %q", line, text)
		}
		s64, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return fmt.Errorf("ingest: line %d: bad src %q: %w", line, fields[0], err)
		}
		d64, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return fmt.Errorf("ingest: line %d: bad dst %q: %w", line, fields[1], err)
		}
		op.Src, op.Dst = uint32(s64), uint32(d64)
		ops = append(ops, op)
		if len(ops) >= *batch {
			if err := apply(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := apply(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	// Close flushes the delta layer to a checksummed snapshot and
	// truncates the WAL, so the next open needs no replay.
	if err := ds.Close(); err != nil {
		return err
	}
	st := ds.Stats()
	rate := float64(total) / elapsed.Seconds()
	fmt.Printf("ingested %d mutation(s) (%d effective) in %v: %.0f mutations/s\n",
		total, changed, elapsed.Round(time.Millisecond), rate)
	fmt.Printf("delta layer: %d tile(s) touched, %d inserted tuple(s), %d masked key(s), snapshot flushed\n",
		st.DeltaTiles, st.InsTuples, st.MaskedKeys)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	path := fs.String("graph", "", "graph base path (dir/name)")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("stats: -graph is required")
	}
	g, err := gstore.Open(*path)
	if err != nil {
		return err
	}
	defer g.Close()
	st := tile.CollectStats(g)
	tb := report.New("tile statistics for "+*path, "metric", "value")
	tb.Row("tiles", st.Tiles)
	tb.Row("empty tiles", fmt.Sprintf("%d (%.1f%%)", st.EmptyTiles,
		100*float64(st.EmptyTiles)/float64(st.Tiles)))
	tb.Row("tiles < 1000 tuples", st.EmptyTiles+st.TilesUnder1K)
	tb.Row("tiles > 100000 tuples", st.Over100K)
	tb.Row("largest tile (tuples)", st.MaxTuples)
	tb.Row("total tuples", st.TotalTuples)
	tb.Row("physical groups", st.Groups)
	tb.Row("smallest group (tuples)", st.MinGroup)
	tb.Row("largest group (tuples)", st.MaxGroup)
	tb.Row("data size", report.Bytes(st.DataBytes))
	tb.Fprint(os.Stdout)
	return nil
}

// reach counts the vertices a BFS reached and its deepest level.
func reach(depths []int32) (reached int, maxDepth int32) {
	maxDepth = -1
	for _, d := range depths {
		if d >= 0 {
			reached++
			maxDepth = max(maxDepth, d)
		}
	}
	return reached, maxDepth
}

// runMultiBFS co-schedules one BFS per root on the engine's shared
// sweep and prints a per-root summary plus the combined I/O cost.
func runMultiBFS(ctx context.Context, g *gstore.Graph, e *core.Engine, rootList []uint32) error {
	sched := core.NewScheduler(e)
	defer sched.Close()

	type result struct {
		st  *core.Stats
		err error
	}
	runs := make([]*algo.BFS, len(rootList))
	results := make([]result, len(rootList))
	var wg sync.WaitGroup
	for i, r := range rootList {
		runs[i] = algo.NewBFS(r)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := sched.Run(ctx, runs[i])
			results[i] = result{st, err}
		}(i)
	}
	wg.Wait()

	var totalBytes, totalReqs int64
	var elapsed time.Duration
	for i, r := range rootList {
		res := results[i]
		if res.err != nil {
			return fmt.Errorf("bfs root %d: %w", r, res.err)
		}
		reached, maxDepth := reach(runs[i].Depths())
		st := res.st
		totalBytes += st.BytesRead
		totalReqs += st.IORequests
		if st.Elapsed > elapsed {
			elapsed = st.Elapsed
		}
		fmt.Printf("bfs root %-10d reached %d of %d, max depth %d, read %s (shared with up to %d runs)\n",
			r, reached, g.Meta.NumVertices, maxDepth, report.Bytes(st.BytesRead), st.SharedRuns)
	}
	fmt.Printf("co-scheduled %d searches in %v: %s total in %d requests (one shared scan per iteration)\n",
		len(rootList), elapsed.Round(1e6), report.Bytes(totalBytes), totalReqs)
	return nil
}

func cmdRun(alg string, args []string) error {
	fs := flag.NewFlagSet(alg, flag.ExitOnError)
	path := fs.String("graph", "", "graph base path (dir/name)")
	root := fs.Uint64("root", 0, "BFS root vertex")
	roots := fs.String("roots", "", "comma-separated BFS roots co-scheduled on one shared scan (bfs only)")
	iters := fs.Int("iters", 10, "PageRank iterations")
	topN := fs.Int("top", 5, "results to print")
	dumpMetrics := fs.Bool("metrics", false, "print final counters in Prometheus text format on stderr")
	opts := engineflags.Register(fs, 0)
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("%s: -graph is required", alg)
	}
	var rootList []uint32
	if *roots != "" {
		if alg != "bfs" {
			return fmt.Errorf("%s: -roots only applies to bfs", alg)
		}
		for _, s := range strings.Split(*roots, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 32)
			if err != nil {
				return fmt.Errorf("bfs: bad -roots entry %q: %w", s, err)
			}
			rootList = append(rootList, uint32(v))
		}
	}
	// Ctrl-C cancels the run instead of killing the process mid-I/O; the
	// engine's cancellation path releases its segments before returning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	g, err := gstore.Open(*path)
	if err != nil {
		return err
	}
	defer g.Close()
	o := opts()
	if len(rootList) > 1 {
		// Co-schedule one BFS per root through the shared sweep: the
		// scheduler admits up to 64 of them into one batch, so the tile
		// stream is fetched once per iteration and fanned out to every
		// search; the queue holds the rest until a slot frees.
		o.MaxConcurrentRuns = len(rootList)
		o.MaxQueuedRuns = len(rootList)
	}
	e, err := core.NewEngine(g, o)
	if err != nil {
		return err
	}
	defer e.Close()
	// Attach the graph's write path so runs see base ∪ delta; on a graph
	// that was never mutated this loads nothing and writes nothing. A WAL
	// left by a crashed ingest is replayed here (read-side recovery).
	ds, err := delta.Open(g, *path, delta.Options{})
	if err != nil {
		return err
	}
	e.SetDeltaStore(ds)

	if len(rootList) > 0 {
		return runMultiBFS(ctx, g, e, rootList)
	}

	var st *core.Stats
	switch alg {
	case "bfs", "asyncbfs":
		var run interface {
			algo.Algorithm
			Depths() []int32
		}
		if alg == "bfs" {
			run = algo.NewBFS(uint32(*root))
		} else {
			run = algo.NewAsyncBFS(uint32(*root))
		}
		if st, err = e.Run(ctx, run); err != nil {
			return err
		}
		reached, maxDepth := reach(run.Depths())
		fmt.Printf("%s: reached %d of %d vertices, max depth %d, %.1f MTEPS\n",
			alg, reached, g.Meta.NumVertices, maxDepth, st.MTEPS(2*g.Meta.NumOriginal))
	case "pagerank":
		p := algo.NewPageRank(*iters)
		if st, err = e.Run(ctx, p); err != nil {
			return err
		}
		type vr struct {
			v uint32
			r float64
		}
		ranks := p.Ranks()
		top := make([]vr, 0, len(ranks))
		for v, r := range ranks {
			top = append(top, vr{uint32(v), r})
		}
		sort.Slice(top, func(i, j int) bool { return top[i].r > top[j].r })
		if len(top) > *topN {
			top = top[:*topN]
		}
		fmt.Printf("pagerank: %d iterations, top vertices:\n", st.Iterations)
		for _, t := range top {
			fmt.Printf("  v%-10d %.6g\n", t.v, t.r)
		}
	case "wcc", "scc":
		var run interface {
			algo.Algorithm
			Labels() []uint32
		}
		if alg == "wcc" {
			run = algo.NewWCC()
		} else {
			run = algo.NewSCC()
		}
		if st, err = e.Run(ctx, run); err != nil {
			return err
		}
		comps := map[uint32]int{}
		for _, l := range run.Labels() {
			comps[l]++
		}
		largest := 0
		for _, n := range comps {
			if n > largest {
				largest = n
			}
		}
		fmt.Printf("%s: %d components, largest has %d vertices\n", alg, len(comps), largest)
	}
	fmt.Printf("time %v  iterations %d  read %s in %d requests  cache hits %d/%d tiles\n",
		st.Elapsed.Round(1e6), st.Iterations, report.Bytes(st.BytesRead),
		st.IORequests, st.TilesFromCache, st.TilesProcessed)
	if o.Fault != nil || st.IOFailures > 0 {
		fmt.Printf("faults: %d injected errors, %d short reads, %d slowdowns, %d corruptions; %d failed reads recovered by %d retries\n",
			st.Faults.Errors, st.Faults.Shorts, st.Faults.Slows, st.Faults.Corruptions, st.IOFailures, st.Retries)
	}
	if st.TilesVerified > 0 {
		fmt.Printf("integrity: %d tiles verified, %d checksum mismatches recovered\n",
			st.TilesVerified, st.ChecksumMismatches)
	}
	if *dumpMetrics {
		// The same counters a live gstored exposes on /metrics, rendered
		// once at exit for scripted comparison.
		reg := metrics.NewRegistry()
		core.PublishStats(reg, g.Meta.Name, st)
		reg.Counter("gstore_engine_runs_total",
			"Engine runs by graph, algorithm and outcome.",
			metrics.L("graph", g.Meta.Name),
			metrics.L("algo", alg),
			metrics.L("status", "ok")).Inc()
		if err := reg.WritePrometheus(os.Stderr); err != nil {
			return err
		}
	}
	return nil
}
