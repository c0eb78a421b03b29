// Command gstored serves converted graphs over HTTP: a long-running
// G-Store process answering BFS / PageRank / components queries with the
// slide-cache-rewind engine.
//
// Usage:
//
//	gstored -listen :8080 -graph social=data/twitter -graph web=data/crawl [engine flags]
//
// The engine flags (-memory, -backend, -cache, -retries, the fault flags,
// ...) are gstore's, from package engineflags; -memory defaults to a
// fixed 64 MiB per graph here. The flags declared below are the
// daemon's own: listening, timeouts, scheduling, result cache, quotas.
//
// Endpoints: GET /healthz (liveness), GET /readyz (readiness: 503 with
// status no_graphs|wal_failed|shutting_down until graphs are open, write
// paths healthy, and schedulers accepting — load balancers should drain
// on this, not /healthz), GET /metrics (Prometheus text), GET /graphs,
// GET /graphs/{name}, POST /graphs/{name}/{bfs|msbfs|pagerank|ppr|wcc|scc},
// GET /graphs/{name}/{bfs|ppr}?root=N (the personalized fast path:
// result-cached per -qcache-bytes/-qcache-ttl; a BFS root that finds the
// engine busy waits up to -batch-window for company and coalesces with it
// into one multi-source run, one on an idle engine runs at once),
// POST /graphs/{name}/edges (batch edge mutations through the WAL-backed
// write path; disabled by -readonly), and (unless -pprof=false) the
// net/http/pprof profiling handlers under /debug/pprof/.
//
// A failed WAL fsync degrades that graph to read-only rather than
// risking a lost ack: /edges answers 503 status="wal_failed" (sticky),
// the gstore_wal_failed gauge rises, /readyz fails — and queries keep
// serving. Handler panics are contained per request (500
// status="panic", counted in gstore_http_panics_total, stack logged).
//
// Unless -readonly is set, opening each graph recovers its write path:
// the newest delta snapshot is loaded and any WAL records a previous
// process acked but had not yet flushed are replayed, so no acknowledged
// mutation is lost to a crash.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: request contexts
// are canceled (which cancels in-flight engine runs), the listener
// closes, and in-flight handlers get -drain-timeout to finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/gwu-systems/gstore/cmd/internal/engineflags"
	"github.com/gwu-systems/gstore/internal/server"
)

type graphFlags []string

func (g *graphFlags) String() string { return strings.Join(*g, ",") }
func (g *graphFlags) Set(v string) error {
	*g = append(*g, v)
	return nil
}

func main() {
	var graphs graphFlags
	listen := flag.String("listen", ":8080", "listen address")
	engineOpts := engineflags.Register(flag.CommandLine, engineflags.ServedMemory)
	maxRuns := flag.Int("maxruns", 8, "concurrent algorithm runs co-scheduled per graph (1-64)")
	queueLen := flag.Int("queue", 64, "runs queued per graph beyond -maxruns before 429s")
	qcacheBytes := flag.Int64("qcache-bytes", 64<<20, "personalized-query result cache budget in bytes, charged per entry at its declared summary size (0 disables)")
	qcacheTTL := flag.Duration("qcache-ttl", time.Minute, "result cache entry TTL")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "how long a GET bfs root that finds the engine busy waits for company to fuse into one msbfs run (an idle engine runs it at once; 0 disables)")
	tenantMax := flag.Int("tenant-maxruns", 0, "max concurrent runs per ?tenant= label (0 = unlimited)")
	pprofOn := flag.Bool("pprof", true, "serve net/http/pprof under /debug/pprof/")
	readOnly := flag.Bool("readonly", false, "serve without the write path: no WAL recovery, POST /edges refused")
	readHeaderTO := flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout")
	readTO := flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
	idleTO := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout")
	writeTO := flag.Duration("write-timeout", 0, "http.Server WriteTimeout (0 = none; long runs stream no body until done)")
	drainTO := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain deadline")
	flag.Var(&graphs, "graph", "name=basePath of a converted graph (repeatable)")
	flag.Parse()

	if len(graphs) == 0 {
		log.Fatal("gstored: at least one -graph name=path is required")
	}

	// ctx cancels on SIGINT/SIGTERM. It is also every request's base
	// context, so shutdown cancels in-flight engine runs promptly instead
	// of waiting a full algorithm out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := server.New()
	srv.ReadOnly = *readOnly
	srv.QCacheBytes = *qcacheBytes
	srv.QCacheTTL = *qcacheTTL
	srv.TenantMaxRuns = *tenantMax
	defer srv.Close()
	for _, spec := range graphs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("gstored: bad -graph %q, want name=path", spec)
		}
		opts := engineOpts()
		opts.MaxConcurrentRuns = *maxRuns
		opts.MaxQueuedRuns = *queueLen
		opts.BatchWindow = *batchWindow
		if err := srv.AddGraph(name, path, opts); err != nil {
			log.Fatalf("gstored: loading %s: %v", spec, err)
		}
		fmt.Printf("loaded %s from %s\n", name, path)
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	hs := &http.Server{
		Addr:              *listen,
		Handler:           mux,
		ReadHeaderTimeout: *readHeaderTO,
		ReadTimeout:       *readTO,
		IdleTimeout:       *idleTO,
		WriteTimeout:      *writeTO,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Printf("gstored listening on %s\n", *listen)

	select {
	case err := <-errCh:
		log.Fatalf("gstored: %v", err)
	case <-ctx.Done():
		fmt.Println("gstored: signal received, draining")
		sctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("gstored: drain incomplete: %v", err)
			_ = hs.Close()
		}
	}
}
