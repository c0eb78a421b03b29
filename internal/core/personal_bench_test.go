package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/tile"
)

// BenchmarkPersonalBFS times Scheduler.RunPersonalBFS the way the repo
// benchmark's serve-point workload configures it (kron-16, edge factor 16,
// snb, tile bits 10, file backend, 64 MiB, 2 threads, BatchWindow 2 ms),
// with every query a fresh root. idle is one caller, so each root finds
// the engine idle; busy is two callers, so a root often arrives while the
// other caller's run is in the sweep. It reports the mean latency of a
// query and how many roots each underlying run carried.
func BenchmarkPersonalBFS(b *testing.B) {
	el, err := gen.Generate(gen.Graph500Config(16, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	g, err := tile.Convert(el, b.TempDir(), "g", tile.ConvertOptions{
		TileBits: 10, GroupQ: 8, Symmetry: true, Codec: "snb", Degrees: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { g.Close() })
	for _, bc := range []struct {
		name    string
		callers int
	}{{"idle", 1}, {"busy", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.Backend = "file"
			opts.Threads = 2
			opts.MemoryBytes = 64 << 20
			opts.SegmentSize = opts.MemoryBytes / 8
			opts.MaxConcurrentRuns = 8
			opts.MaxQueuedRuns = 64
			opts.BatchWindow = 2 * time.Millisecond
			e, err := NewEngine(g, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(e.Close)
			s := NewScheduler(e)
			b.Cleanup(s.Close)
			var runs, roots atomic.Int64
			s.PersonalRunHook = func(st *Stats, err error) {
				if st != nil {
					runs.Add(1)
					roots.Add(int64(st.BatchedRoots))
				}
			}

			var next, latency atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < bc.callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						n := next.Add(1) - 1
						if n >= int64(b.N) {
							return
						}
						// An edge's source is never isolated, and on a kron
						// graph nearly always in the giant component.
						root := el.Edges[(n*7919)%int64(len(el.Edges))].Src
						begin := time.Now()
						if _, _, err := s.RunPersonalBFS(context.Background(), root); err != nil {
							b.Error(err)
							return
						}
						latency.Add(int64(time.Since(begin)))
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(latency.Load())/1e6/float64(b.N), "ms/query")
			b.ReportMetric(float64(roots.Load())/float64(runs.Load()), "roots/run")
		})
	}
}
