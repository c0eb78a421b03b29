package main

import (
	"runtime"
	"time"

	"github.com/gwu-systems/gstore/internal/core"
)

// sweepTotals is what the engine reported for one measured phase. Direct
// workloads add up the core.Stats each Engine.Run returned; served
// workloads take the same sums from /metrics scrape deltas. One caller
// makes every count exact.
type sweepTotals struct {
	iterations int64
	elapsed    time.Duration
	iowait     time.Duration   // sweep driver blocked on completions
	compute    time.Duration   // sweep driver dispatching tiles and waiting for the workers
	workerBusy []time.Duration // per worker, inside kernel code; only Engine.Run reports it

	processed, fromCache, skipped int64
	requests, bytes               int64
}

func (t *sweepTotals) add(st *core.Stats) {
	t.iterations += int64(st.Iterations)
	t.elapsed += st.Elapsed
	t.iowait += st.IOWait
	t.compute += st.Compute
	if len(t.workerBusy) < len(st.WorkerBusy) {
		t.workerBusy = append(t.workerBusy, make([]time.Duration, len(st.WorkerBusy)-len(t.workerBusy))...)
	}
	for w, d := range st.WorkerBusy {
		t.workerBusy[w] += d
	}
	t.processed += st.TilesProcessed
	t.fromCache += st.TilesFromCache
	t.skipped += st.TilesSkipped
	t.requests += st.IORequests
	t.bytes += st.BytesRead
}

// report derives the sweep's per-layer metrics. queries is the number of
// answered queries the phase served (more than runs when replies came
// from the result cache or shared a coalesced run).
func (t sweepTotals) report(res *results, queries int) {
	var busy, maxBusy time.Duration
	for _, d := range t.workerBusy {
		busy += d
		if d > maxBusy {
			maxBusy = d
		}
	}
	threads := float64(len(t.workerBusy))
	iowait := ratio(float64(t.iowait), float64(t.elapsed))
	compute := ratio(float64(t.compute), float64(t.elapsed))
	self := 1 - iowait - compute
	if self < 0 || t.elapsed == 0 {
		self = 0
	}
	res.set("mem.pool.hit_ratio", ratio(float64(t.fromCache), float64(t.processed)))
	res.set("core.sweep.skip_ratio", ratio(float64(t.skipped), float64(t.processed+t.skipped)))
	res.set("core.sweep.requests_per_query", ratio(float64(t.requests), float64(queries)))
	res.set("core.sweep.iowait_frac", iowait)
	res.set("core.sweep.compute_frac", compute)
	res.set("core.sweep.self_frac", self)
	res.set("core.sweep.worker_util", ratio(float64(busy), threads*float64(t.elapsed)))
	res.set("core.sweep.imbalance", ratio(float64(maxBusy)*threads, float64(busy)))
}

// attachSpans hangs the engine's own split of one run under the span of
// the call that returned it: the benchmark cannot see below Engine.Run,
// so the sweep driver's I/O-wait and compute times from core.Stats become
// synthetic children and the remainder is the run's self time.
func attachSpans(tr *tracer, runSpan int, st *core.Stats) {
	tr.attach("core.sweep.iowait", runSpan, 0, st.IOWait)
	tr.attach("core.sweep.compute", runSpan, st.IOWait, st.Compute)
}

// memSnapshot and reportSince give the allocation and GC cost of a
// measured phase from runtime.MemStats deltas. The harness allocates in
// the same process (reply parsing, answer checks); that share is the same
// on parent and change.
type memSnapshot struct {
	mallocs, bytes, pauseNS uint64
	at                      time.Time
}

func memNow() memSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnapshot{mallocs: m.Mallocs, bytes: m.TotalAlloc, pauseNS: m.PauseTotalNs, at: time.Now()}
}

func (a memSnapshot) reportSince(res *results, b memSnapshot, queries int) {
	res.set("core.run.allocs_per_query", ratio(float64(a.mallocs-b.mallocs), float64(queries)))
	res.set("core.run.alloc_bytes_per_query", ratio(float64(a.bytes-b.bytes), float64(queries)))
	res.set("core.gc.pause_ms_per_s", ratio(float64(a.pauseNS-b.pauseNS)/1e6, a.at.Sub(b.at).Seconds()))
}
