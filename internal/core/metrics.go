package core

import (
	"strconv"

	"github.com/gwu-systems/gstore/internal/metrics"
	"github.com/gwu-systems/gstore/internal/storage"
)

// RunSecondsBuckets are the histogram bounds for whole-run latency:
// engine runs range from sub-millisecond (all-cached reruns) to minutes
// (semi-external scans), wider than HTTP-level defaults.
var RunSecondsBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 300,
}

// PublishStats mirrors one run's statistics into registry r under the
// given graph label. What the sweep attributed to the run alone
// (iterations, tiles, bytes read, retries) accumulates across runs. What
// the engine counts over its lifetime — storage, memory manager,
// injected faults, unattributed bytes, per-worker time — is set from the
// totals the run was sealed with, because co-scheduled runs see
// overlapping windows of it; Counter.Set never moves a series backwards,
// so concurrent publishers holding totals of different ages converge on
// the newest. Safe to call from concurrent runs.
func PublishStats(r *metrics.Registry, graph string, st *Stats) {
	if r == nil || st == nil {
		return
	}
	g := metrics.L("graph", graph)

	// Per-run deltas, accumulated across runs.
	r.Counter("gstore_engine_iterations_total",
		"Algorithm iterations executed.", g).Add(int64(st.Iterations))
	r.Counter("gstore_engine_tiles_processed_total",
		"Tiles handed to workers.", g).Add(st.TilesProcessed)
	r.Counter("gstore_engine_tiles_from_cache_total",
		"Tiles served by the rewind from the cache pool.", g).Add(st.TilesFromCache)
	r.Counter("gstore_engine_tiles_skipped_total",
		"Tiles skipped by selective fetching.", g).Add(st.TilesSkipped)
	r.Counter("gstore_engine_bytes_read_total",
		"Bytes read from storage by runs.", g).Add(st.BytesRead)
	r.Counter("gstore_engine_io_requests_total",
		"Storage read requests issued by runs.", g).Add(st.IORequests)
	r.Counter("gstore_engine_io_failures_total",
		"Failed or short read attempts observed.", g).Add(st.IOFailures)
	r.Counter("gstore_engine_io_retries_total",
		"Read requests re-submitted after a failure.", g).Add(st.Retries)
	r.Counter("gstore_engine_tiles_verified_total",
		"Tiles whose CRC32C was checked on the read path.", g).Add(st.TilesVerified)
	r.Counter("gstore_engine_checksum_mismatches_total",
		"Tile checksum mismatches observed (recovered or fatal).", g).Add(st.ChecksumMismatches)
	r.Counter("gstore_engine_integrity_errors_total",
		"Runs failed by persistent tile corruption.", g).Add(st.IntegrityErrors)
	r.Counter("gstore_engine_iowait_microseconds_total",
		"Microseconds the scheduler blocked on completions.", g).
		Add(st.IOWait.Microseconds())
	r.Counter("gstore_engine_compute_microseconds_total",
		"Microseconds spent processing tiles.", g).
		Add(st.Compute.Microseconds())
	r.Counter("gstore_engine_chunks_total",
		"Work items (tile chunks) dispatched to workers.", g).Add(st.Chunks)
	r.Counter("gstore_engine_delta_tiles_total",
		"Dispatched tiles merged with the mutable delta layer.", g).Add(st.DeltaTiles)
	if st.Imbalance > 0 {
		// The chunked-dispatch win is max/mean worker busy time near 1.0
		// instead of the worker count on skewed segments.
		r.FloatGauge("gstore_engine_compute_imbalance",
			"Max/mean worker busy time of the last run (1.0 = perfectly balanced).", g).
			Set(st.Imbalance)
	}

	// Engine-lifetime cumulative counters, republished after every run.
	tot := &st.Totals
	r.Counter("gstore_engine_unattributed_bytes_total",
		"Fetched tile bytes whose interested runs all finished before dispatch.", g).
		Set(tot.UnattributedBytes)
	for w, d := range tot.WorkerBusy {
		wl := metrics.L("worker", strconv.Itoa(w))
		r.Counter("gstore_engine_worker_busy_microseconds_total",
			"Microseconds each worker spent inside kernel code.", g, wl).
			Set(d.Microseconds())
		r.Counter("gstore_engine_worker_chunks_total",
			"Work items processed by each worker.", g, wl).
			Set(tot.WorkerChunks[w])
	}
	r.Counter("gstore_engine_faults_injected_errors_total",
		"Injected read errors observed (zero without a FaultDevice).", g).Set(tot.IO.Faults.Errors)
	r.Counter("gstore_engine_faults_injected_shorts_total",
		"Injected short reads observed.", g).Set(tot.IO.Faults.Shorts)
	r.Counter("gstore_engine_faults_injected_corruptions_total",
		"Injected silent buffer corruptions observed.", g).Set(tot.IO.Faults.Corruptions)
	r.Counter("gstore_storage_bytes_read_total",
		"Cumulative bytes read by the graph's storage array.", g).
		Set(st.Storage.BytesRead)
	r.Counter("gstore_storage_requests_total",
		"Cumulative requests served by the graph's storage array.", g).
		Set(st.Storage.Requests)
	r.Counter("gstore_mem_copied_bytes_total",
		"Bytes copied into the cache pool since engine start.", g).
		Set(st.Mem.CopiedBytes)
	r.Counter("gstore_mem_evicted_tiles_total",
		"Tiles evicted by pool compactions since engine start.", g).
		Set(st.Mem.EvictedTiles)
	r.Counter("gstore_mem_dropped_tiles_total",
		"Tiles dropped for lack of pool space since engine start.", g).
		Set(st.Mem.DroppedTiles)
	r.Counter("gstore_mem_compactions_total",
		"Pool compactions since engine start.", g).
		Set(st.Mem.Compactions)

	// Extended backend counters: present when the device tracks them
	// (sim and file both do; wrappers forward). Labeled by backend so a
	// daemon serving graphs on different backends keeps them apart.
	if io := &tot.IO; io.Backend != "" {
		b := metrics.L("backend", io.Backend)
		r.Gauge("gstore_storage_queue_depth",
			"Requests submitted to the backend but not yet being read.", g, b).
			Set(io.QueueDepth)
		r.Gauge("gstore_storage_inflight",
			"Requests the backend is reading right now.", g, b).
			Set(io.Inflight)
		r.Counter("gstore_storage_spans_total",
			"Physical reads issued (per-disk chunks on sim, coalesced preads on file).", g, b).
			Set(io.Spans)
		r.Counter("gstore_storage_coalesced_requests_total",
			"Requests absorbed into a shared coalesced read.", g, b).
			Set(io.Coalesced)
		r.Counter("gstore_storage_readahead_bytes_total",
			"Bytes covered by accepted readahead hints.", g, b).
			Set(io.ReadaheadBytes)
		r.Histogram("gstore_storage_read_seconds",
			"Physical read latency by backend.", storage.ReadLatencySeconds, g, b).
			Set(io.Latency.Counts, io.Latency.SumSeconds())
	}

	r.Histogram("gstore_engine_run_seconds",
		"Whole-run latency by graph.", RunSecondsBuckets, g).
		Observe(st.Elapsed.Seconds())
}
