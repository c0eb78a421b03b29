package storage

import (
	"sort"
	"sync/atomic"
	"time"
)

// Device is the asynchronous block-device contract the engine consumes,
// and the whole of it: every device answers every method, so wrappers
// forward to their inner device and the engine asks its device without
// first finding out what kind it is. Array implements it over the
// simulated SSD model; FileDevice implements it with real positional
// reads against the tiles file; Tiered composes two devices; FaultDevice
// wraps any of them.
type Device interface {
	// Submit enqueues a batch of read requests.
	Submit(reqs []*Request) error
	// Wait blocks for at least min further completions and drains what
	// else is ready.
	Wait(min int, out []Completion) []Completion
	// ReadSync performs one synchronous read.
	ReadSync(offset int64, buf []byte) error
	// Readahead advises the device that the byte range [offset, offset+n)
	// is likely to be read soon (the engine derives these hints from the
	// union of NeedTileNextIter across the batch's live runs). Hints are
	// advisory: a device may drop them (the simulator drops them all),
	// and must never block the caller for the duration of the prefetch
	// or report an error for one.
	Readahead(offset, n int64)
	// Stats snapshots the device counters.
	Stats() Stats
	// ExtStats snapshots the extended counters: queue depth, in-flight
	// reads, request coalescing, the read-latency histogram, and the
	// injected-fault counters. Wrappers forward or merge their inner
	// devices' readings.
	ExtStats() ExtStats
	// Close releases the device.
	Close()
}

var _ Device = (*Array)(nil)

// ReadLatencySeconds are the bucket upper bounds (seconds) of every
// device read-latency histogram, chosen to resolve page-cache hits
// (tens of microseconds) through seek-bound spinning-disk reads.
var ReadLatencySeconds = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 0.1, 0.25, 1,
}

// LatencyStats is a snapshot of a device's read-latency histogram.
// Counts has len(ReadLatencySeconds)+1 entries (the last is +Inf).
type LatencyStats struct {
	Counts  []int64
	SumNano int64
	Count   int64
}

// SumSeconds returns the summed latency in seconds.
func (l LatencyStats) SumSeconds() float64 { return float64(l.SumNano) / 1e9 }

// Sub returns the per-bucket deltas since an earlier snapshot.
func (l LatencyStats) Sub(prev LatencyStats) LatencyStats {
	out := LatencyStats{
		SumNano: l.SumNano - prev.SumNano,
		Count:   l.Count - prev.Count,
		Counts:  make([]int64, len(l.Counts)),
	}
	for i := range l.Counts {
		out.Counts[i] = l.Counts[i]
		if i < len(prev.Counts) {
			out.Counts[i] -= prev.Counts[i]
		}
	}
	return out
}

// Quantile estimates the q-quantile (0..1) of the recorded latencies in
// seconds, attributing each observation to its bucket's upper bound
// (the +Inf bucket reports the largest finite bound).
func (l LatencyStats) Quantile(q float64) float64 {
	if l.Count == 0 || len(l.Counts) == 0 {
		return 0
	}
	rank := int64(q * float64(l.Count-1))
	var cum int64
	for i, c := range l.Counts {
		cum += c
		if cum > rank {
			if i < len(ReadLatencySeconds) {
				return ReadLatencySeconds[i]
			}
			return ReadLatencySeconds[len(ReadLatencySeconds)-1]
		}
	}
	return ReadLatencySeconds[len(ReadLatencySeconds)-1]
}

// ExtStats are the extended per-backend counters the serving path
// exports at /metrics. Queue depth and inflight are instantaneous
// gauges; everything else is a total since device creation.
type ExtStats struct {
	// Backend identifies the implementation: "sim" or "file" (wrappers
	// forward their inner backend's name; Tiered joins both).
	Backend string
	// Mode distinguishes the file backend's read path: "buffered" or
	// "direct" (O_DIRECT). Empty for the simulator.
	Mode string
	// QueueDepth is the number of submitted requests not yet being read.
	QueueDepth int64
	// Inflight is the number of requests currently being read.
	Inflight int64
	// Spans counts physical reads issued (the simulator's per-disk
	// chunks; the file backend's coalesced preads).
	Spans int64
	// Coalesced counts requests absorbed into a shared span read — a
	// batch of k adjacent requests served by one pread contributes k-1.
	Coalesced int64
	// GapBytes counts bytes read only to bridge small gaps between
	// coalesced requests (never delivered to a caller).
	GapBytes int64
	// PadBytes counts bytes read only for O_DIRECT alignment padding.
	PadBytes int64
	// DirectReads counts span reads served through the O_DIRECT
	// descriptor.
	DirectReads int64
	// ReadaheadHints / ReadaheadBytes count accepted readahead hints.
	ReadaheadHints int64
	ReadaheadBytes int64
	// Latency is the read-latency histogram over span reads.
	Latency LatencyStats
	// Faults counts injected faults; zero unless a FaultDevice is in the
	// device stack.
	Faults FaultStats
}

// Sub returns the counter deltas since an earlier snapshot. The
// instantaneous gauges (QueueDepth, Inflight) and identity fields keep
// the receiver's values.
func (s ExtStats) Sub(prev ExtStats) ExtStats {
	out := s
	out.Spans -= prev.Spans
	out.Coalesced -= prev.Coalesced
	out.GapBytes -= prev.GapBytes
	out.PadBytes -= prev.PadBytes
	out.DirectReads -= prev.DirectReads
	out.ReadaheadHints -= prev.ReadaheadHints
	out.ReadaheadBytes -= prev.ReadaheadBytes
	out.Latency = s.Latency.Sub(prev.Latency)
	out.Faults = s.Faults.Sub(prev.Faults)
	return out
}

// latencyHist is the lock-free histogram backing LatencyStats.
type latencyHist struct {
	counts  []atomic.Int64 // len(ReadLatencySeconds)+1
	sumNano atomic.Int64
	count   atomic.Int64
}

func newLatencyHist() *latencyHist {
	return &latencyHist{counts: make([]atomic.Int64, len(ReadLatencySeconds)+1)}
}

func (h *latencyHist) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(ReadLatencySeconds, s)
	h.counts[i].Add(1)
	h.sumNano.Add(int64(d))
	h.count.Add(1)
}

func (h *latencyHist) snapshot() LatencyStats {
	out := LatencyStats{
		Counts:  make([]int64, len(h.counts)),
		SumNano: h.sumNano.Load(),
		Count:   h.count.Load(),
	}
	for i := range h.counts {
		out.Counts[i] = h.counts[i].Load()
	}
	return out
}
