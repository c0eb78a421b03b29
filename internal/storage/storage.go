// Package storage provides the I/O substrate of the reproduction: a
// software-RAID-0 array of simulated SSDs with an asynchronous, batched
// submission interface shaped like Linux AIO (io_submit / io_getevents),
// which is what G-Store uses to saturate its disk array (§V-B).
//
// The paper's testbed is eight SATA SSDs behind an HBA with 64 KB RAID-0
// striping. Here each simulated disk is a goroutine that serves
// stripe-sized chunks from a shared io.ReaderAt (a real file), optionally
// throttled by a per-disk bandwidth/latency model. The throttle makes
// disk-count scaling (Figure 15) and compute/I/O overlap (the SCR
// pipeline) behave as they do on hardware while keeping experiment
// runtimes in seconds. With Bandwidth == 0 the array is an unthrottled
// asynchronous reader over the page cache.
package storage

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultStripeSize matches the paper's 64 KB software-RAID stripe.
const DefaultStripeSize = 64 << 10

// Options configures an Array.
type Options struct {
	// NumDisks is the number of simulated SSDs (the paper sweeps 1–8).
	NumDisks int
	// StripeSize is the RAID-0 stripe unit in bytes.
	StripeSize int64
	// Bandwidth is the sustained read bandwidth of one disk in bytes per
	// second. Zero disables throttling.
	Bandwidth float64
	// Latency is the fixed per-chunk service latency of one disk.
	Latency time.Duration
}

// DefaultOptions returns an unthrottled single-file array resembling the
// paper's 8-SSD testbed topology.
func DefaultOptions() Options {
	return Options{NumDisks: 8, StripeSize: DefaultStripeSize}
}

func (o *Options) normalize() error {
	if o.NumDisks <= 0 {
		return fmt.Errorf("storage: NumDisks %d must be positive", o.NumDisks)
	}
	if o.StripeSize <= 0 {
		o.StripeSize = DefaultStripeSize
	}
	if o.Bandwidth < 0 || o.Latency < 0 {
		return errors.New("storage: negative bandwidth or latency")
	}
	return nil
}

// Request is one read to be served by the array. The caller provides the
// destination buffer; Tag identifies the request in its Completion.
type Request struct {
	Offset int64
	Buf    []byte
	Tag    int64
}

// Completion reports one finished Request.
type Completion struct {
	Tag int64
	N   int
	Err error
}

// Stats aggregates array counters. All fields are totals since creation.
type Stats struct {
	Requests  int64
	Chunks    int64
	BytesRead int64
	// BusyTime is the summed service time the throttle model charged
	// across all disks (zero when unthrottled).
	BusyTime time.Duration
}

type chunk struct {
	req    *reqState
	offset int64 // offset into the source
	buf    []byte
}

type reqState struct {
	tag       int64
	remaining int32
	n         int32
	err       atomic.Value // error
	// done, when non-nil, receives the completion instead of the array's
	// shared channel (used by ReadSync so it cannot steal async events).
	done chan Completion
}

// Array is a simulated SSD array. Submit and Wait may be used
// concurrently from multiple goroutines.
type Array struct {
	src  io.ReaderAt
	opts Options

	queues      []chan chunk
	completions chan Completion
	wg          sync.WaitGroup
	closed      atomic.Bool

	requests  atomic.Int64
	chunks    atomic.Int64
	bytesRead atomic.Int64
	busyNanos atomic.Int64
	queued    atomic.Int64
	inflight  atomic.Int64
	lat       *latencyHist
}

// NewArray creates an array reading from src.
func NewArray(src io.ReaderAt, opts Options) (*Array, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	a := &Array{
		src:         src,
		opts:        opts,
		queues:      make([]chan chunk, opts.NumDisks),
		completions: make(chan Completion, 4096),
		lat:         newLatencyHist(),
	}
	for i := range a.queues {
		a.queues[i] = make(chan chunk, 1024)
		a.wg.Add(1)
		go a.disk(i)
	}
	return a, nil
}

// disk serves one simulated SSD's queue in order, applying the bandwidth
// and latency model before each chunk's data is delivered.
func (a *Array) disk(i int) {
	defer a.wg.Done()
	var busyUntil time.Time
	for c := range a.queues[i] {
		a.queued.Add(-1)
		a.inflight.Add(1)
		start := time.Now()
		if a.opts.Bandwidth > 0 || a.opts.Latency > 0 {
			service := a.opts.Latency
			if a.opts.Bandwidth > 0 {
				service += time.Duration(float64(len(c.buf)) / a.opts.Bandwidth * float64(time.Second))
			}
			now := time.Now()
			if busyUntil.Before(now) {
				busyUntil = now
			}
			busyUntil = busyUntil.Add(service)
			a.busyNanos.Add(int64(service))
			if d := time.Until(busyUntil); d > 0 {
				time.Sleep(d)
			}
		}
		var n int
		var err error
		if len(c.buf) > 0 {
			n, err = a.src.ReadAt(c.buf, c.offset)
			if err == io.EOF && n == len(c.buf) {
				// ReaderAt may report EOF alongside a complete read.
				err = nil
			}
		}
		a.chunks.Add(1)
		a.bytesRead.Add(int64(n))
		a.lat.observe(time.Since(start))
		a.inflight.Add(-1)
		a.finishChunk(c, n, err)
	}
}

func (a *Array) finishChunk(c chunk, n int, err error) {
	if err != nil {
		c.req.err.CompareAndSwap(nil, err)
	}
	atomic.AddInt32(&c.req.n, int32(n))
	if atomic.AddInt32(&c.req.remaining, -1) == 0 {
		comp := Completion{Tag: c.req.tag, N: int(atomic.LoadInt32(&c.req.n))}
		if e, ok := c.req.err.Load().(error); ok {
			comp.Err = e
		}
		if c.req.done != nil {
			c.req.done <- comp
			return
		}
		a.completions <- comp
	}
}

// Submit enqueues a batch of requests, the counterpart of one io_submit
// call batching many I/Os (§V-B). It returns after queuing; results arrive
// via Wait.
func (a *Array) Submit(reqs []*Request) error {
	if a.closed.Load() {
		return errors.New("storage: submit on closed array")
	}
	for _, r := range reqs {
		a.requests.Add(1)
		st := &reqState{tag: r.Tag}
		chunks := a.split(st, r)
		if len(chunks) == 0 {
			// Zero-length read completes immediately.
			a.completions <- Completion{Tag: r.Tag}
			continue
		}
		atomic.StoreInt32(&st.remaining, int32(len(chunks)))
		a.queued.Add(int64(len(chunks)))
		for _, c := range chunks {
			a.queues[a.diskOf(c.offset)] <- c
		}
	}
	return nil
}

// split cuts a request at stripe boundaries so each chunk maps to exactly
// one disk.
func (a *Array) split(st *reqState, r *Request) []chunk {
	var out []chunk
	off := r.Offset
	buf := r.Buf
	for len(buf) > 0 {
		inStripe := a.opts.StripeSize - off%a.opts.StripeSize
		n := int64(len(buf))
		if n > inStripe {
			n = inStripe
		}
		out = append(out, chunk{req: st, offset: off, buf: buf[:n]})
		off += n
		buf = buf[n:]
	}
	return out
}

// diskOf maps a byte offset to its RAID-0 disk.
func (a *Array) diskOf(offset int64) int {
	return int((offset / a.opts.StripeSize) % int64(a.opts.NumDisks))
}

// Wait blocks until at least min further completions arrive (or the array
// is closed), appends them to out, then drains whatever else is already
// available without blocking — io_getevents-style batching. It returns
// the extended slice.
func (a *Array) Wait(min int, out []Completion) []Completion {
	received := 0
	for received < min {
		c, ok := <-a.completions
		if !ok {
			return out
		}
		out = append(out, c)
		received++
	}
	for {
		select {
		case c, ok := <-a.completions:
			if !ok {
				return out
			}
			out = append(out, c)
		default:
			return out
		}
	}
}

// ReadSync performs one synchronous read through the array: the
// "direct and synchronous POSIX I/O" mode the paper contrasts AIO with.
// It does not consume asynchronous completions.
func (a *Array) ReadSync(offset int64, buf []byte) error {
	if a.closed.Load() {
		return errors.New("storage: read on closed array")
	}
	if len(buf) == 0 {
		return nil
	}
	a.requests.Add(1)
	st := &reqState{tag: -1, done: make(chan Completion, 1)}
	chunks := a.split(st, &Request{Offset: offset, Buf: buf, Tag: -1})
	atomic.StoreInt32(&st.remaining, int32(len(chunks)))
	a.queued.Add(int64(len(chunks)))
	for _, c := range chunks {
		a.queues[a.diskOf(c.offset)] <- c
	}
	return (<-st.done).Err
}

// Stats returns a snapshot of the counters.
func (a *Array) Stats() Stats {
	return Stats{
		Requests:  a.requests.Load(),
		Chunks:    a.chunks.Load(),
		BytesRead: a.bytesRead.Load(),
		BusyTime:  time.Duration(a.busyNanos.Load()),
	}
}

// Readahead implements Device. The simulator has no cache to warm, so
// every hint is dropped.
func (a *Array) Readahead(offset, n int64) {}

// ExtStats implements Device. The simulator issues one physical
// read per stripe chunk, so Spans counts chunks and Coalesced stays
// zero; latency includes the bandwidth model's service time, which is
// the point of comparing it against the file backend.
func (a *Array) ExtStats() ExtStats {
	return ExtStats{
		Backend:    "sim",
		QueueDepth: a.queued.Load(),
		Inflight:   a.inflight.Load(),
		Spans:      a.chunks.Load(),
		Latency:    a.lat.snapshot(),
	}
}

// Close shuts the disk goroutines down. Pending requests are served
// before Close returns, but their completions are dropped if no one is
// draining them — a disk goroutine blocked on a full completion channel
// must not deadlock shutdown. The completion channel is then closed; any
// blocked Wait returns what it has.
func (a *Array) Close() {
	if a.closed.Swap(true) {
		return
	}
	for _, q := range a.queues {
		close(q)
	}
	done := make(chan struct{})
	go func() {
		a.wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-a.completions:
		case <-done:
			close(a.completions)
			return
		}
	}
}
