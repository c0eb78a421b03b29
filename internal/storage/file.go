package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FileDevice serves the Device interface with real positional reads
// against a file — the backend that turns the simulator's bandwidth
// model into a hardware measurement. A fixed pool of submitter
// goroutines issues preads (FlashGraph-style user-space async I/O over
// a thread pool); adjacent requests in a submitted batch are coalesced
// into one large read and their completions split back per tag; on
// Linux an optional O_DIRECT descriptor bypasses the page cache using
// sector-aligned pooled buffers, falling back cleanly to buffered reads
// when the filesystem refuses direct I/O (tmpfs, overlayfs, macOS).
type FileDevice struct {
	f      *os.File // buffered descriptor, always open
	df     *os.File // O_DIRECT descriptor, nil unless direct mode is active
	direct atomic.Bool
	opts   FileOptions

	throttle *Throttle

	spans       chan *fileSpan
	completions chan Completion
	wg          sync.WaitGroup
	closed      atomic.Bool

	// ra feeds the portable readahead worker (nil when fadvise-based
	// readahead is available or readahead is disabled).
	ra     chan raHint
	raWG   sync.WaitGroup
	raStop chan struct{}

	bufPool sync.Pool // *[]byte span scratch, capacity-capped

	requests    atomic.Int64
	spanCount   atomic.Int64
	coalesced   atomic.Int64
	bytesRead   atomic.Int64
	gapBytes    atomic.Int64
	padBytes    atomic.Int64
	directReads atomic.Int64
	raHints     atomic.Int64
	raBytes     atomic.Int64
	queued      atomic.Int64
	inflight    atomic.Int64
	lat         *latencyHist
}

// FileOptions configures a FileDevice.
type FileOptions struct {
	// Workers is the submitter goroutine pool size — the effective queue
	// depth against the kernel. Default 4.
	Workers int
	// Direct requests O_DIRECT reads (Linux). When the open or the first
	// read fails with an alignment/support error the device falls back
	// to buffered reads permanently and keeps serving.
	Direct bool
	// Align is the alignment unit for direct I/O offsets, lengths, and
	// buffers. Default 4096.
	Align int64
	// MaxSpanBytes caps one coalesced read. Default 1 MiB.
	MaxSpanBytes int64
	// CoalesceGap is the largest byte gap between two requests still
	// merged into one span (the gap bytes are read and discarded, which
	// beats a second seek for small holes). Default 16 KiB; negative
	// disables coalescing entirely.
	CoalesceGap int64
	// Bandwidth/Latency, when set, charge an aggregate throttle before
	// each span read so the file backend can also model slower media.
	Bandwidth float64
	Latency   time.Duration
}

func (o *FileOptions) normalize() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Align <= 0 {
		o.Align = 4096
	}
	if o.MaxSpanBytes <= 0 {
		o.MaxSpanBytes = 1 << 20
	}
	if o.CoalesceGap == 0 {
		o.CoalesceGap = 16 << 10
	}
}

// spanPart is one caller request inside a coalesced span.
type spanPart struct {
	tag int64
	off int64
	buf []byte
	// done, when non-nil, receives this part's completion instead of the
	// device's shared channel (ReadSync).
	done chan Completion
}

// fileSpan is one physical read: [off, off+length) covering parts.
type fileSpan struct {
	off    int64
	length int64
	parts  []spanPart
}

type raHint struct {
	off int64
	n   int64
}

// NewFileDevice opens path for asynchronous reads.
func NewFileDevice(path string, opts FileOptions) (*FileDevice, error) {
	opts.normalize()
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open file backend: %w", err)
	}
	d := &FileDevice{
		f:           f,
		opts:        opts,
		spans:       make(chan *fileSpan, 1024),
		completions: make(chan Completion, 4096),
		raStop:      make(chan struct{}),
		lat:         newLatencyHist(),
	}
	// Span scratch is sized so a MaxSpanBytes span still fits after both
	// ends are expanded to direct-I/O alignment.
	d.bufPool.New = func() any {
		b := alignedBuf(int(opts.MaxSpanBytes+2*opts.Align), int(opts.Align))
		return &b
	}
	if opts.Bandwidth > 0 || opts.Latency > 0 {
		d.throttle = &Throttle{Bandwidth: opts.Bandwidth, Latency: opts.Latency}
	}
	if opts.Direct {
		if df, derr := openDirect(path); derr == nil {
			d.df = df
			d.direct.Store(true)
		}
		// Open failure (unsupported OS/filesystem) silently degrades to
		// buffered mode; ExtStats.Mode reports which path is live.
	}
	if !fadviseSupported {
		d.ra = make(chan raHint, 64)
		d.raWG.Add(1)
		go d.readaheadWorker()
	}
	for i := 0; i < opts.Workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	return d, nil
}

// alignedBuf returns a length-n slice whose base address is a multiple
// of align, as O_DIRECT requires of user buffers.
func alignedBuf(n, align int) []byte {
	b := make([]byte, n+align)
	shift := 0
	if r := int(uintptrOf(b) % uintptr(align)); r != 0 {
		shift = align - r
	}
	return b[shift : shift+n : shift+n]
}

// Submit implements Device: the batch is sorted by offset, merged into
// coalesced spans, and queued to the worker pool.
func (d *FileDevice) Submit(reqs []*Request) error {
	if d.closed.Load() {
		return errors.New("storage: submit on closed file device")
	}
	parts := make([]spanPart, 0, len(reqs))
	for _, r := range reqs {
		d.requests.Add(1)
		if len(r.Buf) == 0 {
			d.completions <- Completion{Tag: r.Tag}
			continue
		}
		parts = append(parts, spanPart{tag: r.Tag, off: r.Offset, buf: r.Buf})
	}
	for _, s := range d.coalesce(parts) {
		d.queued.Add(int64(len(s.parts)))
		d.spans <- s
	}
	return nil
}

// coalesce sorts parts by offset and greedily merges neighbours whose
// gap is at most CoalesceGap, keeping each span under MaxSpanBytes.
// Requests tagged out of order still land in offset-ordered spans; the
// demux in serve restores per-tag accounting.
func (d *FileDevice) coalesce(parts []spanPart) []*fileSpan {
	if len(parts) == 0 {
		return nil
	}
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].off < parts[j].off })
	var out []*fileSpan
	cur := &fileSpan{off: parts[0].off, length: int64(len(parts[0].buf)), parts: parts[0:1:1]}
	for _, p := range parts[1:] {
		end := cur.off + cur.length
		grown := p.off + int64(len(p.buf)) - cur.off
		if grown < cur.length {
			grown = cur.length // p nested inside the current span
		}
		if d.opts.CoalesceGap >= 0 && p.off <= end+d.opts.CoalesceGap && grown <= d.opts.MaxSpanBytes {
			if p.off > end {
				d.gapBytes.Add(p.off - end)
			}
			cur.length = grown
			cur.parts = append(cur.parts, p)
			d.coalesced.Add(1)
			continue
		}
		out = append(out, cur)
		cur = &fileSpan{off: p.off, length: int64(len(p.buf)), parts: []spanPart{p}}
	}
	return append(out, cur)
}

func (d *FileDevice) worker() {
	defer d.wg.Done()
	var comps []Completion
	for s := range d.spans {
		n := int64(len(s.parts))
		d.queued.Add(-n)
		d.inflight.Add(n)
		d.throttle.Charge(s.length)
		start := time.Now()
		comps = d.serve(s, comps[:0])
		d.lat.observe(time.Since(start))
		// Decrement inflight before delivery so a caller observing its
		// completion never sees its own request still counted.
		d.inflight.Add(-n)
		for i, c := range comps {
			d.deliver(s.parts[i], c)
		}
	}
}

// serve performs the span's physical read and demultiplexes the bytes
// back to each part's buffer, appending one completion per part (in
// part order) to out.
func (d *FileDevice) serve(s *fileSpan, out []Completion) []Completion {
	d.spanCount.Add(1)
	// Single buffered request: read straight into the caller's buffer.
	if len(s.parts) == 1 && !d.direct.Load() {
		p := s.parts[0]
		n, err := d.f.ReadAt(p.buf, p.off)
		d.bytesRead.Add(int64(n))
		return append(out, Completion{Tag: p.tag, N: n, Err: normalizeEOF(n, len(p.buf), err)})
	}
	bp := d.bufPool.Get().(*[]byte)
	data, n, err := d.readSpan(s.off, s.length, *bp)
	for _, p := range s.parts {
		rel := p.off - s.off
		got := n - rel
		if got < 0 {
			got = 0
		}
		if got > int64(len(p.buf)) {
			got = int64(len(p.buf))
		}
		copy(p.buf[:got], data[rel:rel+got])
		d.bytesRead.Add(got)
		perr := err
		if got == int64(len(p.buf)) {
			// Fully delivered parts succeed even when the span's tail hit
			// EOF or an error — same semantics as an uncoalesced read.
			perr = nil
		} else if perr == nil {
			perr = io.ErrUnexpectedEOF
		}
		out = append(out, Completion{Tag: p.tag, N: int(got), Err: perr})
	}
	if cap(*bp) <= int(d.opts.MaxSpanBytes+2*d.opts.Align) {
		d.bufPool.Put(bp)
	}
	return out
}

// readSpan reads length bytes at off into scratch, honouring direct
// mode: offsets and lengths are expanded to alignment, read through the
// O_DIRECT descriptor, and the view narrowed back. It returns the data
// view, the byte count actually available for the requested range, and
// the read error (io.EOF for short reads at end of file).
func (d *FileDevice) readSpan(off, length int64, scratch []byte) ([]byte, int64, error) {
	if d.direct.Load() {
		align := d.opts.Align
		aoff := off &^ (align - 1)
		aend := (off + length + align - 1) &^ (align - 1)
		if alen := aend - aoff; alen <= int64(len(scratch)) {
			m, err := d.df.ReadAt(scratch[:alen], aoff)
			if err != nil && !errors.Is(err, io.EOF) {
				// Filesystem refused the direct read (EINVAL on tmpfs and
				// friends): permanently fall back to buffered mode.
				d.direct.Store(false)
			} else {
				d.directReads.Add(1)
				d.padBytes.Add(alen - length)
				avail := int64(m) - (off - aoff)
				if avail < 0 {
					avail = 0
				}
				if avail > length {
					avail = length
				}
				return scratch[off-aoff:], avail, normalizeEOF64(avail, length, err)
			}
		}
	}
	m, err := d.f.ReadAt(scratch[:length], off)
	return scratch, int64(m), normalizeEOF(m, int(length), err)
}

func normalizeEOF(n, want int, err error) error {
	if err == io.EOF && n == want {
		return nil
	}
	return err
}

func normalizeEOF64(n, want int64, err error) error {
	if errors.Is(err, io.EOF) && n < want {
		return io.EOF
	}
	if n == want {
		return nil
	}
	return err
}

func (d *FileDevice) deliver(p spanPart, c Completion) {
	if p.done != nil {
		p.done <- c
		return
	}
	d.completions <- c
}

// Wait implements Device with the same min-then-drain contract as Array.
func (d *FileDevice) Wait(min int, out []Completion) []Completion {
	received := 0
	for received < min {
		c, ok := <-d.completions
		if !ok {
			return out
		}
		out = append(out, c)
		received++
	}
	for {
		select {
		case c, ok := <-d.completions:
			if !ok {
				return out
			}
			out = append(out, c)
		default:
			return out
		}
	}
}

// ReadSync implements Device: one synchronous read through the worker
// pool (so it respects the throttle and counters) without consuming
// asynchronous completions.
func (d *FileDevice) ReadSync(offset int64, buf []byte) error {
	if d.closed.Load() {
		return errors.New("storage: read on closed file device")
	}
	if len(buf) == 0 {
		return nil
	}
	d.requests.Add(1)
	done := make(chan Completion, 1)
	d.queued.Add(1)
	d.spans <- &fileSpan{off: offset, length: int64(len(buf)),
		parts: []spanPart{{tag: -1, off: offset, buf: buf, done: done}}}
	return (<-done).Err
}

// Readahead implements Device: it advises the kernel (fadvise
// WILLNEED on Linux) or schedules a background warm read elsewhere.
// Direct mode drops hints — there is no cache to warm.
func (d *FileDevice) Readahead(offset, n int64) {
	if n <= 0 || d.closed.Load() || d.direct.Load() {
		return
	}
	d.raHints.Add(1)
	d.raBytes.Add(n)
	if fadviseSupported {
		fadviseWillNeed(d.f, offset, n)
		return
	}
	select {
	case d.ra <- raHint{off: offset, n: n}:
	default: // drop when the warm-read worker is saturated
	}
}

// readaheadWorker is the portable fallback: it pulls the hinted ranges
// through the page cache with discarded sequential reads.
func (d *FileDevice) readaheadWorker() {
	defer d.raWG.Done()
	buf := make([]byte, 256<<10)
	for {
		select {
		case <-d.raStop:
			return
		case h := <-d.ra:
			for h.n > 0 {
				step := int64(len(buf))
				if step > h.n {
					step = h.n
				}
				if _, err := d.f.ReadAt(buf[:step], h.off); err != nil {
					break
				}
				h.off += step
				h.n -= step
			}
		}
	}
}

// Stats implements Device. Chunks counts physical span reads so the
// coalescing ratio is Requests/Chunks, mirroring the simulator's
// request-to-chunk fan-out in the opposite direction.
func (d *FileDevice) Stats() Stats {
	return Stats{
		Requests:  d.requests.Load(),
		Chunks:    d.spanCount.Load(),
		BytesRead: d.bytesRead.Load(),
		BusyTime:  d.throttle.BusyTime(),
	}
}

// ExtStats implements Device.
func (d *FileDevice) ExtStats() ExtStats {
	mode := "buffered"
	if d.direct.Load() {
		mode = "direct"
	}
	return ExtStats{
		Backend:        "file",
		Mode:           mode,
		QueueDepth:     d.queued.Load(),
		Inflight:       d.inflight.Load(),
		Spans:          d.spanCount.Load(),
		Coalesced:      d.coalesced.Load(),
		GapBytes:       d.gapBytes.Load(),
		PadBytes:       d.padBytes.Load(),
		DirectReads:    d.directReads.Load(),
		ReadaheadHints: d.raHints.Load(),
		ReadaheadBytes: d.raBytes.Load(),
		Latency:        d.lat.snapshot(),
	}
}

// Close implements Device with Array's contract: queued spans are
// served, undrained completions dropped, then the completion channel is
// closed so a blocked Wait returns what it has.
func (d *FileDevice) Close() {
	if d.closed.Swap(true) {
		return
	}
	close(d.spans)
	close(d.raStop)
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		d.raWG.Wait()
		close(done)
	}()
	for {
		select {
		case <-d.completions:
		case <-done:
			close(d.completions)
			d.f.Close()
			if d.df != nil {
				d.df.Close()
			}
			return
		}
	}
}
