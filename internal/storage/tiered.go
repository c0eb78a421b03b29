package storage

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Tiered is the tiered store of the paper's future work (§IX): bytes
// below Boundary live on a fast device (the SSD array), bytes at or above
// it on a slow one (a set of hard drives). Requests spanning the boundary
// are split and their completions merged.
type Tiered struct {
	fast, slow Device
	boundary   int64

	completions chan Completion
	pumps       sync.WaitGroup
	nextID      atomic.Int64
	pending     sync.Map // internal id -> *tieredReq
	closed      atomic.Bool
}

type tieredReq struct {
	tag       int64
	remaining int32
	n         int32
	err       atomic.Value
}

// NewTiered builds a tiered device. It takes ownership of fast and slow:
// Close closes both.
func NewTiered(fast, slow Device, boundary int64) (*Tiered, error) {
	if boundary < 0 {
		return nil, errors.New("storage: negative tier boundary")
	}
	t := &Tiered{fast: fast, slow: slow, boundary: boundary,
		completions: make(chan Completion, 4096)}
	for _, d := range []Device{fast, slow} {
		t.pumps.Add(1)
		go t.pump(d)
	}
	return t, nil
}

// pump forwards one sub-device's completions into the merged channel.
func (t *Tiered) pump(d Device) {
	defer t.pumps.Done()
	for {
		comps := d.Wait(1, nil)
		if len(comps) == 0 {
			return // device closed
		}
		for _, c := range comps {
			v, ok := t.pending.Load(c.Tag)
			if !ok {
				continue
			}
			req := v.(*tieredReq)
			if c.Err != nil {
				req.err.CompareAndSwap(nil, c.Err)
			}
			atomic.AddInt32(&req.n, int32(c.N))
			if atomic.AddInt32(&req.remaining, -1) == 0 {
				t.pending.Delete(c.Tag)
				out := Completion{Tag: req.tag, N: int(atomic.LoadInt32(&req.n))}
				if e, ok := req.err.Load().(error); ok {
					out.Err = e
				}
				t.completions <- out
			}
		}
	}
}

// split cuts a request at the tier boundary.
func (t *Tiered) split(r *Request) (fast, slow *Request) {
	end := r.Offset + int64(len(r.Buf))
	switch {
	case end <= t.boundary:
		return r, nil
	case r.Offset >= t.boundary:
		return nil, r
	default:
		cut := t.boundary - r.Offset
		return &Request{Offset: r.Offset, Buf: r.Buf[:cut]},
			&Request{Offset: t.boundary, Buf: r.Buf[cut:]}
	}
}

// Submit implements Device.
func (t *Tiered) Submit(reqs []*Request) error {
	if t.closed.Load() {
		return errors.New("storage: submit on closed tiered device")
	}
	var toFast, toSlow []*Request
	for _, r := range reqs {
		f, s := t.split(r)
		parts := 0
		if f != nil {
			parts++
		}
		if s != nil {
			parts++
		}
		if parts == 0 {
			t.completions <- Completion{Tag: r.Tag}
			continue
		}
		st := &tieredReq{tag: r.Tag, remaining: int32(parts)}
		if f != nil {
			id := t.nextID.Add(1)
			t.pending.Store(id, st)
			toFast = append(toFast, &Request{Offset: f.Offset, Buf: f.Buf, Tag: id})
		}
		if s != nil {
			id := t.nextID.Add(1)
			t.pending.Store(id, st)
			toSlow = append(toSlow, &Request{Offset: s.Offset, Buf: s.Buf, Tag: id})
		}
	}
	if len(toFast) > 0 {
		if err := t.fast.Submit(toFast); err != nil {
			return err
		}
	}
	if len(toSlow) > 0 {
		if err := t.slow.Submit(toSlow); err != nil {
			return err
		}
	}
	return nil
}

// Wait implements Device.
func (t *Tiered) Wait(min int, out []Completion) []Completion {
	received := 0
	for received < min {
		c, ok := <-t.completions
		if !ok {
			return out
		}
		out = append(out, c)
		received++
	}
	for {
		select {
		case c, ok := <-t.completions:
			if !ok {
				return out
			}
			out = append(out, c)
		default:
			return out
		}
	}
}

// ReadSync implements Device.
func (t *Tiered) ReadSync(offset int64, buf []byte) error {
	f, s := t.split(&Request{Offset: offset, Buf: buf})
	if f != nil {
		if err := t.fast.ReadSync(f.Offset, f.Buf); err != nil {
			return err
		}
	}
	if s != nil {
		return t.slow.ReadSync(s.Offset, s.Buf)
	}
	return nil
}

// Stats implements Device, summing both tiers.
func (t *Tiered) Stats() Stats {
	fs, ss := t.fast.Stats(), t.slow.Stats()
	return Stats{
		Requests:  fs.Requests + ss.Requests,
		Chunks:    fs.Chunks + ss.Chunks,
		BytesRead: fs.BytesRead + ss.BytesRead,
		BusyTime:  fs.BusyTime + ss.BusyTime,
	}
}

// TierStats returns the per-tier counters.
func (t *Tiered) TierStats() (fast, slow Stats) {
	return t.fast.Stats(), t.slow.Stats()
}

// ExtStats implements Device, merging both tiers' counters.
func (t *Tiered) ExtStats() ExtStats {
	out, ss := t.fast.ExtStats(), t.slow.ExtStats()
	if ss.Mode != "" && ss.Mode != out.Mode {
		out.Mode += "+" + ss.Mode
	}
	out.Backend += "+" + ss.Backend
	out.QueueDepth += ss.QueueDepth
	out.Inflight += ss.Inflight
	out.Spans += ss.Spans
	out.Coalesced += ss.Coalesced
	out.GapBytes += ss.GapBytes
	out.PadBytes += ss.PadBytes
	out.DirectReads += ss.DirectReads
	out.ReadaheadHints += ss.ReadaheadHints
	out.ReadaheadBytes += ss.ReadaheadBytes
	out.Latency = addLatency(out.Latency, ss.Latency)
	out.Faults = out.Faults.add(ss.Faults)
	return out
}

func addLatency(a, b LatencyStats) LatencyStats {
	out := LatencyStats{
		SumNano: a.SumNano + b.SumNano,
		Count:   a.Count + b.Count,
	}
	n := len(a.Counts)
	if len(b.Counts) > n {
		n = len(b.Counts)
	}
	out.Counts = make([]int64, n)
	for i := range out.Counts {
		if i < len(a.Counts) {
			out.Counts[i] += a.Counts[i]
		}
		if i < len(b.Counts) {
			out.Counts[i] += b.Counts[i]
		}
	}
	return out
}

// Readahead implements Device, forwarding the hinted range to the
// tier(s) that own it.
func (t *Tiered) Readahead(offset, n int64) {
	end := offset + n
	if offset < t.boundary {
		t.fast.Readahead(offset, min(end, t.boundary)-offset)
	}
	if end > t.boundary {
		so := max(offset, t.boundary)
		t.slow.Readahead(so, end-so)
	}
}

// Close implements Device. As with Array.Close, pending merged
// completions are dropped if no one is draining them, so a pump blocked
// on a full channel cannot deadlock shutdown.
func (t *Tiered) Close() {
	if t.closed.Swap(true) {
		return
	}
	t.fast.Close()
	t.slow.Close()
	done := make(chan struct{})
	go func() {
		t.pumps.Wait()
		close(done)
	}()
	for {
		select {
		case <-t.completions:
		case <-done:
			close(t.completions)
			return
		}
	}
}
