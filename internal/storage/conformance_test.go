package storage

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The conformance suite pins the Device contract every backend must
// satisfy identically: completion-per-request regardless of submit
// order, Array's EOF semantics for short reads, zero-length requests,
// ReadSync correctness, stats monotonicity, extended and injected-fault
// counters that forward through every wrapper, readahead hints that
// never block or fail, and deadlock-free Close with requests in flight.

const confSize = 1 << 20

func confData() []byte {
	data := make([]byte, confSize)
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	return data
}

// confFile writes the shared test pattern to a real file once per test.
func confFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "conf.tiles")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// confBackends returns a factory per backend so destructive subtests
// (Close during inflight) get their own instance.
func confBackends(t *testing.T, data []byte) map[string]func(t *testing.T) Device {
	t.Helper()
	return map[string]func(t *testing.T) Device{
		"array": func(t *testing.T) Device {
			a, err := NewArray(bytes.NewReader(data), Options{NumDisks: 4, StripeSize: 4096})
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"file": func(t *testing.T) Device {
			d, err := NewFileDevice(confFile(t, data), FileOptions{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"file-direct": func(t *testing.T) Device {
			// Direct mode either works or transparently falls back to
			// buffered reads (tmpfs); the contract holds either way.
			d, err := NewFileDevice(confFile(t, data), FileOptions{Workers: 2, Direct: true})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"fault-wrapped-file": func(t *testing.T) Device {
			inner, err := NewFileDevice(confFile(t, data), FileOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFaultDevice(inner, FaultConfig{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
		"fault-wrapped-array": func(t *testing.T) Device {
			inner, err := NewArray(bytes.NewReader(data), Options{NumDisks: 2, StripeSize: 8192})
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFaultDevice(inner, FaultConfig{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
		"tiered": func(t *testing.T) Device { return confTiered(t, data) },
		"fault-wrapped-tiered": func(t *testing.T) Device {
			f, err := NewFaultDevice(confTiered(t, data), FaultConfig{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	}
}

// confTiered is a file device below the midpoint and a simulated array
// above it.
func confTiered(t *testing.T, data []byte) *Tiered {
	t.Helper()
	fast, err := NewFileDevice(confFile(t, data), FileOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewArray(bytes.NewReader(data), Options{NumDisks: 2, StripeSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ti, err := NewTiered(fast, slow, confSize/2)
	if err != nil {
		t.Fatal(err)
	}
	return ti
}

func TestDeviceConformance(t *testing.T) {
	data := confData()
	for name, mk := range confBackends(t, data) {
		t.Run(name, func(t *testing.T) {
			t.Run("SubmitWaitAllTags", func(t *testing.T) {
				d := mk(t)
				defer d.Close()
				confSubmitWait(t, d, data)
			})
			t.Run("ShortReadAtEOF", func(t *testing.T) {
				d := mk(t)
				defer d.Close()
				confShortAtEOF(t, d, data)
			})
			t.Run("ZeroLength", func(t *testing.T) {
				d := mk(t)
				defer d.Close()
				confZeroLength(t, d)
			})
			t.Run("ReadSync", func(t *testing.T) {
				d := mk(t)
				defer d.Close()
				confReadSync(t, d, data)
			})
			t.Run("StatsMonotone", func(t *testing.T) {
				d := mk(t)
				defer d.Close()
				confStatsMonotone(t, d, data)
			})
			t.Run("ExtStats", func(t *testing.T) {
				d := mk(t)
				defer d.Close()
				confExtStats(t, d, strings.HasPrefix(name, "fault-"))
			})
			t.Run("Readahead", func(t *testing.T) {
				d := mk(t)
				defer d.Close()
				confReadahead(t, d, data)
			})
			t.Run("CloseDuringInflight", func(t *testing.T) {
				confCloseInflight(t, mk(t))
			})
			t.Run("SubmitAfterClose", func(t *testing.T) {
				d := mk(t)
				d.Close()
				buf := make([]byte, 16)
				if err := d.Submit([]*Request{{Offset: 0, Buf: buf, Tag: 1}}); err == nil {
					t.Fatal("Submit on a closed device should error")
				}
				if err := d.ReadSync(0, buf); err == nil {
					t.Fatal("ReadSync on a closed device should error")
				}
			})
		})
	}
}

// confSubmitWait submits a shuffled batch of in-bounds reads and checks
// exactly one completion per tag with the right bytes, regardless of
// submission or completion order.
func confSubmitWait(t *testing.T, d Device, data []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	const n = 64
	reqs := make([]*Request, 0, n)
	bufs := make(map[int64][]byte, n)
	offs := make(map[int64]int64, n)
	for tag := int64(0); tag < n; tag++ {
		size := 1 + rng.Intn(16<<10)
		off := rng.Int63n(confSize - int64(size))
		buf := make([]byte, size)
		bufs[tag] = buf
		offs[tag] = off
		reqs = append(reqs, &Request{Offset: off, Buf: buf, Tag: tag})
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	if err := d.Submit(reqs); err != nil {
		t.Fatal(err)
	}
	comps := d.Wait(n, nil)
	if len(comps) != n {
		t.Fatalf("got %d completions, want %d", len(comps), n)
	}
	seen := make(map[int64]bool, n)
	for _, c := range comps {
		if seen[c.Tag] {
			t.Fatalf("tag %d completed twice", c.Tag)
		}
		seen[c.Tag] = true
		if c.Err != nil {
			t.Fatalf("tag %d: unexpected error %v", c.Tag, c.Err)
		}
		buf := bufs[c.Tag]
		if c.N != len(buf) {
			t.Fatalf("tag %d: N=%d want %d", c.Tag, c.N, len(buf))
		}
		off := offs[c.Tag]
		if !bytes.Equal(buf, data[off:off+int64(len(buf))]) {
			t.Fatalf("tag %d: wrong bytes at offset %d", c.Tag, off)
		}
	}
}

// confShortAtEOF checks the Array EOF contract: a request straddling
// the end of the data completes with N = available bytes and io.EOF; a
// request entirely past the end completes with N=0 and io.EOF.
func confShortAtEOF(t *testing.T, d Device, data []byte) {
	t.Helper()
	straddle := make([]byte, 4096)
	past := make([]byte, 512)
	reqs := []*Request{
		{Offset: confSize - 1000, Buf: straddle, Tag: 1},
		{Offset: confSize + 4096, Buf: past, Tag: 2},
	}
	if err := d.Submit(reqs); err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Wait(2, nil) {
		switch c.Tag {
		case 1:
			if c.N != 1000 || !errors.Is(c.Err, io.EOF) {
				t.Fatalf("straddling read: N=%d err=%v, want N=1000 io.EOF", c.N, c.Err)
			}
			if !bytes.Equal(straddle[:1000], data[confSize-1000:]) {
				t.Fatal("straddling read returned wrong bytes")
			}
		case 2:
			if c.N != 0 || !errors.Is(c.Err, io.EOF) {
				t.Fatalf("past-EOF read: N=%d err=%v, want N=0 io.EOF", c.N, c.Err)
			}
		default:
			t.Fatalf("unexpected tag %d", c.Tag)
		}
	}
}

func confZeroLength(t *testing.T, d Device) {
	t.Helper()
	if err := d.Submit([]*Request{{Offset: 128, Tag: 9}}); err != nil {
		t.Fatal(err)
	}
	comps := d.Wait(1, nil)
	if len(comps) != 1 || comps[0].Tag != 9 || comps[0].N != 0 || comps[0].Err != nil {
		t.Fatalf("zero-length request: got %+v", comps)
	}
	if err := d.ReadSync(128, nil); err != nil {
		t.Fatalf("zero-length ReadSync: %v", err)
	}
}

func confReadSync(t *testing.T, d Device, data []byte) {
	t.Helper()
	buf := make([]byte, 8192)
	if err := d.ReadSync(12345, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[12345:12345+8192]) {
		t.Fatal("ReadSync returned wrong bytes")
	}
	if err := d.ReadSync(confSize-10, make([]byte, 100)); err == nil {
		t.Fatal("ReadSync past EOF should error")
	}
}

// confStatsMonotone checks that counters never decrease and that a
// round of reads is reflected in Requests and BytesRead.
func confStatsMonotone(t *testing.T, d Device, data []byte) {
	t.Helper()
	prev := d.Stats()
	for round := 0; round < 3; round++ {
		var reqs []*Request
		total := 0
		for i := 0; i < 8; i++ {
			buf := make([]byte, 2048)
			total += len(buf)
			reqs = append(reqs, &Request{Offset: int64(i) * 4096, Buf: buf, Tag: int64(i)})
		}
		if err := d.Submit(reqs); err != nil {
			t.Fatal(err)
		}
		d.Wait(len(reqs), nil)
		cur := d.Stats()
		if cur.Requests < prev.Requests+int64(len(reqs)) {
			t.Fatalf("round %d: Requests %d did not grow by %d from %d",
				round, cur.Requests, len(reqs), prev.Requests)
		}
		if cur.BytesRead < prev.BytesRead+int64(total) {
			t.Fatalf("round %d: BytesRead %d did not grow by %d from %d",
				round, cur.BytesRead, total, prev.BytesRead)
		}
		if cur.Chunks < prev.Chunks {
			t.Fatalf("round %d: Chunks decreased %d -> %d", round, prev.Chunks, cur.Chunks)
		}
		prev = cur
	}
}

// confExtStats checks the extended counters every device answers: a
// named backend, an idle queue, one latency observation per physical
// read, window deltas through Sub, and injected-fault counters that are
// zero without a FaultDevice in the stack and count every request that
// passed through one.
func confExtStats(t *testing.T, d Device, faulty bool) {
	t.Helper()
	start := d.ExtStats()
	if start.Backend == "" {
		t.Fatal("ExtStats names no backend")
	}
	const n = 8
	var reqs []*Request
	for i := 0; i < n; i++ {
		// Offsets on both sides of the tiered boundary.
		reqs = append(reqs, &Request{Offset: int64(i) * (confSize / n), Buf: make([]byte, 2048), Tag: int64(i)})
	}
	if err := d.Submit(reqs); err != nil {
		t.Fatal(err)
	}
	d.Wait(n, nil)
	if err := d.ReadSync(0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	es := d.ExtStats()
	if es.QueueDepth != 0 || es.Inflight != 0 {
		t.Fatalf("idle device reports queue depth %d inflight %d", es.QueueDepth, es.Inflight)
	}
	delta := es.Sub(start)
	if delta.Spans <= 0 || delta.Latency.Count != delta.Spans {
		t.Fatalf("window saw %d spans and %d latency observations, want equal and positive",
			delta.Spans, delta.Latency.Count)
	}
	want := FaultStats{}
	if faulty {
		want.Requests = n + 1
	}
	if delta.Faults != want {
		t.Fatalf("window fault counters = %+v, want %+v", delta.Faults, want)
	}
}

// confReadahead checks that hints are advisory on every device: any
// range — inside the data, across a tier boundary, past the end, empty
// or negative — returns at once without an error to report, reads still
// see the right bytes afterwards, and a closed device ignores hints.
func confReadahead(t *testing.T, d Device, data []byte) {
	t.Helper()
	hinted := make(chan struct{})
	go func() {
		defer close(hinted)
		for i := 0; i < 200; i++ { // more than any hint queue holds
			d.Readahead(0, 64<<10)
			d.Readahead(confSize/2-4096, 8192)
			d.Readahead(confSize-100, 1<<20)
			d.Readahead(2*confSize, 4096)
			d.Readahead(4096, 0)
			d.Readahead(4096, -1)
		}
	}()
	select {
	case <-hinted:
	case <-time.After(10 * time.Second):
		t.Fatal("Readahead blocked the caller")
	}
	buf := make([]byte, 8192)
	if err := d.ReadSync(confSize/2-4096, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[confSize/2-4096:confSize/2+4096]) {
		t.Fatal("read after readahead returned wrong bytes")
	}
	d.Close()
	d.Readahead(0, 4096)
}

// confCloseInflight submits a batch and immediately closes: Close must
// not deadlock, and a concurrent Wait must return (possibly short).
func confCloseInflight(t *testing.T, d Device) {
	t.Helper()
	var reqs []*Request
	for i := 0; i < 32; i++ {
		reqs = append(reqs, &Request{Offset: int64(i) * 8192, Buf: make([]byte, 8192), Tag: int64(i)})
	}
	if err := d.Submit(reqs); err != nil {
		t.Fatal(err)
	}
	waited := make(chan int, 1)
	go func() { waited <- len(d.Wait(len(reqs), nil)) }()
	closed := make(chan struct{})
	go func() { d.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked with requests in flight")
	}
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return after Close")
	}
}
