package storage

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func submitN(t *testing.T, d Device, n, size int) []Completion {
	t.Helper()
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = &Request{Offset: int64(i * size), Buf: make([]byte, size), Tag: int64(i)}
	}
	if err := d.Submit(reqs); err != nil {
		t.Fatal(err)
	}
	comps := make([]Completion, 0, n)
	for len(comps) < n {
		comps = d.Wait(1, comps)
	}
	return comps
}

func newFault(t *testing.T, src *memSource, cfg FaultConfig) *FaultDevice {
	t.Helper()
	inner, err := NewArray(src, Options{NumDisks: 2, StripeSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFaultDevice(inner, cfg)
	if err != nil {
		inner.Close()
		t.Fatal(err)
	}
	return f
}

func TestFaultConfigValidation(t *testing.T) {
	src := newMemSource(1024)
	inner, err := NewArray(src, Options{NumDisks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	if _, err := NewFaultDevice(inner, FaultConfig{ErrorRate: 1.5}); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	if _, err := NewFaultDevice(inner, FaultConfig{SlowDelay: -time.Second}); err == nil {
		t.Fatal("negative delay accepted")
	}
}

func TestFaultDeviceNoFaultsIsTransparent(t *testing.T) {
	src := newMemSource(1 << 16)
	f := newFault(t, src, FaultConfig{Seed: 1})
	defer f.Close()
	reqs := []*Request{{Offset: 100, Buf: make([]byte, 5000), Tag: 9}}
	if err := f.Submit(reqs); err != nil {
		t.Fatal(err)
	}
	comps := f.Wait(1, nil)
	if len(comps) != 1 || comps[0].Tag != 9 || comps[0].Err != nil || comps[0].N != 5000 {
		t.Fatalf("completions = %+v", comps)
	}
	if !bytes.Equal(reqs[0].Buf, src.data[100:5100]) {
		t.Fatal("data mismatch through fault device")
	}
	if st := f.ExtStats().Faults; st.Requests != 1 || st.Errors+st.Shorts+st.Slows != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultDeviceErrorRateOne(t *testing.T) {
	src := newMemSource(1 << 16)
	f := newFault(t, src, FaultConfig{Seed: 2, ErrorRate: 1})
	defer f.Close()
	comps := submitN(t, f, 10, 512)
	for _, c := range comps {
		if !errors.Is(c.Err, ErrInjected) {
			t.Fatalf("completion %+v not an injected error", c)
		}
	}
	if st := f.ExtStats().Faults; st.Errors != 10 {
		t.Fatalf("Errors = %d, want 10", st.Errors)
	}
}

func TestFaultDeviceShortReads(t *testing.T) {
	src := newMemSource(1 << 16)
	f := newFault(t, src, FaultConfig{Seed: 3, ShortRate: 1})
	defer f.Close()
	comps := submitN(t, f, 10, 512)
	for _, c := range comps {
		if c.Err != nil {
			t.Fatalf("short read surfaced as error: %+v", c)
		}
		if c.N <= 0 || c.N >= 512 {
			t.Fatalf("short read N = %d, want in (0,512)", c.N)
		}
	}
	if st := f.ExtStats().Faults; st.Shorts != 10 {
		t.Fatalf("Shorts = %d, want 10", st.Shorts)
	}
}

func TestFaultDeviceSlowdowns(t *testing.T) {
	src := newMemSource(1 << 16)
	const delay = 20 * time.Millisecond
	f := newFault(t, src, FaultConfig{Seed: 4, SlowRate: 1, SlowDelay: delay})
	defer f.Close()
	begin := time.Now()
	comps := submitN(t, f, 3, 512)
	if elapsed := time.Since(begin); elapsed < 3*delay {
		t.Fatalf("3 slow completions took %v, want >= %v", elapsed, 3*delay)
	}
	for _, c := range comps {
		if c.Err != nil || c.N != 512 {
			t.Fatalf("slow completion corrupted: %+v", c)
		}
	}
	if st := f.ExtStats().Faults; st.Slows != 3 {
		t.Fatalf("Slows = %d, want 3", st.Slows)
	}
}

// Same seed and workload must produce the identical fault sequence.
func TestFaultDeviceDeterministic(t *testing.T) {
	outcome := func() []bool {
		src := newMemSource(1 << 16)
		f := newFault(t, src, FaultConfig{Seed: 42, ErrorRate: 0.3, ShortRate: 0.3})
		defer f.Close()
		comps := submitN(t, f, 64, 256)
		res := make([]bool, 64)
		for _, c := range comps {
			res[c.Tag] = c.Err != nil || c.N < 256
		}
		return res
	}
	a, b := outcome(), outcome()
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: fault decision differs between identical runs", i)
		}
		if a[i] {
			faults++
		}
	}
	if faults == 0 || faults == 64 {
		t.Fatalf("fault mix degenerate: %d/64", faults)
	}
}

func TestFaultDeviceReadSync(t *testing.T) {
	src := newMemSource(1 << 16)
	f := newFault(t, src, FaultConfig{Seed: 5, ErrorRate: 1})
	defer f.Close()
	if err := f.ReadSync(0, make([]byte, 100)); !errors.Is(err, ErrInjected) {
		t.Fatalf("ReadSync error = %v, want ErrInjected", err)
	}

	src2 := newMemSource(1 << 16)
	g := newFault(t, src2, FaultConfig{Seed: 6, ShortRate: 1})
	defer g.Close()
	if err := g.ReadSync(0, make([]byte, 100)); !errors.Is(err, ErrInjected) {
		t.Fatalf("short ReadSync error = %v, want wrapped ErrInjected", err)
	}
}

func TestFaultDeviceCorruption(t *testing.T) {
	src := newMemSource(1 << 16)
	f := newFault(t, src, FaultConfig{Seed: 11, CorruptRate: 1, CorruptBytes: 3})
	defer f.Close()
	reqs := []*Request{{Offset: 0, Buf: make([]byte, 512), Tag: 1}}
	if err := f.Submit(reqs); err != nil {
		t.Fatal(err)
	}
	comps := f.Wait(1, nil)
	if len(comps) != 1 || comps[0].Err != nil || comps[0].N != 512 {
		t.Fatalf("corrupted read must still report success: %+v", comps)
	}
	if bytes.Equal(reqs[0].Buf, src.data[:512]) {
		t.Fatal("buffer not corrupted at CorruptRate 1")
	}
	diff := 0
	for i := range reqs[0].Buf {
		if reqs[0].Buf[i] != src.data[i] {
			diff++
		}
	}
	if diff > 3 {
		t.Fatalf("%d bytes differ, want at most CorruptBytes=3", diff)
	}
	if st := f.ExtStats().Faults; st.Corruptions != 1 {
		t.Fatalf("Corruptions = %d, want 1", st.Corruptions)
	}
}

func TestFaultDeviceCorruptionReadSync(t *testing.T) {
	src := newMemSource(1 << 16)
	f := newFault(t, src, FaultConfig{Seed: 12, CorruptRate: 1})
	defer f.Close()
	buf := make([]byte, 256)
	if err := f.ReadSync(0, buf); err != nil {
		t.Fatalf("corrupted ReadSync must report success: %v", err)
	}
	if bytes.Equal(buf, src.data[:256]) {
		t.Fatal("ReadSync buffer not corrupted at CorruptRate 1")
	}
	if st := f.ExtStats().Faults; st.Corruptions != 1 {
		t.Fatalf("Corruptions = %d, want 1", st.Corruptions)
	}
}

// CorruptMax=1 corrupts exactly the first read; the second read of the
// same range is clean. This is the deterministic recovery scenario the
// engine's re-read path relies on.
func TestFaultDeviceCorruptMax(t *testing.T) {
	src := newMemSource(1 << 16)
	f := newFault(t, src, FaultConfig{Seed: 13, CorruptRate: 1, CorruptMax: 1})
	defer f.Close()
	buf := make([]byte, 256)
	if err := f.ReadSync(0, buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, src.data[:256]) {
		t.Fatal("first read not corrupted")
	}
	if err := f.ReadSync(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, src.data[:256]) {
		t.Fatal("second read corrupted despite CorruptMax=1")
	}
	if st := f.ExtStats().Faults; st.Corruptions != 1 {
		t.Fatalf("Corruptions = %d, want 1", st.Corruptions)
	}
}

// Corruption decisions must be deterministic for a fixed seed: two
// identical runs flip identical bytes.
func TestFaultDeviceCorruptionDeterministic(t *testing.T) {
	run := func() []byte {
		src := newMemSource(1 << 16)
		f := newFault(t, src, FaultConfig{Seed: 21, CorruptRate: 0.5, CorruptBytes: 2})
		defer f.Close()
		out := make([]byte, 0, 16*64)
		for i := 0; i < 16; i++ {
			buf := make([]byte, 64)
			if err := f.ReadSync(int64(i*64), buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, buf...)
		}
		return out
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("corruption pattern differs between identical seeded runs")
	}
}

func TestFaultConfigCorruptValidation(t *testing.T) {
	src := newMemSource(1024)
	inner, err := NewArray(src, Options{NumDisks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	if _, err := NewFaultDevice(inner, FaultConfig{CorruptRate: -0.1}); err == nil {
		t.Fatal("negative CorruptRate accepted")
	}
	if _, err := NewFaultDevice(inner, FaultConfig{CorruptBytes: -1}); err == nil {
		t.Fatal("negative CorruptBytes accepted")
	}
	if _, err := NewFaultDevice(inner, FaultConfig{CorruptMax: -1}); err == nil {
		t.Fatal("negative CorruptMax accepted")
	}
}

func TestFaultDeviceSetConfig(t *testing.T) {
	src := newMemSource(1 << 16)
	f := newFault(t, src, FaultConfig{Seed: 7, ErrorRate: 1})
	defer f.Close()
	if err := f.ReadSync(0, make([]byte, 64)); err == nil {
		t.Fatal("fault device with ErrorRate 1 did not fail")
	}
	if err := f.SetConfig(FaultConfig{}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := f.ReadSync(0, buf); err != nil {
		t.Fatalf("fault-free read failed after SetConfig: %v", err)
	}
	if !bytes.Equal(buf, src.data[:64]) {
		t.Fatal("data mismatch after SetConfig")
	}
	if err := f.SetConfig(FaultConfig{ErrorRate: 2}); err == nil {
		t.Fatal("SetConfig accepted invalid rate")
	}
}

// Closing a fault device with undrained completions (including injected
// ones) must not deadlock.
func TestFaultDeviceCloseWithPending(t *testing.T) {
	src := newMemSource(1 << 20)
	f := newFault(t, src, FaultConfig{Seed: 8, ErrorRate: 0.5})
	var reqs []*Request
	for i := 0; i < 6000; i++ {
		reqs = append(reqs, &Request{Offset: int64(i * 16), Buf: make([]byte, 16), Tag: int64(i)})
	}
	if err := f.Submit(reqs); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		f.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked with undrained completions")
	}
	if err := f.Submit(reqs[:1]); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
}

// Injected-fault counters travel up the device stack inside ExtStats: a
// Tiered sums its tiers' counters, and a FaultDevice adds its own to
// whatever the devices under it injected, so the engine reads one total
// from the top of any composition.
func TestFaultCountersForwardAndMerge(t *testing.T) {
	src := newMemSource(1 << 16)
	fast := newFault(t, src, FaultConfig{Seed: 1, ErrorRate: 1})
	slow := newFault(t, src, FaultConfig{Seed: 2, ShortRate: 1})
	tiered, err := NewTiered(fast, slow, 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	top, err := NewFaultDevice(tiered, FaultConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()

	submitN(t, top, 16, 4096) // 8 requests per tier, none spanning
	want := FaultStats{Requests: 32, Errors: 8, Shorts: 8}
	if got := top.ExtStats().Faults; got != want {
		t.Fatalf("merged fault counters = %+v, want %+v", got, want)
	}
	if got := tiered.ExtStats().Faults; got != (FaultStats{Requests: 16, Errors: 8, Shorts: 8}) {
		t.Fatalf("tiered fault counters = %+v", got)
	}
	if es := top.ExtStats(); es.Backend != "sim+sim" {
		t.Fatalf("Backend = %q through the wrappers, want sim+sim", es.Backend)
	}
}
