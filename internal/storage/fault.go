package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error injected read faults surface. Callers can
// errors.Is against it to distinguish injected faults from real ones.
var ErrInjected = errors.New("storage: injected read fault")

// FaultConfig configures a FaultDevice. All probabilities are in [0,1]
// and are drawn from a generator seeded with Seed, in request submission
// order, so a fixed workload sees a reproducible fault sequence.
type FaultConfig struct {
	// Seed seeds the deterministic fault generator.
	Seed int64
	// ErrorRate is the probability that a read request fails outright
	// with ErrInjected.
	ErrorRate float64
	// ShortRate is the probability that a read returns fewer bytes than
	// requested (at least one, at most all but one).
	ShortRate float64
	// SlowRate is the probability that a request's completion is delayed
	// by SlowDelay — a latency spike. Spikes stall the completion pump,
	// so like a real device hiccup they can delay later completions too.
	SlowRate float64
	// SlowDelay is the length of one latency spike.
	SlowDelay time.Duration
	// CorruptRate is the probability that a read succeeds but returns
	// silently corrupted data: CorruptBytes bytes of the buffer are
	// XOR-flipped with nonzero masks at seeded positions — the media
	// bit-rot the checksummed tile format exists to catch. The read
	// itself reports success, so only checksum verification can detect
	// the damage.
	CorruptRate float64
	// CorruptBytes is how many bytes each corrupted buffer has flipped
	// (default 1, capped at the buffer length).
	CorruptBytes int
	// CorruptMax, when positive, caps the total number of corrupted
	// reads the device will inject. A test that sets CorruptRate=1,
	// CorruptMax=1 corrupts exactly the first read: the engine's one
	// re-read then sees clean data, exercising the recovery path
	// deterministically.
	CorruptMax int64
}

func (c *FaultConfig) validate() error {
	for _, p := range []float64{c.ErrorRate, c.ShortRate, c.SlowRate, c.CorruptRate} {
		if p < 0 || p > 1 {
			return fmt.Errorf("storage: fault probability %v outside [0,1]", p)
		}
	}
	if c.SlowDelay < 0 {
		return errors.New("storage: negative fault slow delay")
	}
	if c.CorruptBytes < 0 || c.CorruptMax < 0 {
		return errors.New("storage: negative corruption parameter")
	}
	return nil
}

// FaultStats counts injected faults since the device was created.
type FaultStats struct {
	// Requests is the number of read requests that passed through the
	// device (including ReadSync calls).
	Requests int64
	// Errors counts requests failed outright with ErrInjected.
	Errors int64
	// Shorts counts requests truncated to a short read.
	Shorts int64
	// Slows counts latency spikes injected.
	Slows int64
	// Corruptions counts reads whose buffers were silently bit-flipped.
	Corruptions int64
}

// Sub returns the counter deltas since an earlier snapshot.
func (s FaultStats) Sub(prev FaultStats) FaultStats {
	return FaultStats{
		Requests:    s.Requests - prev.Requests,
		Errors:      s.Errors - prev.Errors,
		Shorts:      s.Shorts - prev.Shorts,
		Slows:       s.Slows - prev.Slows,
		Corruptions: s.Corruptions - prev.Corruptions,
	}
}

// add sums two devices' counters (both tiers of a Tiered, or a
// FaultDevice and one wrapped inside it).
func (s FaultStats) add(o FaultStats) FaultStats {
	return FaultStats{
		Requests:    s.Requests + o.Requests,
		Errors:      s.Errors + o.Errors,
		Shorts:      s.Shorts + o.Shorts,
		Slows:       s.Slows + o.Slows,
		Corruptions: s.Corruptions + o.Corruptions,
	}
}

// FaultDevice wraps a Device and injects read errors, short reads, and
// latency spikes according to a FaultConfig. Fault decisions are made at
// submission time under a lock, so a serial submitter (like the engine's
// slide loop) gets a fully deterministic fault sequence for a given seed.
//
// Like Tiered, the device remaps caller tags to internal ids so a pump
// goroutine can merge injected completions with forwarded ones; every
// submitted request produces exactly one completion.
type FaultDevice struct {
	inner Device

	mu    sync.Mutex
	cfg   FaultConfig
	rng   *rand.Rand
	stats FaultStats

	completions chan Completion
	pending     sync.Map // internal id -> faultPending
	nextID      atomic.Int64
	pump        sync.WaitGroup
	closed      atomic.Bool
}

var _ Device = (*FaultDevice)(nil)

type faultPending struct {
	tag   int64
	delay time.Duration
	// buf and flips describe a silent-corruption injection: once the
	// inner read lands, buf[flips[i].off] is XORed with the (nonzero)
	// mask, guaranteeing the returned data differs from the media.
	buf   []byte
	flips []flip
}

type flip struct {
	off  int
	mask byte
}

// drawFlips decides one request's corruption. Caller holds f.mu.
func (f *FaultDevice) drawFlips(buf []byte) []flip {
	if len(buf) == 0 || !f.roll(f.cfg.CorruptRate) {
		return nil
	}
	if f.cfg.CorruptMax > 0 && f.stats.Corruptions >= f.cfg.CorruptMax {
		return nil
	}
	f.stats.Corruptions++
	nb := f.cfg.CorruptBytes
	if nb <= 0 {
		nb = 1
	}
	if nb > len(buf) {
		nb = len(buf)
	}
	flips := make([]flip, nb)
	for i := range flips {
		flips[i] = flip{off: f.rng.Intn(len(buf)), mask: byte(1 + f.rng.Intn(255))}
	}
	return flips
}

func applyFlips(buf []byte, flips []flip, n int) {
	for _, fl := range flips {
		if fl.off < n {
			buf[fl.off] ^= fl.mask
		}
	}
}

// NewFaultDevice wraps inner. It takes ownership: Close closes inner.
func NewFaultDevice(inner Device, cfg FaultConfig) (*FaultDevice, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := &FaultDevice{
		inner:       inner,
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		completions: make(chan Completion, 4096),
	}
	f.pump.Add(1)
	go f.run()
	return f, nil
}

// SetConfig replaces the fault configuration and reseeds the generator,
// so a caller can change rates (or turn faults off) between runs.
func (f *FaultDevice) SetConfig(cfg FaultConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	f.mu.Lock()
	f.cfg = cfg
	f.rng = rand.New(rand.NewSource(cfg.Seed))
	f.mu.Unlock()
	return nil
}

// roll draws one fault decision. Caller holds f.mu.
func (f *FaultDevice) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return f.rng.Float64() < p
}

// run forwards inner completions, restoring caller tags and applying
// injected latency spikes.
func (f *FaultDevice) run() {
	defer f.pump.Done()
	for {
		comps := f.inner.Wait(1, nil)
		if len(comps) == 0 {
			return // inner device closed
		}
		for _, c := range comps {
			v, ok := f.pending.Load(c.Tag)
			if !ok {
				continue
			}
			f.pending.Delete(c.Tag)
			p := v.(faultPending)
			if p.delay > 0 {
				time.Sleep(p.delay)
			}
			if c.Err == nil {
				applyFlips(p.buf, p.flips, c.N)
			}
			f.completions <- Completion{Tag: p.tag, N: c.N, Err: c.Err}
		}
	}
}

// Submit implements Device. Requests chosen for an injected error are not
// forwarded; their failure completions arrive through Wait like any other.
func (f *FaultDevice) Submit(reqs []*Request) error {
	if f.closed.Load() {
		return errors.New("storage: submit on closed fault device")
	}
	var fwd []*Request
	var injected []Completion
	f.mu.Lock()
	for _, r := range reqs {
		f.stats.Requests++
		if f.roll(f.cfg.ErrorRate) {
			f.stats.Errors++
			injected = append(injected, Completion{Tag: r.Tag, Err: ErrInjected})
			continue
		}
		buf := r.Buf
		if len(buf) > 1 && f.roll(f.cfg.ShortRate) {
			f.stats.Shorts++
			buf = buf[:1+f.rng.Intn(len(buf)-1)]
		}
		var delay time.Duration
		if f.roll(f.cfg.SlowRate) {
			f.stats.Slows++
			delay = f.cfg.SlowDelay
		}
		flips := f.drawFlips(buf)
		id := f.nextID.Add(1)
		f.pending.Store(id, faultPending{tag: r.Tag, delay: delay, buf: buf, flips: flips})
		fwd = append(fwd, &Request{Offset: r.Offset, Buf: buf, Tag: id})
	}
	f.mu.Unlock()
	for _, c := range injected {
		f.completions <- c
	}
	if len(fwd) > 0 {
		return f.inner.Submit(fwd)
	}
	return nil
}

// Wait implements Device with the usual min-then-drain semantics.
func (f *FaultDevice) Wait(min int, out []Completion) []Completion {
	received := 0
	for received < min {
		c, ok := <-f.completions
		if !ok {
			return out
		}
		out = append(out, c)
		received++
	}
	for {
		select {
		case c, ok := <-f.completions:
			if !ok {
				return out
			}
			out = append(out, c)
		default:
			return out
		}
	}
}

// ReadSync implements Device. A short read performs the truncated read
// and then reports it as an error (a synchronous caller cannot observe a
// byte count), wrapping ErrInjected.
func (f *FaultDevice) ReadSync(offset int64, buf []byte) error {
	if f.closed.Load() {
		return errors.New("storage: read on closed fault device")
	}
	f.mu.Lock()
	f.stats.Requests++
	fail := f.roll(f.cfg.ErrorRate)
	short := 0
	if !fail && len(buf) > 1 && f.roll(f.cfg.ShortRate) {
		f.stats.Shorts++
		short = 1 + f.rng.Intn(len(buf)-1)
	}
	var delay time.Duration
	if !fail && f.roll(f.cfg.SlowRate) {
		f.stats.Slows++
		delay = f.cfg.SlowDelay
	}
	var flips []flip
	if !fail && short == 0 {
		flips = f.drawFlips(buf)
	}
	if fail {
		f.stats.Errors++
	}
	f.mu.Unlock()
	if fail {
		return ErrInjected
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if short > 0 {
		if err := f.inner.ReadSync(offset, buf[:short]); err != nil {
			return err
		}
		return fmt.Errorf("storage: injected short read (%d of %d bytes): %w",
			short, len(buf), ErrInjected)
	}
	if err := f.inner.ReadSync(offset, buf); err != nil {
		return err
	}
	applyFlips(buf, flips, len(buf))
	return nil
}

// Stats implements Device, forwarding the inner device's counters.
func (f *FaultDevice) Stats() Stats { return f.inner.Stats() }

// ExtStats implements Device: the inner device's extended counters
// (fault injection does not change them) plus this device's injection
// counters.
func (f *FaultDevice) ExtStats() ExtStats {
	s := f.inner.ExtStats()
	f.mu.Lock()
	s.Faults = s.Faults.add(f.stats)
	f.mu.Unlock()
	return s
}

// Readahead implements Device, forwarding the hint. Faults are never
// injected into readahead — it is advisory and carries no data.
func (f *FaultDevice) Readahead(offset, n int64) { f.inner.Readahead(offset, n) }

// Close implements Device. Pending completions no one will read are
// dropped so the pump can exit even when the channel is full.
func (f *FaultDevice) Close() {
	if f.closed.Swap(true) {
		return
	}
	f.inner.Close()
	done := make(chan struct{})
	go func() {
		f.pump.Wait()
		close(done)
	}()
	for {
		select {
		case <-f.completions:
		case <-done:
			close(f.completions)
			return
		}
	}
}
