package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one query share QueryID;
// Parent is the span that caused this one (0 for a query's root span).
// Probe marks the layer probes' calls, which belong to no workload query.
// Synthetic spans are not timed by the harness: their duration is a
// figure the engine returned (core.Stats, a reply's stats.elapsed_ms)
// attached under the span of the call that returned it, because this
// benchmark measures the engine from outside.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	QueryID   int64  `json:"query_id"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Synthetic bool   `json:"synthetic,omitempty"`
	Probe     bool   `json:"probe,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the pass ends. A nil *tracer is the
// untraced pass: every method is a no-op, so workloads are written once.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	queries int64
	probing bool // set once the workload is done and the probes begin
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newQuery returns the identifier the spans of one more query share.
func (t *tracer) newQuery() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queries++
	return t.queries
}

// startProbes marks every span from here on as a probe's.
func (t *tracer) startProbes() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.probing = true
	t.mu.Unlock()
}

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int, query int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, QueryID: query, Name: name, StartNS: now, Probe: t.probing})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// attach records a synthetic child of parent lasting d, placed at offset
// off from the parent's start.
func (t *tracer) attach(name string, parent int, off, d time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	start := p.StartNS + off.Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, QueryID: p.QueryID,
		Name: name, StartNS: start, EndNS: start + d.Nanoseconds(), Synthetic: true, Probe: p.Probe})
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) writeFile(path string) error {
	blob, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// selfTimes returns, per span, its duration minus the part its children
// cover (clamped at zero: a synthetic child may overhang its parent when
// the engine's own clocks overlap, e.g. I/O wait hidden behind compute).
func selfTimes(spans []span) map[int]time.Duration {
	covered := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.dur()
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		d := s.dur() - covered[s.ID]
		if d < 0 {
			d = 0
		}
		self[s.ID] = d
	}
	return self
}

// layerSelf sums self time by span name and reports the smallest share of
// any traced query's wall time (its root span) that the self times of its
// spans account for.
func layerSelf(spans []span) (byName map[string]time.Duration, minCoverage float64) {
	self := selfTimes(spans)
	byName = make(map[string]time.Duration)
	perQuery := make(map[int64]time.Duration)
	roots := make(map[int64]time.Duration)
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
		perQuery[s.QueryID] += self[s.ID]
		if s.Parent == 0 {
			roots[s.QueryID] += s.dur()
		}
	}
	minCoverage = 1
	for q, wall := range roots {
		if wall <= 0 {
			continue
		}
		if c := float64(perQuery[q]) / float64(wall); c < minCoverage {
			minCoverage = c
		}
	}
	return byName, minCoverage
}
