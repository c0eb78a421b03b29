// Package metrics is a dependency-free observability layer for the
// serving path: atomic counters, gauges, and fixed-bucket latency
// histograms collected in a Registry that renders the Prometheus text
// exposition format, plus a structured key=value event writer used for
// engine iteration traces.
//
// The package is stdlib-only by design (the container bakes no
// third-party deps); the exposition format is the stable v0.0.4 text
// format every Prometheus-compatible scraper understands.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric instance.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// DefBuckets are the default latency histogram bucket upper bounds in
// seconds, chosen to resolve both sub-millisecond cache-pool hits and
// multi-second semi-external runs.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Counter is a monotonically increasing metric. Set exists for mirroring
// counters maintained elsewhere (e.g. an engine's cumulative byte totals
// republished after every run) and must only be used with values that
// never decrease.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d must be >= 0).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Set raises the counter to an externally tracked cumulative value. A
// value below the current one is ignored: a cumulative total only grows,
// so it can only be an older snapshot that lost a race to a newer one.
func (c *Counter) Set(v int64) { raise(&c.v, v) }

// raise lifts *c to v unless it is there already or beyond.
func raise(c *atomic.Int64, v int64) {
	for {
		old := c.Load()
		if v <= old || c.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (e.g. in-flight requests).
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by d (negative d decreases it).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a gauge holding a float64 (e.g. a ratio like the
// engine's compute-imbalance reading). It renders as a Prometheus gauge.
type FloatGauge struct {
	v atomic.Uint64 // float64 bits
}

// Set overwrites the gauge.
func (g *FloatGauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds; an implicit +Inf bucket always exists. Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Set raises the histogram to cumulative totals tracked elsewhere — the
// per-bucket counts and the sum of everything observed — the way Counter.Set
// mirrors a counter (e.g. a storage backend's read-latency buckets,
// republished after every run). Nothing moves backwards, so concurrent
// publishers holding totals of different ages converge on the newest.
// bucketCounts must use this histogram's bounds; entries beyond
// len(bounds)+1 are folded into +Inf, missing trailing entries count as
// zero. Do not mix with Observe on one histogram.
func (h *Histogram) Set(bucketCounts []int64, sum float64) {
	var total, inf int64
	last := len(h.counts) - 1
	for i, c := range bucketCounts {
		total += c
		if i >= last {
			inf += c
		} else {
			raise(&h.counts[i], c)
		}
	}
	raise(&h.counts[last], inf)
	raise(&h.count, total)
	for {
		old := h.sum.Load()
		if sum <= math.Float64frombits(old) || h.sum.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

const (
	typeCounter    = "counter"
	typeGauge      = "gauge"
	typeFloatGauge = "floatgauge" // rendered as "gauge"; distinct for type checks
	typeHistogram  = "histogram"
)

// expoType maps an internal family type to its exposition TYPE keyword.
func expoType(typ string) string {
	if typ == typeFloatGauge {
		return typeGauge
	}
	return typ
}

// instance is one labeled time series of a family.
type instance struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	fg     *FloatGauge
	h      *Histogram
}

// family is every instance sharing one metric name.
type family struct {
	name, help, typ string
	buckets         []float64 // histograms only
	insts           map[string]*instance
	order           []string // deterministic exposition order
}

// Registry collects metric families and renders them. All methods are
// safe for concurrent use; metric lookups on the hot path take one
// RWMutex read-lock plus map lookups.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Counter returns the counter with the given name and labels, creating
// it on first use. Registering the same name with a different metric
// type panics (a programming error, like prometheus.MustRegister).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	inst := r.instance(name, help, typeCounter, nil, labels)
	return inst.c
}

// Gauge returns the gauge with the given name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	inst := r.instance(name, help, typeGauge, nil, labels)
	return inst.g
}

// FloatGauge returns the float-valued gauge with the given name and
// labels. A name is either an integer Gauge or a FloatGauge, never both.
func (r *Registry) FloatGauge(name, help string, labels ...Label) *FloatGauge {
	inst := r.instance(name, help, typeFloatGauge, nil, labels)
	return inst.fg
}

// Histogram returns the histogram with the given name, bucket bounds and
// labels. The bounds must be sorted ascending; they are captured on
// first registration of the family and shared by every instance.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	inst := r.instance(name, help, typeHistogram, buckets, labels)
	return inst.h
}

func (r *Registry) instance(name, help, typ string, buckets []float64, labels []Label) *instance {
	key := renderLabels(labels)
	r.mu.RLock()
	f := r.fams[name]
	if f != nil {
		if inst := f.insts[key]; inst != nil {
			ok := f.typ == typ
			r.mu.RUnlock()
			if !ok {
				panic(fmt.Sprintf("metrics: %q registered as %s, requested as %s", name, f.typ, typ))
			}
			return inst
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f = r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, insts: make(map[string]*instance)}
		if typ == typeHistogram {
			f.buckets = append([]float64(nil), buckets...)
		}
		r.fams[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %q registered as %s, requested as %s", name, f.typ, typ))
	}
	inst := f.insts[key]
	if inst == nil {
		inst = &instance{labels: key}
		switch typ {
		case typeCounter:
			inst.c = &Counter{}
		case typeGauge:
			inst.g = &Gauge{}
		case typeFloatGauge:
			inst.fg = &FloatGauge{}
		case typeHistogram:
			h := &Histogram{bounds: f.buckets}
			h.counts = make([]atomic.Int64, len(f.buckets)+1)
			inst.h = h
		}
		f.insts[key] = inst
		f.order = append(f.order, key)
	}
	return inst
}

// renderLabels serializes labels sorted by name into `{k="v",...}`.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WritePrometheus renders every family in the text exposition format,
// families sorted by name, instances in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	// Snapshot family/instance pointers under the lock; the atomic reads
	// below need no lock.
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		r.mu.RLock()
		order := append([]string(nil), f.order...)
		insts := make([]*instance, len(order))
		for i, k := range order {
			insts[i] = f.insts[k]
		}
		r.mu.RUnlock()

		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, expoType(f.typ))
		for _, inst := range insts {
			switch f.typ {
			case typeCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, inst.labels, inst.c.Value())
			case typeGauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, inst.labels, inst.g.Value())
			case typeFloatGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, inst.labels,
					strconv.FormatFloat(inst.fg.Value(), 'g', -1, 64))
			case typeHistogram:
				writeHistogram(&b, f.name, inst)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders the cumulative _bucket/_sum/_count series.
func writeHistogram(b *strings.Builder, name string, inst *instance) {
	h := inst.h
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name,
			withLE(inst.labels, formatBound(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(inst.labels, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, inst.labels,
		strconv.FormatFloat(h.Sum(), 'g', -1, 64))
	fmt.Fprintf(b, "%s_count%s %d\n", name, inst.labels, h.Count())
}

// withLE splices the le label into an already-rendered label set.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Handler serves the registry in the Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
