package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one reported number. The two tables below are the
// single source of what a pass emits; BENCHMARK.json repeats them with
// bounds, and the tests hold the two in step.
type metricDef struct {
	Name string
	Unit string
}

// Workload names are fixed: later issues cite them.
const (
	wlScanPR   = "scan-pr-v3"
	wlTraverse = "traverse-bfs-snb"
	wlServe    = "serve-point"
	wlIngest   = "ingest-query"
)

var workloadNames = []string{wlScanPR, wlTraverse, wlServe, wlIngest}

// endToEnd is what the untraced pass reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"edges_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"qps", "1/s"},
	{"mutations_per_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"disk_bytes_per_edge", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what the traced pass reports, on every workload. Layer =
// module name under internal/. The first block is measured by fixed
// probes on the probe graph (identical procedure whatever the workload);
// the second block is derived from the workload's own traced phase and is
// 0 where the workload does not cross the layer.
var perLayer = []metricDef{
	{"gen.edges_per_s", "1/s"},
	{"tile.convert.snb.edges_per_s", "1/s"},
	{"tile.convert.v3.edges_per_s", "1/s"},
	{"tile.decode.snb.ns_per_edge", "ns"},
	{"tile.decode.raw.ns_per_edge", "ns"},
	{"tile.decode.v3.ns_per_edge", "ns"},
	{"tile.crc.bytes_per_s", "B/s"},
	{"tile.stored.snb.bytes_per_edge", "B"},
	{"tile.stored.v3.bytes_per_edge", "B"},
	{"storage.file.seq.bytes_per_s", "B/s"},
	{"storage.file.sparse.bytes_per_s", "B/s"},
	{"storage.sim.seq.bytes_per_s", "B/s"},
	{"storage.file.batch_p50_us", "us"},
	{"storage.file.batch_p99_us", "us"},
	{"storage.file.coalesce_ratio", "ratio"},
	{"algo.pagerank.v3.ns_per_edge", "ns"},
	{"algo.pagerank.snb.ns_per_edge", "ns"},
	{"algo.bfs.snb.ns_per_edge", "ns"},
	{"algo.bfs.v3.ns_per_edge", "ns"},
	{"algo.wcc.snb.ns_per_edge", "ns"},
	{"algo.msbfs.snb.ns_per_edge", "ns"},
	{"algo.ppr.snb.ns_per_edge", "ns"},
	{"core.sched.solo_overhead_ms", "ms"},
	{"core.sched.queue_wait_p50_ms", "ms"},
	{"qcache.do.hit_ns", "ns"},
	{"server.hit_rtt_p50_us", "us"},
	{"server.miss_overhead_p50_ms", "ms"},
	{"wal.append.p50_us", "us"},
	{"wal.append.p99_us", "us"},
	{"wal.append.bytes_per_s", "B/s"},
	{"wal.replay.bytes_per_s", "B/s"},
	{"delta.apply.ops_per_s", "1/s"},
	{"delta.flush_ms", "ms"},
	{"delta.recover_ms", "ms"},
	{"delta.snapshot.bytes_per_op", "B"},
	{"delta.merge.snb.ns_per_edge", "ns"},
	{"delta.merge.v3.ns_per_edge", "ns"},

	{"read_bytes_per_query", "B"},
	{"mem.pool.hit_ratio", "ratio"},
	{"core.sweep.skip_ratio", "ratio"},
	{"core.sweep.requests_per_query", "count"},
	{"core.sweep.iowait_frac", "ratio"},
	{"core.sweep.compute_frac", "ratio"},
	{"core.sweep.self_frac", "ratio"},
	{"core.sweep.worker_util", "ratio"},
	{"core.sweep.imbalance", "ratio"},
	{"core.run.allocs_per_query", "count"},
	{"core.run.alloc_bytes_per_query", "B"},
	{"core.gc.pause_ms_per_s", "ms/s"},
	{"core.sched.shared_runs_mean", "count"},
	{"core.personal.batched_roots_mean", "count"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.join_ratio", "ratio"},
	{"qcache.invalidation_ratio", "ratio"},
	{"delta.merge_overhead_ratio", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"core.roofline.device_edges_per_s", "1/s"},
	{"core.roofline.cpu_edges_per_s", "1/s"},
	{"core.roofline.achieved_frac", "ratio"},
}

// exactOn lists the metrics that are counts made by the program and so
// repeat exactly for one seed: -compare holds them to equality instead of
// a bound. Timing never appears here.
var exactOn = map[string][]string{
	"read_bytes_per_query":           {wlScanPR, wlTraverse},
	"disk_bytes_per_edge":            workloadNames,
	"tile.stored.snb.bytes_per_edge": workloadNames,
	"tile.stored.v3.bytes_per_edge":  workloadNames,
	"storage.file.coalesce_ratio":    workloadNames,
	"delta.snapshot.bytes_per_op":    workloadNames,
	"mem.pool.hit_ratio":             {wlScanPR, wlTraverse},
	"core.sweep.skip_ratio":          {wlScanPR, wlTraverse},
	"core.sweep.requests_per_query":  {wlScanPR, wlTraverse},
}

func isExact(metric, workload string) bool {
	for _, w := range exactOn[metric] {
		if w == workload {
			return true
		}
	}
	return false
}

// results collects one pass's numbers.
type results struct {
	vals      map[string]float64
	n         map[string]int // raw sample count behind a percentile
	attempted int
	failed    int
	notes     []string
	roof      rooflineIn // what the traced pass's roofline needs of the workload
}

func newResults() *results {
	return &results{vals: map[string]float64{}, n: map[string]int{}}
}

func (r *results) set(name string, v float64) { r.vals[name] = v }

// setPct reports the p-quantile of raw samples under name, with the
// sample count beside it; in strict mode it refuses a percentile that has
// fewer than ten samples beyond it.
func (r *results) setPct(name string, s samples, p float64, strict bool) error {
	v, err := s.pct(p, strict, name)
	if err != nil {
		return err
	}
	r.vals[name], r.n[name] = v, len(s)
	return nil
}

func (r *results) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// merge folds in the operation counts and notes another goroutine kept.
func (r *results) merge(o *results) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.notes = append(r.notes, o.notes...)
}

// op counts one operation the benchmark attempted and whether it failed
// (error, refusal, wrong answer).
func (r *results) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// resultLine is the contract's last-line object, plus the fields -compare
// groups by (unknown keys to the driver are not emitted: see print).
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recordLine is what -out appends: the result plus what produced it.
type recordLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	resultLine
}

// line checks that every metric of defs is present and finite and builds
// the contract's result object. (Both passes compute some of the other
// table's numbers on the way; those are simply not emitted.)
func (r *results) line(defs []metricDef) (resultLine, error) {
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	return out, nil
}

// printTable writes every metric by name with its unit, for people.
func (r *results) printTable(w io.Writer, workload string, defs []metricDef) {
	for _, d := range defs {
		suffix := ""
		if n, ok := r.n[d.Name]; ok {
			suffix = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(w, "%-18s %-36s %18.6g %-6s%s\n", workload, d.Name, r.vals[d.Name], d.Unit, suffix)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-18s note: %s\n", workload, n)
	}
	fmt.Fprintf(w, "%-18s attempted %d, failed %d\n", workload, r.attempted, r.failed)
}

func marshalLine(v any) string {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers and strings reach here
	}
	return string(blob)
}
