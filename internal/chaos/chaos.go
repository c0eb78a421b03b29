// Package chaos is a whole-system crash/fault torture harness for the
// write path (DESIGN.md §15). Each seeded schedule interleaves ingest
// batches, snapshot flushes, and injected faults (transient write
// errors, fsync failures, ENOSPC, simulated crashes at the named crash
// points), then restarts from the on-disk state and verifies the
// recovery invariant: every acked mutation present exactly, unacked
// batches absent or whole, fsck clean, no temp litter, and query
// results bit-identical (PageRank within 1e-9) to a fresh conversion of
// the reference edge set.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/faultfs"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/graph"
	"github.com/gwu-systems/gstore/internal/server"
	"github.com/gwu-systems/gstore/internal/tile"
	"github.com/gwu-systems/gstore/internal/wal"
)

// The harness graph: small enough that hundreds of schedules (each with
// its own recovery and fresh reference conversion) stay fast, large
// enough to span many tiles, WAL rotations and snapshot generations.
const (
	scale      = 9
	edgeFactor = 8
)

// Report counts what a run exercised. Findings lists every invariant
// violation — each one a broken durability promise — and must be empty.
type Report struct {
	Batches         int64
	AckedBatches    int64
	Mutations       int64
	Flushes         int64
	Crashes         int
	FsyncFailures   int
	TransientFaults int
	NoSpaceFaults   int
	WholeUnacked    int
	Recoveries      int
	QueriesCompared int
	ServerScenarios int
	Findings        []string
}

// crashPoints are the named crash points the schedule generator arms.
// tile.convert.before-meta is exercised separately (conversion happens
// once, before faults arm).
var crashPoints = []string{
	"wal.append.after-write",
	"wal.rotate.after-sync",
	"wal.truncate.after-remove",
	"fsutil.commit.after-sync",
	"fsutil.commit.after-rename",
	"delta.flush.after-snapshot",
	"delta.flush.after-rotate",
	"delta.flush.after-truncate",
}

// Run plays the given number of seeded schedules and the server-level
// degraded-mode scenario in a fresh directory under dir, removed on
// return. The same seed and schedule count give the same report. The
// error reports a harness that could not run; broken invariants land in
// Report.Findings.
func Run(dir string, seed uint64, schedules int) (*Report, error) {
	rep := &Report{}
	dir, err := os.MkdirTemp(dir, "chaos-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	el, err := gen.Generate(gen.Graph500Config(scale, edgeFactor, seed))
	if err != nil {
		return nil, err
	}
	topts := tile.ConvertOptions{TileBits: scale - 4, GroupQ: 2, Symmetry: true, Degrees: true}
	pristine := filepath.Join(dir, "pristine")
	if err := os.MkdirAll(pristine, 0o755); err != nil {
		return nil, err
	}
	pg, err := tile.Convert(el, pristine, "chaos", topts)
	if err != nil {
		return nil, err
	}
	pg.Close()

	// The reference model's base occurrences, canonicalized like the
	// symmetric store's tuples.
	baseCanon := make([]graph.Edge, len(el.Edges))
	for i, e := range el.Edges {
		baseCanon[i] = e.Canon()
	}

	for i := 0; i < schedules; i++ {
		runSchedule(seed, rep, dir, pristine, topts, el.NumVertices, baseCanon, i)
	}
	if err := serverScenario(seed, rep, dir, el, topts); err != nil {
		return nil, err
	}
	return rep, nil
}

// splitmix64 advances the schedule generator's state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const (
	chaosClean   = iota // full run, clean Close, reopen
	chaosCrash          // simulated crash at a named crash point
	chaosFsync          // injected fsync failure: sticky degraded mode
	chaosWrite          // transient write error: rollback, retry succeeds
	chaosNoSpace        // ENOSPC after a byte budget, then space freed
	chaosAbandon        // process killed with no fault: pure WAL replay
	chaosScenarios
)

// runSchedule plays one seeded schedule and appends any invariant
// violation to rep.Findings.
func runSchedule(seed uint64, rep *Report, dir, pristine string, topts tile.ConvertOptions, nv uint32, baseCanon []graph.Edge, idx int) {
	state := seed ^ (uint64(idx)+1)*0x9e3779b97f4a7c15
	rng := func(n uint64) uint64 { return splitmix64(&state) % n }
	label := fmt.Sprintf("schedule %d", idx)
	fail := func(format string, args ...interface{}) {
		rep.Findings = append(rep.Findings, fmt.Sprintf("%s: ", label)+fmt.Sprintf(format, args...))
	}

	sdir := filepath.Join(dir, fmt.Sprintf("s%04d", idx))
	if err := copyFlatDir(pristine, sdir); err != nil {
		fail("copy pristine: %v", err)
		return
	}
	base := tile.BasePath(sdir, "chaos")
	tg, err := tile.Open(base)
	if err != nil {
		fail("open base: %v", err)
		return
	}
	fs := faultfs.New(int64(seed) + int64(idx)*7919)
	ds, err := delta.Open(tg, base, delta.Options{FS: fs, WALSegmentBytes: 512})
	if err != nil {
		tg.Close()
		fail("open store: %v", err)
		return
	}

	scenario := int(rng(chaosScenarios))
	switch scenario {
	case chaosCrash:
		pt := crashPoints[rng(uint64(len(crashPoints)))]
		fs.Arm(faultfs.Rule{Op: faultfs.OpCrashPoint, PathContains: pt, Crash: true, AfterN: int(1 + rng(3))})
	case chaosFsync:
		fs.Arm(faultfs.Rule{Op: faultfs.OpSync, PathContains: ".wal", AfterN: int(1 + rng(10))})
	case chaosWrite:
		fs.Arm(faultfs.Rule{Op: faultfs.OpWrite, PathContains: ".wal", AfterN: int(1 + rng(16))})
	case chaosNoSpace:
		fs.SetWriteBudget(int64(256 + rng(1024)))
	}

	// The reference model: presence overrides on top of the base
	// occurrences, folded batch by batch — only once the batch is acked.
	ov := map[uint64]bool{}
	fold := func(ops []delta.Op) {
		for _, op := range ops {
			a, b := op.Src, op.Dst
			if a > b {
				a, b = b, a
			}
			ov[uint64(a)<<32|uint64(b)] = !op.Del
		}
	}
	var insertedPool []delta.Op
	newBatch := func() []delta.Op {
		ops := make([]delta.Op, 0, 2+rng(6))
		for len(ops) < cap(ops) {
			if rng(4) == 0 && len(insertedPool) > 0 {
				victim := insertedPool[rng(uint64(len(insertedPool)))]
				ops = append(ops, delta.Op{Del: true, Src: victim.Src, Dst: victim.Dst})
				continue
			}
			op := delta.Op{Src: uint32(rng(uint64(nv))), Dst: uint32(rng(uint64(nv)))}
			ops = append(ops, op)
		}
		return ops
	}

	acked := 0
	var inflight []delta.Op // the batch in flight when the fault hit, if any
	dead := false           // writer "process" is gone (crashed or degraded)
	nBatches := int(3 + rng(5))
	for b := 0; b < nBatches && !dead; b++ {
		ops := newBatch()
		rep.Batches++
		_, err := ds.Apply(ops)
		if err != nil {
			switch scenario {
			case chaosCrash:
				rep.Crashes++
				inflight = ops
				dead = true
				continue
			case chaosFsync:
				if !errors.Is(err, wal.ErrFailed) {
					fail("fsync-failure apply error %v, want wal.ErrFailed", err)
				}
				if _, err2 := ds.Apply(ops); !errors.Is(err2, wal.ErrFailed) {
					fail("poisoned store accepted a retry: %v", err2)
				}
				rep.FsyncFailures++
				inflight = ops
				dead = true
				continue
			case chaosWrite:
				rep.TransientFaults++
				if errors.Is(err, wal.ErrFailed) {
					fail("transient write error poisoned the WAL: %v", err)
					dead = true
					continue
				}
			case chaosNoSpace:
				rep.NoSpaceFaults++
				if !errors.Is(err, faultfs.ErrNoSpace) {
					fail("budget scenario failed with %v, want ENOSPC", err)
				}
				fs.SetWriteBudget(-1) // space freed
			default:
				fail("unexpected apply error: %v", err)
				dead = true
				continue
			}
			// Transient scenarios retry the identical batch: the failed
			// append was rolled back, so the retry must succeed.
			if _, err := ds.Apply(ops); err != nil {
				fail("retry after transient fault failed: %v", err)
				dead = true
				continue
			}
		}
		acked++
		rep.AckedBatches++
		rep.Mutations += int64(len(ops))
		fold(ops)
		for _, op := range ops {
			if !op.Del {
				insertedPool = append(insertedPool, op)
			}
		}
		if rng(4) == 0 {
			if err := ds.Flush(); err != nil {
				switch {
				case scenario == chaosCrash:
					rep.Crashes++
					dead = true
				case scenario == chaosFsync:
					rep.FsyncFailures++
					dead = true
				case scenario == chaosNoSpace && errors.Is(err, faultfs.ErrNoSpace):
					rep.NoSpaceFaults++
					fs.SetWriteBudget(-1)
					if err := ds.Flush(); err != nil {
						fail("flush retry after freed space: %v", err)
						dead = true
					}
				default:
					fail("flush: %v", err)
					dead = true
				}
			} else {
				rep.Flushes++
			}
		}
	}
	switch {
	case !dead && scenario == chaosAbandon:
		// Killed with everything acked: the WAL alone must recover it.
	case !dead:
		if scenario == chaosNoSpace {
			// The budget may not have emptied mid-schedule; free it so the
			// shutdown flush is not the first place it bites.
			fs.SetWriteBudget(-1)
		}
		if err := ds.Close(); err != nil {
			if scenario == chaosCrash && fs.Crashed() {
				rep.Crashes++ // the armed point fired inside Close's flush
			} else if scenario != chaosFsync {
				fail("clean close: %v", err)
			}
		}
	case scenario == chaosFsync:
		// Degraded-mode shutdown: Close flushes the acked view and
		// releases the WAL; the poisoned rotate error is expected.
		ds.Close()
	}
	tg.Close()

	// ---- restart: recover from the on-disk state and verify ----
	rep.Recoveries++
	if findings, _ := delta.Fsck(base); len(findings) != 0 {
		fail("fsck after restart: %v", findings)
		return
	}
	g2, err := tile.Open(base)
	if err != nil {
		fail("reopen base: %v", err)
		return
	}
	defer g2.Close()
	ds2, err := delta.Open(g2, base, delta.Options{})
	if err != nil {
		fail("recovery open: %v", err)
		return
	}
	defer ds2.Close()
	ents, err := os.ReadDir(sdir)
	if err != nil {
		fail("readdir: %v", err)
		return
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			fail("temp litter %q after recovery", e.Name())
		}
	}

	// Acked exactly; the in-flight batch either vanished or landed whole.
	seq := ds2.Stats().Seq
	switch {
	case seq == uint64(acked):
	case inflight != nil && seq == uint64(acked)+1:
		fold(inflight)
		rep.WholeUnacked++
	default:
		fail("recovered seq %d, want %d acked (in-flight batch: %v)", seq, acked, inflight != nil)
		return
	}

	// The recovered store accepts writes; the probe joins the reference.
	probe := []delta.Op{{Src: uint32(rng(uint64(nv))), Dst: uint32(rng(uint64(nv)))}}
	if _, err := ds2.Apply(probe); err != nil {
		fail("write after recovery: %v", err)
		return
	}
	fold(probe)

	// Fresh-convert the reference edge set and compare query results.
	refEl := &graph.EdgeList{NumVertices: nv, Edges: make([]graph.Edge, 0, len(baseCanon))}
	for _, e := range baseCanon {
		if _, overridden := ov[uint64(e.Src)<<32|uint64(e.Dst)]; !overridden {
			refEl.Edges = append(refEl.Edges, e)
		}
	}
	for k, present := range ov {
		if present {
			refEl.Edges = append(refEl.Edges, graph.Edge{Src: uint32(k >> 32), Dst: uint32(k)})
		}
	}
	refDir := filepath.Join(sdir, "ref")
	rg, err := tile.Convert(refEl, refDir, "ref", topts)
	if err != nil {
		fail("reference conversion: %v", err)
		return
	}
	defer rg.Close()

	root := uint32(rng(uint64(nv)))
	for _, f := range compareQueries(g2, ds2, rg, root, idx%2 == 0) {
		fail("%s", f)
	}
	rep.QueriesCompared++
}

// engineOpts returns small unthrottled engine options for the
// correctness comparisons.
func engineOpts() core.Options {
	o := core.DefaultOptions()
	o.Threads = 2
	o.MemoryBytes = 2 << 20
	o.SegmentSize = 64 << 10
	return o
}

// compareQueries runs BFS (exact), PageRank (<=1e-9), and optionally
// PPR (<=1e-9) on the recovered store and on the fresh reference
// conversion, returning a description of every divergence.
func compareQueries(tg *tile.Graph, ds *delta.Store, ref *tile.Graph, root uint32, withPPR bool) []string {
	var findings []string
	es, err := core.NewEngine(tg, engineOpts())
	if err != nil {
		return []string{fmt.Sprintf("store engine: %v", err)}
	}
	defer es.Close()
	es.SetDeltaStore(ds)
	er, err := core.NewEngine(ref, engineOpts())
	if err != nil {
		return []string{fmt.Sprintf("reference engine: %v", err)}
	}
	defer er.Close()
	ctx := context.Background()

	sb, rb := algo.NewBFS(root), algo.NewBFS(root)
	if _, err := es.Run(ctx, sb); err != nil {
		return append(findings, fmt.Sprintf("store bfs: %v", err))
	}
	if _, err := er.Run(ctx, rb); err != nil {
		return append(findings, fmt.Sprintf("reference bfs: %v", err))
	}
	sd, rd := sb.Depths(), rb.Depths()
	for v := range sd {
		if sd[v] != rd[v] {
			findings = append(findings, fmt.Sprintf("bfs root %d: depth[%d] = %d, reference %d", root, v, sd[v], rd[v]))
			break
		}
	}

	sp, rp := algo.NewPageRank(4), algo.NewPageRank(4)
	if _, err := es.Run(ctx, sp); err != nil {
		return append(findings, fmt.Sprintf("store pagerank: %v", err))
	}
	if _, err := er.Run(ctx, rp); err != nil {
		return append(findings, fmt.Sprintf("reference pagerank: %v", err))
	}
	sr, rr := sp.Ranks(), rp.Ranks()
	for v := range sr {
		if math.Abs(sr[v]-rr[v]) > 1e-9 {
			findings = append(findings, fmt.Sprintf("pagerank: |rank[%d] - reference| = %g > 1e-9", v, math.Abs(sr[v]-rr[v])))
			break
		}
	}

	if withPPR {
		sq, rq := algo.NewPPR(root, 4), algo.NewPPR(root, 4)
		if _, err := es.Run(ctx, sq); err != nil {
			return append(findings, fmt.Sprintf("store ppr: %v", err))
		}
		if _, err := er.Run(ctx, rq); err != nil {
			return append(findings, fmt.Sprintf("reference ppr: %v", err))
		}
		sv, rv := sq.Ranks(), rq.Ranks()
		for v := range sv {
			if math.Abs(sv[v]-rv[v]) > 1e-9 {
				findings = append(findings, fmt.Sprintf("ppr root %d: |rank[%d] - reference| = %g > 1e-9", root, v, math.Abs(sv[v]-rv[v])))
				break
			}
		}
	}
	return findings
}

// serverScenario drives the whole stack through degraded mode: a
// server whose WAL fsyncs always fail must reject ingest with 503
// status="wal_failed", keep serving queries, and fail readiness.
func serverScenario(seed uint64, rep *Report, dir string, el *graph.EdgeList, topts tile.ConvertOptions) error {
	sdir := filepath.Join(dir, "server")
	tg, err := tile.Convert(el, sdir, "chaos", topts)
	if err != nil {
		return err
	}
	tg.Close()

	fs := faultfs.New(int64(seed) ^ 0x5eed)
	fs.Arm(faultfs.Rule{Op: faultfs.OpSync, PathContains: ".wal", Every: true})
	srv := server.New()
	srv.DeltaFS = fs
	defer srv.Close()
	if err := srv.AddGraph("chaos", tile.BasePath(sdir, "chaos"), engineOpts()); err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fail := func(format string, args ...interface{}) {
		rep.Findings = append(rep.Findings, "server scenario: "+fmt.Sprintf(format, args...))
	}

	code, body, err := httpJSON(http.MethodPost, ts.URL+"/graphs/chaos/edges",
		`{"edges":[{"src":1,"dst":2}]}`)
	if err != nil {
		return err
	}
	if code != http.StatusServiceUnavailable || body["status"] != "wal_failed" {
		fail("ingest under failed fsync = %d %v, want 503 wal_failed", code, body)
	}
	code, _, err = httpJSON(http.MethodPost, ts.URL+"/graphs/chaos/bfs", `{"root":0}`)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		fail("bfs on degraded graph = %d, want 200", code)
	}
	code, body, err = httpJSON(http.MethodGet, ts.URL+"/readyz", "")
	if err != nil {
		return err
	}
	if code != http.StatusServiceUnavailable || body["status"] != "wal_failed" {
		fail("/readyz on degraded server = %d %v, want 503 wal_failed", code, body)
	}
	rep.ServerScenarios++
	return nil
}

// httpJSON fires one request and decodes the JSON object response.
func httpJSON(method, url, payload string) (int, map[string]interface{}, error) {
	var rdr io.Reader
	if payload != "" {
		rdr = bytes.NewReader([]byte(payload))
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out := map[string]interface{}{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("decoding %s %s response: %w", method, url, err)
	}
	return resp.StatusCode, out, nil
}

// copyFlatDir copies every regular file of src into dst (created fresh).
func copyFlatDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
