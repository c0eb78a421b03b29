package chaos

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/gwu-systems/gstore/internal/delta"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/tile"
)

// TestChaosShort is the CI chaos gate: 200 seeded fault/crash schedules
// must recover with every invariant intact — acked mutations present
// exactly, unacked batches absent or whole, fsck clean, no temp litter,
// and query results matching a fresh conversion of the reference edge
// set (BFS exact, PageRank/PPR within 1e-9).
func TestChaosShort(t *testing.T) {
	rep, err := Run(t.TempDir(), 20160901, 200)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	for _, f := range rep.Findings {
		t.Errorf("finding: %s", f)
	}
	if rep.Recoveries != 200 {
		t.Fatalf("verified %d recoveries, want 200", rep.Recoveries)
	}
	if rep.ServerScenarios != 1 {
		t.Fatalf("server degraded-mode scenario did not run")
	}
	// The schedule generator must actually exercise the fault space:
	// with 200 schedules over 6 scenarios, each class appears many times.
	if rep.Crashes == 0 || rep.FsyncFailures == 0 || rep.TransientFaults == 0 || rep.NoSpaceFaults == 0 {
		t.Fatalf("fault space not covered: %+v", rep)
	}
	if rep.Flushes == 0 || rep.AckedBatches == 0 {
		t.Fatalf("write path not exercised: %+v", rep)
	}
}

// TestChaosSeedReproduces pins the seed as the repro handle for a
// finding: two runs with the same seed and schedule count play the same
// schedules and report the same counts.
func TestChaosSeedReproduces(t *testing.T) {
	dir := t.TempDir()
	a, err := Run(dir, 7, 40)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(dir, 7, 40)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different reports:\n%+v\n%+v", a, b)
	}
	if a.Recoveries != 40 || a.AckedBatches == 0 {
		t.Fatalf("seed 7 exercised nothing: %+v", a)
	}
}

// The schedule generator is SplitMix64; pinning its reference outputs
// for state 0 keeps a seed meaning the same schedules across releases.
func TestSplitmix64ReferenceVector(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var x uint64
	for i, w := range want {
		if got := splitmix64(&x); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestRunRemovesItsDirectory(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(dir, 3, 2); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 0 {
		t.Fatalf("Run left %d entries behind (%v)", len(ents), err)
	}
	if _, err := Run(filepath.Join(dir, "missing"), 3, 2); err == nil {
		t.Fatal("Run under a missing directory succeeded")
	}
}

func TestCopyFlatDirSkipsSubdirectories(t *testing.T) {
	src, dst := t.TempDir(), filepath.Join(t.TempDir(), "copy")
	for name, data := range map[string]string{"g.meta": "m", "g.tiles": "tiles"} {
		if err := os.WriteFile(filepath.Join(src, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(src, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := copyFlatDir(src, dst); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dst)
	if err != nil || len(ents) != 2 {
		t.Fatalf("copy holds %d entries, want the 2 files (%v)", len(ents), err)
	}
	if data, _ := os.ReadFile(filepath.Join(dst, "g.tiles")); string(data) != "tiles" {
		t.Fatalf("g.tiles copied as %q", data)
	}
}

// openPair converts the harness graph twice: a store with an empty
// delta overlay and an independent reference conversion.
func openPair(t *testing.T) (*tile.Graph, *delta.Store, *tile.Graph) {
	t.Helper()
	el, err := gen.Generate(gen.Graph500Config(scale, edgeFactor, 11))
	if err != nil {
		t.Fatal(err)
	}
	topts := tile.ConvertOptions{TileBits: scale - 4, GroupQ: 2, Symmetry: true, Degrees: true}
	sdir, rdir := t.TempDir(), t.TempDir()
	tg, err := tile.Convert(el, sdir, "chaos", topts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tg.Close() })
	ds, err := delta.Open(tg, tile.BasePath(sdir, "chaos"), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	ref, err := tile.Convert(el, rdir, "ref", topts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	return tg, ds, ref
}

func TestCompareQueriesAgreeOnSameEdges(t *testing.T) {
	tg, ds, ref := openPair(t)
	if f := compareQueries(tg, ds, ref, 1, true); len(f) != 0 {
		t.Fatalf("identical edge sets compared unequal: %v", f)
	}
}

// The oracle must see a mutation the reference lacks; otherwise every
// schedule would pass whatever recovery did.
func TestCompareQueriesReportDivergence(t *testing.T) {
	tg, ds, ref := openPair(t)
	nv := tg.Meta.NumVertices
	if _, err := ds.Apply([]delta.Op{{Src: 1, Dst: nv - 1}, {Src: 1, Dst: nv - 2}, {Src: nv - 3, Dst: nv - 1}}); err != nil {
		t.Fatal(err)
	}
	f := compareQueries(tg, ds, ref, 1, true)
	if len(f) == 0 {
		t.Fatal("store with extra edges compared equal to the reference")
	}
	if !strings.Contains(strings.Join(f, "\n"), "pagerank") {
		t.Fatalf("PageRank divergence not reported: %v", f)
	}
}
