package exp

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gwu-systems/gstore/internal/tile"
)

// quickConfig returns a tiny configuration so the whole suite runs in
// seconds under `go test`.
func quickConfig(t *testing.T, out *bytes.Buffer) *Config {
	t.Helper()
	c := &Config{
		WorkDir:    t.TempDir(),
		Scale:      11,
		EdgeFactor: 8,
		Seed:       99,
		Threads:    4,
		Out:        out,
		Quick:      true,
	}
	c.Defaults()
	return c
}

func TestFindRunners(t *testing.T) {
	if len(All()) < 16 {
		t.Fatalf("only %d runners registered", len(All()))
	}
	if _, ok := Find("fig9"); !ok {
		t.Fatal("fig9 missing")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("phantom runner found")
	}
	seen := map[string]bool{}
	for _, r := range All() {
		if seen[r.ID] {
			t.Fatalf("duplicate runner id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Title == "" || r.Run == nil {
			t.Fatalf("incomplete runner %q", r.ID)
		}
	}
}

func TestDefaults(t *testing.T) {
	c := &Config{Quick: true}
	c.Defaults()
	if c.Scale != 14 || c.EdgeFactor != 16 || c.Threads <= 0 || c.Out == nil {
		t.Fatalf("defaults: %+v", c)
	}
	c2 := &Config{Scale: 12}
	c2.Defaults()
	if c2.Scale != 12 {
		t.Fatal("explicit scale overridden")
	}
}

// Every experiment must run end to end at quick scale and produce a
// non-empty table.
func TestAllExperimentsQuick(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			var out bytes.Buffer
			c := quickConfig(t, &out)
			if err := r.Run(c); err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			s := out.String()
			if !strings.Contains(s, "==") || len(strings.Split(s, "\n")) < 4 {
				t.Fatalf("%s produced no table:\n%s", r.ID, s)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	v := []int64{5, 1, 4, 2, 3}
	s := sortedCopy(v)
	if s[0] != 1 || s[4] != 5 {
		t.Fatal("sortedCopy broken")
	}
	if percentile(s, 0) != 1 || percentile(s, 1) != 5 || percentile(s, 0.5) != 3 {
		t.Fatal("percentile broken")
	}
	if percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile")
	}
	if v[0] != 5 {
		t.Fatal("sortedCopy mutated input")
	}
}

func TestClamp(t *testing.T) {
	if clamp(5, 1, 10) != 5 || clamp(0, 1, 10) != 1 || clamp(50, 1, 10) != 10 {
		t.Fatal("clamp broken")
	}
}

// A work directory shared across scales must not hand one scale's cached
// graph to another: kron-14 then kron-12 in one directory converts twice
// and the second graph holds kron-12's edges; asking for kron-14 again
// reuses the first conversion.
func TestTileGraphCacheKeyedByConfig(t *testing.T) {
	dir := t.TempDir()
	open := func(scale uint) *tile.Graph {
		t.Helper()
		c := &Config{WorkDir: dir, Scale: scale, Seed: 99, Out: io.Discard}
		c.Defaults()
		tg, err := c.tileGraph("kron-main", c.kronCfg(), c.stdTileOpts())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tg.Close() })
		if want := c.kronCfg().NumEdges(); tg.Meta.NumOriginal != want {
			t.Fatalf("scale %d: graph has %d edges, want %d", scale, tg.Meta.NumOriginal, want)
		}
		return tg
	}
	converted := func() int {
		t.Helper()
		metas, err := filepath.Glob(filepath.Join(dir, "*.meta"))
		if err != nil {
			t.Fatal(err)
		}
		return len(metas)
	}
	open(14)
	open(12)
	if n := converted(); n != 2 {
		t.Fatalf("%d graphs converted after kron-14 and kron-12, want 2", n)
	}
	open(14)
	if n := converted(); n != 2 {
		t.Fatalf("%d graphs converted after reopening kron-14, want 2 (the cache was not reused)", n)
	}
}
