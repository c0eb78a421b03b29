package gen

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/gwu-systems/gstore/internal/graph"
)

func TestConfigNaming(t *testing.T) {
	c := Graph500Config(28, 16, 1)
	if c.Name() != "kron-28-16" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.NumVertices() != 1<<28 {
		t.Fatalf("NumVertices = %d", c.NumVertices())
	}
	if c.NumEdges() != 16<<28 {
		t.Fatalf("NumEdges = %d", c.NumEdges())
	}
	u := UniformConfig(27, 32, 1)
	if u.Name() != "random-27-32" {
		t.Fatalf("Name = %q", u.Name())
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Graph500Config(20, 16, 1), true},
		{Config{Kind: RMAT, Scale: 0, EdgeFactor: 16}, false},
		{Config{Kind: RMAT, Scale: 32, EdgeFactor: 16}, false},
		{Config{Kind: RMAT, Scale: 10, EdgeFactor: 0}, false},
		{Config{Kind: RMAT, Scale: 10, EdgeFactor: 4, A: 0.9, B: 0.2, C: 0.2}, false},
		{UniformConfig(10, 4, 3), true},
		{Config{Kind: RMAT, Scale: 10, EdgeFactor: 4, A: math.NaN(), B: 0.2, C: 0.2}, false},
		{Config{Kind: Kind(7), Scale: 10, EdgeFactor: 4}, false},
	}
	for i, tc := range cases {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("case %d: Validate() err=%v, ok=%v", i, err, tc.ok)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Graph500Config(10, 8, 42)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Edges, b.Edges) {
		t.Fatal("same seed produced different graphs")
	}
	cfg.Seed = 43
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Edges, c.Edges) {
		t.Fatal("different seeds produced identical graphs")
	}
}

// The generator's output is pinned byte for byte: CRC32C of the edges as
// little-endian (src, dst) uint32 pairs, recorded from the original
// single-goroutine generator. Every configuration must reproduce it
// through Stream and Generate at any GOMAXPROCS.
func TestGeneratePinnedDigests(t *testing.T) {
	cases := []struct {
		name          string
		mk            func(scale uint, edgeFactor int, seed uint64) Config
		scale         uint
		edgeFactor    int
		directed      bool
		dropSelfLoops bool
		crc           uint32
	}{
		{"kron", Graph500Config, 4, 8, true, false, 0xcdb2d874},
		{"kron", Graph500Config, 4, 8, true, true, 0x10b4fe1a},
		{"kron", Graph500Config, 4, 8, false, false, 0xe11c016e},
		{"kron", Graph500Config, 4, 8, false, true, 0x90b500e2},
		{"kron", Graph500Config, 10, 8, true, false, 0x3d567a13},
		{"kron", Graph500Config, 10, 8, false, false, 0xfa060316},
		{"kron", Graph500Config, 14, 8, true, false, 0xdb499a5f},
		{"kron", Graph500Config, 14, 8, false, false, 0x6fa4d812},
		{"twitter", TwitterLikeConfig, 4, 8, true, false, 0xf5a771f3},
		{"twitter", TwitterLikeConfig, 4, 8, true, true, 0x90c98b82},
		{"twitter", TwitterLikeConfig, 4, 8, false, false, 0xf33b1637},
		{"twitter", TwitterLikeConfig, 4, 8, false, true, 0x3c4007c6},
		{"twitter", TwitterLikeConfig, 10, 8, true, false, 0x870aeac4},
		{"twitter", TwitterLikeConfig, 10, 8, false, false, 0xff350f87},
		{"twitter", TwitterLikeConfig, 14, 8, true, false, 0xcd13f038},
		{"twitter", TwitterLikeConfig, 14, 8, false, false, 0x7a3fe0d6},
		{"uniform", UniformConfig, 4, 8, true, false, 0xadb84ea8},
		{"uniform", UniformConfig, 4, 8, true, true, 0x6b840a7f},
		{"uniform", UniformConfig, 4, 8, false, false, 0xc96db81c},
		{"uniform", UniformConfig, 4, 8, false, true, 0x6fb89d20},
		{"uniform", UniformConfig, 10, 8, true, false, 0xfeebea8e},
		{"uniform", UniformConfig, 10, 8, false, false, 0x3f67b1b9},
		{"uniform", UniformConfig, 14, 8, true, false, 0xdc2e03f2},
		{"uniform", UniformConfig, 14, 8, false, false, 0x60304f0d},
		// 65536 edges at scale 4: rejected self loops span several chunks
		// and push the stream past NumEdges attempts.
		{"kron", Graph500Config, 4, 4096, false, true, 0x462f4c32},
		{"twitter", TwitterLikeConfig, 4, 4096, true, true, 0x28d1c22a},
		{"uniform", UniformConfig, 4, 4096, false, true, 0xe802a3f6},
	}
	tab := crc32.MakeTable(crc32.Castagnoli)
	digest := func(es []graph.Edge) uint32 {
		buf := make([]byte, 8*len(es))
		for i, e := range es {
			binary.LittleEndian.PutUint32(buf[8*i:], e.Src)
			binary.LittleEndian.PutUint32(buf[8*i+4:], e.Dst)
		}
		return crc32.Checksum(buf, tab)
	}
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, tc := range cases {
				cfg := tc.mk(tc.scale, tc.edgeFactor, 29)
				cfg.Directed, cfg.DropSelfLoops = tc.directed, tc.dropSelfLoops
				id := fmt.Sprintf("%s-%d-%d directed=%v drop=%v GOMAXPROCS=%d", tc.name, tc.scale, tc.edgeFactor, tc.directed, tc.dropSelfLoops, procs)
				var streamed []graph.Edge
				if err := Stream(cfg, func(e graph.Edge) error {
					streamed = append(streamed, e)
					return nil
				}); err != nil {
					t.Fatalf("%s: Stream: %v", id, err)
				}
				el, err := Generate(cfg)
				if err != nil {
					t.Fatalf("%s: Generate: %v", id, err)
				}
				if got := digest(streamed); got != tc.crc {
					t.Errorf("%s: Stream crc32c %#08x, want %#08x", id, got, tc.crc)
				}
				if got := digest(el.Edges); got != tc.crc {
					t.Errorf("%s: Generate crc32c %#08x, want %#08x", id, got, tc.crc)
				}
			}
		}()
	}
}

func TestGenerateCounts(t *testing.T) {
	for _, cfg := range []Config{
		Graph500Config(10, 8, 7),
		UniformConfig(10, 8, 7),
		TwitterLikeConfig(10, 8, 7),
	} {
		el, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		if int64(len(el.Edges)) != cfg.NumEdges() {
			t.Fatalf("%s: %d edges, want %d", cfg.Name(), len(el.Edges), cfg.NumEdges())
		}
		if el.NumVertices != cfg.NumVertices() {
			t.Fatalf("%s: %d vertices", cfg.Name(), el.NumVertices)
		}
		if err := el.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
	}
}

func TestGenerateUndirectedCanonical(t *testing.T) {
	cfg := Graph500Config(8, 8, 5)
	el, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range el.Edges {
		if e.Src > e.Dst {
			t.Fatalf("non-canonical undirected edge %v", e)
		}
	}
}

func TestDropSelfLoops(t *testing.T) {
	cfg := UniformConfig(4, 32, 9)
	cfg.DropSelfLoops = true
	el, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(el.Edges)) != cfg.NumEdges() {
		t.Fatalf("self-loop replacement changed edge count: %d", len(el.Edges))
	}
	for _, e := range el.Edges {
		if e.Src == e.Dst {
			t.Fatalf("self loop survived: %v", e)
		}
	}
}

// RMAT graphs must be substantially more skewed than uniform graphs:
// compare the maximum degree of both at the same size.
func TestRMATSkewExceedsUniform(t *testing.T) {
	rm, err := Generate(TwitterLikeConfig(12, 16, 3))
	if err != nil {
		t.Fatal(err)
	}
	un, err := Generate(UniformConfig(12, 16, 3))
	if err != nil {
		t.Fatal(err)
	}
	maxDeg := func(el *graph.EdgeList) uint32 {
		var m uint32
		for _, d := range el.OutDegrees() {
			if d > m {
				m = d
			}
		}
		return m
	}
	mr, mu := maxDeg(rm), maxDeg(un)
	if mr < 4*mu {
		t.Fatalf("rmat max degree %d not >> uniform %d", mr, mu)
	}
}

func TestUniformIsRoughlyUniform(t *testing.T) {
	el, err := Generate(UniformConfig(8, 64, 11))
	if err != nil {
		t.Fatal(err)
	}
	deg := el.OutDegrees()
	mean := 0.0
	for _, d := range deg {
		mean += float64(d)
	}
	mean /= float64(len(deg))
	// Expected degree = 2*EdgeFactor = 128. Allow generous slack.
	if math.Abs(mean-128) > 8 {
		t.Fatalf("mean degree %v far from 128", mean)
	}
}

// Stopping early, on the first edge or in the middle of a later chunk,
// returns emit's error without calling emit again and leaves no goroutine
// behind, at any worker count.
func TestStreamEmitError(t *testing.T) {
	cases := []struct {
		cfg    Config
		stopAt int
	}{
		{Graph500Config(12, 16, 1), 1},
		{Graph500Config(12, 16, 1), chunkAttempts + chunkAttempts/2},
		{UniformConfig(6, 4, 1), 5},
	}
	for _, procs := range []int{1, 4} {
		for _, tc := range cases {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				baseline := runtime.NumGoroutine()
				calls := 0
				err := Stream(tc.cfg, func(graph.Edge) error {
					calls++
					if calls >= tc.stopAt {
						return errStop
					}
					return nil
				})
				if err != errStop {
					t.Fatalf("%s stop at %d, GOMAXPROCS %d: err = %v, want errStop", tc.cfg.Name(), tc.stopAt, procs, err)
				}
				if calls != tc.stopAt {
					t.Fatalf("%s stop at %d, GOMAXPROCS %d: emit called %d times", tc.cfg.Name(), tc.stopAt, procs, calls)
				}
				// Stream has waited for its goroutines; give them a moment
				// to leave the scheduler's count.
				for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > baseline {
					t.Fatalf("%s stop at %d, GOMAXPROCS %d: %d goroutines after Stream, %d before", tc.cfg.Name(), tc.stopAt, procs, n, baseline)
				}
			}()
		}
	}
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }

func TestRNGDeterministicAndSpread(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	r := NewRNG(7)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[r.Next()] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("RNG produced %d distinct values of 1000", len(seen))
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

// Property: generated edges always lie in [0, 2^scale).
func TestQuickEdgesInRange(t *testing.T) {
	f := func(seed uint64, rawScale, rawEF uint8) bool {
		scale := uint(rawScale)%10 + 2
		ef := int(rawEF)%8 + 1
		cfg := Graph500Config(scale, ef, seed)
		n := cfg.NumVertices()
		ok := true
		err := Stream(cfg, func(e graph.Edge) error {
			if e.Src >= n || e.Dst >= n {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGenerate times the kron-16 input (1 Mi edges) at the process's
// GOMAXPROCS.
func BenchmarkGenerate(b *testing.B) {
	cfg := Graph500Config(16, 16, 1)
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}
