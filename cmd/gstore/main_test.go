package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIEndToEnd builds the gstore and gengraph binaries and drives the
// full command-line workflow: generate -> convert -> fsck -> stats ->
// run every algorithm.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	gstoreBin := filepath.Join(dir, "gstore")
	gengraphBin := filepath.Join(dir, "gengraph")
	build := exec.Command("go", "build", "-o", gstoreBin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building gstore: %v\n%s", err, out)
	}
	build = exec.Command("go", "build", "-o", gengraphBin, "../gengraph")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building gengraph: %v\n%s", err, out)
	}

	run := func(bin string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
		}
		return string(out)
	}

	out := run(gengraphBin, "-kind", "kron", "-scale", "11", "-edgefactor", "8",
		"-seed", "5", "-out", "k.bin")
	if !strings.Contains(out, "wrote 16384 edges") {
		t.Fatalf("gengraph output: %s", out)
	}

	// -a/-b/-c only set the quadrants of -kind rmat; any other kind
	// rejects them instead of silently generating its own graph.
	for _, args := range [][]string{
		{"-kind", "kron", "-a", "0.6"},
		{"-kind", "twitter", "-c", "0.1"},
		{"-kind", "random", "-b", "0.2"},
	} {
		cmd := exec.Command(gengraphBin, append(args, "-scale", "4", "-out", "x.bin")...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "applies only to -kind rmat") {
			t.Fatalf("gengraph %s: err=%v, want exit 2 naming the flag\n%s", strings.Join(args, " "), err, out)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "x.bin")); !os.IsNotExist(err) {
		t.Fatalf("rejected gengraph run left an output file: %v", err)
	}
	run(gengraphBin, "-kind", "rmat", "-a", "0.6", "-b", "0.15", "-c", "0.15",
		"-scale", "4", "-edgefactor", "2", "-out", "r.bin")

	out = run(gstoreBin, "convert", "-in", "k.bin", "-vertices", "2048",
		"-dir", ".", "-name", "k", "-tilebits", "6", "-groupq", "4")
	if !strings.Contains(out, "converted k") {
		t.Fatalf("convert output: %s", out)
	}

	// -vertices and -groupq are 32-bit on disk: a value that does not fit
	// is refused rather than truncated, and nothing is written.
	for _, args := range [][]string{
		{"-vertices", "0"},
		{"-vertices", "4294969344"},
		{"-vertices", "2048", "-groupq", "4294967300"},
	} {
		cmd := exec.Command(gstoreBin, append([]string{"convert", "-in", "k.bin",
			"-dir", ".", "-name", "bad", "-tilebits", "6"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Fatalf("gstore convert %s succeeded, want an error\n%s", strings.Join(args, " "), out)
		}
		if _, err := os.Stat(filepath.Join(dir, "bad.meta")); !os.IsNotExist(err) {
			t.Fatalf("rejected convert %s left bad.meta: %v", strings.Join(args, " "), err)
		}
	}

	out = run(gstoreBin, "info", "-graph", "./k")
	if !strings.Contains(out, "vertices:    2048") {
		t.Fatalf("info output: %s", out)
	}

	out = run(gstoreBin, "fsck", "-graph", "./k")
	if !strings.Contains(out, "OK") {
		t.Fatalf("fsck output: %s", out)
	}

	out = run(gstoreBin, "stats", "-graph", "./k")
	if !strings.Contains(out, "total tuples") {
		t.Fatalf("stats output: %s", out)
	}

	for _, alg := range []string{"bfs", "asyncbfs"} {
		out = run(gstoreBin, alg, "-graph", "./k", "-root", "0")
		if !strings.Contains(out, "reached") {
			t.Fatalf("%s output: %s", alg, out)
		}
	}
	// More roots than one shared batch (64) and the default queue (64)
	// hold together: the queue is sized to the roots, so every root runs.
	var roots []string
	for r := 0; r < 130; r++ {
		roots = append(roots, fmt.Sprint(r))
	}
	out = run(gstoreBin, "bfs", "-graph", "./k", "-roots", strings.Join(roots, ","))
	lines := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "bfs root ") {
			lines++
		}
	}
	if lines != 130 {
		t.Fatalf("bfs -roots with 130 roots printed %d root lines, want 130:\n%s", lines, out)
	}

	// A negative engine count is a usage error naming the flag, not a
	// silent default.
	for _, flagName := range []string{"-memory", "-threads"} {
		cmd := exec.Command(gstoreBin, "bfs", "-graph", "./k", flagName, "-3")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), flagName) {
			t.Fatalf("gstore bfs %s -3: err=%v, want exit 2 naming the flag\n%s", flagName, err, out)
		}
	}

	out = run(gstoreBin, "pagerank", "-graph", "./k", "-iters", "3")
	if !strings.Contains(out, "top vertices") {
		t.Fatalf("pagerank output: %s", out)
	}
	out = run(gstoreBin, "wcc", "-graph", "./k")
	if !strings.Contains(out, "components") {
		t.Fatalf("wcc output: %s", out)
	}

	// Mutate through the write path: star every vertex to 0, so WCC must
	// collapse to one component, then fsck must stay clean (WAL truncated,
	// delta snapshot checksummed).
	var muts strings.Builder
	muts.WriteString("# star to vertex 0\n")
	for v := 1; v < 2048; v++ {
		fmt.Fprintf(&muts, "0 %d\n", v)
	}
	muts.WriteString("del 0 1\nadd 0 1\n")
	if err := os.WriteFile(filepath.Join(dir, "muts.txt"), []byte(muts.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(gstoreBin, "ingest", "-graph", "./k", "-in", "muts.txt", "-batch", "500")
	if !strings.Contains(out, "ingested 2049 mutation(s)") {
		t.Fatalf("ingest output: %s", out)
	}
	out = run(gstoreBin, "wcc", "-graph", "./k")
	if !strings.Contains(out, "wcc: 1 components") {
		t.Fatalf("wcc after ingest: %s", out)
	}
	out = run(gstoreBin, "fsck", "-graph", "./k")
	if !strings.Contains(out, "OK") {
		t.Fatalf("fsck after ingest: %s", out)
	}

	// A directed graph for scc.
	run(gengraphBin, "-kind", "twitter", "-scale", "10", "-edgefactor", "4",
		"-seed", "6", "-out", "d.bin")
	run(gstoreBin, "convert", "-in", "d.bin", "-vertices", "1024", "-directed",
		"-dir", ".", "-name", "d", "-tilebits", "5", "-groupq", "4")
	out = run(gstoreBin, "scc", "-graph", "./d")
	if !strings.Contains(out, "components") {
		t.Fatalf("scc output: %s", out)
	}

	// fsck round-trip: a freshly converted graph passes; a flipped byte
	// in the tiles file fails with the corrupt section named.
	out = run(gstoreBin, "fsck", "-graph", "./k")
	if !strings.Contains(out, "OK") || !strings.Contains(out, "format v2") {
		t.Fatalf("fsck output: %s", out)
	}

	tilesFile := filepath.Join(dir, "k.tiles")
	data, err := os.ReadFile(tilesFile)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x80
	if err := os.WriteFile(tilesFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(gstoreBin, "fsck", "-graph", "./k")
	cmd.Dir = dir
	fsckOut, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("fsck passed a corrupted graph:\n%s", fsckOut)
	}
	if !strings.Contains(string(fsckOut), "tiles") || !strings.Contains(string(fsckOut), "crc32c") {
		t.Fatalf("fsck did not name the corrupt section:\n%s", fsckOut)
	}
	// A run over the corrupted graph must fail with the integrity error.
	cmd = exec.Command(gstoreBin, "bfs", "-graph", "./k", "-root", "0")
	cmd.Dir = dir
	bfsOut, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("bfs succeeded on a corrupted graph:\n%s", bfsOut)
	}
	if !strings.Contains(string(bfsOut), "integrity") {
		t.Fatalf("bfs error does not mention integrity:\n%s", bfsOut)
	}
	// Restore and confirm fsck is clean again.
	data[len(data)/3] ^= 0x80
	if err := os.WriteFile(tilesFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	run(gstoreBin, "fsck", "-graph", "./k")

	// Unknown subcommand must fail.
	cmd = exec.Command(gstoreBin, "nonsense")
	if err := cmd.Run(); err == nil {
		t.Fatal("unknown subcommand succeeded")
	}
}

// TestMainUsage covers the usage path without spawning processes.
func TestMainUsage(t *testing.T) {
	// usage writes to stderr; just ensure it doesn't panic.
	old := os.Stderr
	defer func() { os.Stderr = old }()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/null")
	}
	defer devnull.Close()
	os.Stderr = devnull
	usage()
}
