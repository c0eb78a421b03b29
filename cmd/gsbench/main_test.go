package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/gwu-systems/gstore/internal/exp"
)

func TestListNamesEveryExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	for _, r := range exp.All() {
		if !strings.Contains(out.String(), "  "+r.ID+" ") {
			t.Errorf("-list output lacks %q:\n%s", r.ID, out.String())
		}
	}
}

func TestUnknownExperimentIsUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "nope", "-workdir", t.TempDir()}, &out, &errOut); code != 2 {
		t.Fatalf("unknown experiment exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `unknown experiment "nope"`) {
		t.Fatalf("stderr: %s", errOut.String())
	}
}

// The serving/ingest benchmark flags went with their runners: the
// command is only the figure driver, and benchmark/run.sh measures.
func TestBenchmarkFlagsAreGone(t *testing.T) {
	for _, f := range []string{"-sweep", "-clients", "-duration", "-target", "-benchout", "-batch-window"} {
		t.Run(strings.TrimPrefix(f, "-"), func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run([]string{f, "1", "-list"}, &out, &errOut); code != 2 {
				t.Fatalf("%s accepted (exit %d)", f, code)
			}
			if !strings.Contains(errOut.String(), "flag provided but not defined") {
				t.Fatalf("stderr: %s", errOut.String())
			}
		})
	}
}

// The size and placement flags must reach the experiment: a quick run
// at an explicit scale writes its graphs under -workdir and prints the
// table.
func TestRunPassesFlagsToExperiment(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	args := []string{"-run", "table1", "-quick", "-scale", "10", "-edgefactor", "8", "-seed", "3", "-workdir", dir}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "-- table1 done in") || !strings.Contains(s, "==") {
		t.Fatalf("no table1 report:\n%s", s)
	}
	// Kronecker at scale 10, edge factor 8: 1024 * 8 edges.
	if !regexp.MustCompile(`(?m)^kron\s+8192\s`).MatchString(s) {
		t.Fatalf("-scale 10 -edgefactor 8 did not reach the experiment:\n%s", s)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("nothing written under -workdir (%v)", err)
	}
}
