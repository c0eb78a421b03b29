package engineflags

import (
	"flag"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/internal/core"
)

func parse(memory int64, args ...string) (core.Options, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	opts := Register(fs, memory)
	if err := fs.Parse(args); err != nil {
		return core.Options{}, err
	}
	return opts(), nil
}

// TestNegativeCountsRejected: a negative count or size is a parse error
// naming the flag (exit status 2 under flag.ExitOnError), never silently
// replaced by a default; a negative -readahead keeps its meaning.
func TestNegativeCountsRejected(t *testing.T) {
	for _, name := range []string{"memory", "segment", "threads", "disks", "ioworkers", "retries"} {
		_, err := parse(0, "-"+name, "-3")
		if err == nil || !strings.Contains(err.Error(), "-"+name) || !strings.Contains(err.Error(), "negative") {
			t.Errorf("-%s -3: err = %v, want a negative-value error naming the flag", name, err)
		}
		o, err := parse(0, "-"+name, "5")
		if err != nil {
			t.Fatalf("-%s 5: %v", name, err)
		}
		got := map[string]int64{
			"memory": o.MemoryBytes, "segment": o.SegmentSize, "threads": int64(o.Threads),
			"disks": int64(o.Disks), "ioworkers": int64(o.IOWorkers), "retries": int64(o.MaxRetries),
		}[name]
		if got != 5 {
			t.Errorf("-%s 5 gave %d", name, got)
		}
	}
	for _, args := range [][]string{{"-memory", "x"}, {"-threads", "1e3"}, {"-cache", "LRU"}} {
		if _, err := parse(0, args...); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: err = %v, want an error naming the flag", args, err)
		}
	}
	o, err := parse(0, "-readahead", "-1")
	if err != nil || o.ReadaheadBytes != -1 {
		t.Fatalf("-readahead -1: readahead %d, err %v; want -1 (disabled)", o.ReadaheadBytes, err)
	}
}

// TestOptionsFromFlags: the defaults hand the engine the zero sizes it
// derives from, and every flag reaches its core.Options field.
func TestOptionsFromFlags(t *testing.T) {
	def := core.DefaultOptions()
	o, err := parse(0)
	if err != nil {
		t.Fatal(err)
	}
	if o.MemoryBytes != 0 || o.SegmentSize != 0 || o.Threads != 0 || o.Disks != def.Disks ||
		o.MaxRetries != def.MaxRetries || o.Cache != def.Cache || !o.Selective ||
		o.Fault != nil || o.Trace != nil || o.MaxConcurrentRuns != def.MaxConcurrentRuns {
		t.Fatalf("defaults: %+v", o)
	}
	if o, _ := parse(ServedMemory); o.MemoryBytes != 64<<20 {
		t.Fatalf("served default memory %d, want 64 MiB", o.MemoryBytes)
	}
	o, err = parse(0, "-memory", "4096", "-segment", "512", "-threads", "3", "-disks", "2",
		"-bandwidth", "1e6", "-backend", "file", "-direct", "-ioworkers", "6", "-readahead", "99",
		"-cache", "lru", "-trace", "-retries", "7", "-faultslow", "0.5", "-faultdelay", "2ms",
		"-faultseed", "9")
	if err != nil {
		t.Fatal(err)
	}
	if o.MemoryBytes != 4096 || o.SegmentSize != 512 || o.Threads != 3 || o.Disks != 2 ||
		o.Bandwidth != 1e6 || o.Backend != "file" || !o.DirectIO || o.IOWorkers != 6 ||
		o.ReadaheadBytes != 99 || o.Cache != core.CacheLRU || o.Trace != os.Stderr ||
		o.MaxRetries != 7 {
		t.Fatalf("parsed: %+v", o)
	}
	if f := o.Fault; f == nil || f.SlowRate != 0.5 || f.SlowDelay != 2*time.Millisecond || f.Seed != 9 {
		t.Fatalf("fault config: %+v", f)
	}
}

// TestReadmeFlagTable pins README.md's engine-flag table to the flags
// registered here: every flag is listed once, nothing else is, and the
// default column holds each registered default (-memory both binaries').
func TestReadmeFlagTable(t *testing.T) {
	readme, err := os.ReadFile("../../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, memory := range []int64{0, ServedMemory} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		Register(fs, memory)
		fs.VisitAll(func(f *flag.Flag) {
			if !slices.Contains(want[f.Name], f.DefValue) {
				want[f.Name] = append(want[f.Name], f.DefValue)
			}
		})
	}

	rows := readmeTable(t, string(readme), "### Engine flags and storage backends")
	seen := map[string]bool{}
	for _, row := range rows {
		name := strings.TrimSuffix(strings.TrimPrefix(row[0], "`-"), "`")
		defs, ok := want[name]
		switch {
		case !ok:
			t.Errorf("README lists %s, which is not an engine flag", row[0])
			continue
		case seen[name]:
			t.Errorf("README lists -%s twice", name)
		}
		seen[name] = true
		var got []string
		for _, d := range strings.Split(row[1], ", ") {
			if len(d) < 2 || d[0] != '`' || d[len(d)-1] != '`' {
				t.Errorf("-%s: default cell %q must hold only backticked values", name, row[1])
			}
			got = append(got, strings.Trim(d, "`"))
		}
		if !slices.Equal(got, defs) {
			t.Errorf("-%s: README default %v, registered %v", name, got, defs)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("engine flag -%s is missing from README's table", name)
		}
	}
}

// readmeTable returns the cells of the first | flag | default | meaning |
// table after heading, one row per flag.
func readmeTable(t *testing.T, readme, heading string) [][]string {
	t.Helper()
	_, after, ok := strings.Cut(readme, "\n"+heading+"\n")
	if !ok {
		t.Fatalf("README has no %q section", heading)
	}
	_, after, ok = strings.Cut(after, "\n| flag | default | meaning |\n|---|---|---|\n")
	if !ok {
		t.Fatalf("README's %q section has no flag table", heading)
	}
	var rows [][]string
	for _, line := range strings.Split(after, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), " | ")
		if len(cells) != 3 {
			t.Fatalf("README flag row %q does not have three cells", line)
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	return rows
}
