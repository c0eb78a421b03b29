package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/gwu-systems/gstore/internal/graph"
)

// settle collects the garbage of whatever came before (set-up, reference
// answers, the previous phase) and returns it to the OS, so that a
// measured phase starts from the live heap alone instead of from wherever
// the collector happened to be.
func settle() {
	debug.FreeOSMemory()
}

// rssWindow is how long one peak-memory sample covers.
const rssWindow = 2 * time.Second

// rssSampler reports peak resident memory the way the latencies are
// reported — as a median of many samples. A single high-water mark over a
// whole phase is a maximum: it moves by 25 % from run to run with where
// the collector's cycles happen to fall. The sampler instead restarts the
// kernel's high-water mark (VmHWM; Linux: writing 5 to clear_refs) every
// rssWindow and keeps each window's peak.
//
// The harness and the engine share the process, so the figure includes
// the harness's own inputs and reference answers — the same on parent and
// change.
type rssSampler struct {
	stop  chan struct{}
	once  sync.Once
	done  chan struct{}
	peaks []float64
}

// startRSS settles the heap, restarts the high-water mark and begins
// sampling; finish stops it (callers defer it, so an early return does
// too).
func startRSS() *rssSampler {
	settle()
	resetHWM()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.peaks = append(s.peaks, readHWM())
				resetHWM()
			case <-s.stop:
				s.peaks = append(s.peaks, readHWM())
				return
			}
		}
	}()
	return s
}

// finish stops sampling (once) and returns the median and the highest of
// the window peaks, in MB.
func (s *rssSampler) finish() (median, highest float64) {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	sorted := samples(s.peaks).sorted()
	median, _ = quantile(sorted, 0.5)
	return median, sorted[len(sorted)-1]
}

// reportRSS stops the sampler and records its figures.
func reportRSS(res *results, s *rssSampler) {
	median, highest := s.finish()
	res.set("peak_rss_mb", median)
	res.note("peak resident memory: median of %d %v windows %.1f MB, highest window %.1f MB", len(s.peaks), rssWindow, median, highest)
}

// resetHWM's error is ignored: where the reset is unavailable every
// window reports the peak so far.
func resetHWM() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// readHWM reads VmHWM in MB; without /proc it falls back to the Go
// runtime's total obtained from the OS.
func readHWM() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// reportDisk records disk_bytes_per_edge: every byte under the graph's
// directory (tiles, indexes, WAL, delta snapshots) over the live edges.
func reportDisk(res *results, dir string, live *graph.EdgeList) error {
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	res.set("disk_bytes_per_edge", float64(disk)/float64(len(live.Edges)))
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if e.IsDir() {
			n, err := dirBytes(dir + "/" + e.Name())
			if err != nil {
				return 0, err
			}
			total += n
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
