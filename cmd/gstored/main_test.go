package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/gwu-systems/gstore/cmd/internal/engineflags"
	"github.com/gwu-systems/gstore/internal/algo"
	"github.com/gwu-systems/gstore/internal/core"
	"github.com/gwu-systems/gstore/internal/gen"
	"github.com/gwu-systems/gstore/internal/tile"
)

// client bounds every request, so a wedged daemon fails the test
// instead of hanging it.
var client = &http.Client{Timeout: 30 * time.Second}

// lockedBuffer collects a child's output while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeEndToEnd builds gstored, serves a small converted graph with
// two engine flags gstore has always had (-cache, -retries), answers a
// BFS exactly as gstore's engine does, acks one mutation, and drains and
// exits 0 on SIGTERM.
func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "gstored")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building gstored: %v\n%s", err, out)
	}
	el, err := gen.Generate(gen.Graph500Config(10, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	g, err := tile.Convert(el, dir, "k", tile.ConvertOptions{
		TileBits: 6, GroupQ: 4, Symmetry: true, Degrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// What `gstore bfs -root 0` reaches: its engine, with its flags' defaults.
	fs := flag.NewFlagSet("bfs", flag.ContinueOnError)
	opts := engineflags.Register(fs, 0)
	e, err := core.NewEngine(g, opts())
	if err != nil {
		t.Fatal(err)
	}
	bfs := algo.NewBFS(0)
	if _, err := e.Run(context.Background(), bfs); err != nil {
		t.Fatal(err)
	}
	e.Close()
	g.Close()
	want := 0
	for _, d := range bfs.Depths() {
		if d >= 0 {
			want++
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	var out lockedBuffer
	cmd := exec.Command(bin, "-listen", addr, "-graph", "k="+filepath.Join(dir, "k"),
		"-cache", "lru", "-retries", "1", "-pprof=false")
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() { waitErr = cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		select {
		case <-exited:
		default:
			cmd.Process.Kill()
			<-exited
		}
	})

	base := "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-exited:
			t.Fatalf("gstored exited before it was ready: %v\n%s", waitErr, out.String())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("gstored not ready after 30s\n%s", out.String())
		}
	}

	var reply struct {
		Reached int `json:"reached"`
	}
	body := request(t, http.MethodGet, base+"/graphs/k/bfs?root=0", "")
	if err := json.Unmarshal([]byte(body), &reply); err != nil || reply.Reached != want {
		t.Fatalf("GET bfs?root=0 = %s (%v); want reached %d, as gstore bfs -root 0", body, err, want)
	}
	var ack struct {
		Applied int    `json:"applied"`
		Seq     uint64 `json:"seq"`
	}
	body = request(t, http.MethodPost, base+"/graphs/k/edges", `{"edges":[{"src":0,"dst":1000}]}`)
	if err := json.Unmarshal([]byte(body), &ack); err != nil || ack.Applied != 1 || ack.Seq == 0 {
		t.Fatalf("POST edges = %s (%v); want one applied edge and a sequence number", body, err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if waitErr != nil {
			t.Fatalf("gstored exited with %v after SIGTERM\n%s", waitErr, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("gstored still running 30s after SIGTERM\n%s", out.String())
	}
	if !strings.Contains(out.String(), "gstored: signal received, draining") {
		t.Fatalf("no draining line:\n%s", out.String())
	}
}

// request sends one HTTP request and returns the body of its 200 reply.
func request(t *testing.T, method, url, body string) string {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %s %s", method, url, resp.Status, b)
	}
	return string(b)
}
