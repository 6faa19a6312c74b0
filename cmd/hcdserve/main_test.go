package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"hcd/internal/gen"
)

// syncBuffer is a mutex-guarded bytes.Buffer: run writes to it from the
// server goroutine while the test polls it for the listen address.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func writeTestGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := gen.ErdosRenyi(200, 800, 3).WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

var addrRe = regexp.MustCompile(`http://(127\.0\.0\.1:\d+)/`)

// TestRunServesAndDrainsCleanly drives the command end to end in
// process: serve a real graph on an ephemeral port, query it over HTTP,
// then cancel the context (the SIGTERM path) and require exit code 0.
func TestRunServesAndDrainsCleanly(t *testing.T) {
	path := writeTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, []string{"-in", path, "-addr", "127.0.0.1:0", "-threads", "2"}, &stdout, &stderr)
	}()

	var base string
	for i := 0; i < 1000 && base == ""; i++ {
		if m := addrRe.FindStringSubmatch(stdout.String()); m != nil {
			base = "http://" + m[1]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if base == "" {
		t.Fatalf("no listen address announced; stderr: %s", stderr.String())
	}

	// Wait for readiness, then check one real query round-trips.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if ok {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready; stderr: %s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(base + "/search?metric=average-degree&min_size=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !json.Valid(body) {
		t.Fatalf("search: status %d body %q", resp.StatusCode, body)
	}
	var sr struct {
		Found bool   `json:"found"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &sr); err != nil || !sr.Found || sr.Epoch != 1 {
		t.Fatalf("search body %s (err %v)", body, err)
	}

	cancel()
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("exit code %d after graceful drain, want 0; stderr: %s", c, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after cancellation")
	}
	if !strings.Contains(stderr.String(), "drain: complete") {
		t.Errorf("drain completion not logged; stderr: %s", stderr.String())
	}
}

// TestRunUsageErrors pins the usage exit code for operator mistakes.
func TestRunUsageErrors(t *testing.T) {
	path := writeTestGraph(t)
	cases := [][]string{
		{}, // -in missing
		{"-in", path, "-format", "xml"},
		{"-in", path, "-kernel", "warp-drive"},
		{"-in", path, "-kernel", "hindex"},
		{"-in", path, "positional"},
		{"-in", path, "-faults", "not-a-spec"},
	}
	for _, args := range cases {
		var out, errb syncBuffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}

	// A bad spec in HCD_FAULTS is the same mistake. The context is
	// already cancelled, so a server that wrongly starts drains at once
	// instead of hanging the test.
	t.Setenv("HCD_FAULTS", "not-a-spec")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb syncBuffer
	if code := run(ctx, []string{"-in", path, "-addr", "127.0.0.1:0"}, &out, &errb); code != 2 {
		t.Errorf("HCD_FAULTS=not-a-spec: exit %d, want 2 (stderr: %s)", code, errb.String())
	}
}
