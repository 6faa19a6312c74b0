package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hcd"
	"hcd/internal/faultinject"
	"hcd/internal/gen"
)

func testGraph() *hcd.Graph { return gen.ErdosRenyi(300, 1500, 7) }

// newTestServer builds a Server over the deterministic test graph with
// test-friendly timings; mut tweaks the config before New.
func newTestServer(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Load:              func() (*hcd.Graph, error) { return testGraph(), nil },
		Build:             hcd.Options{Threads: 2},
		RebuildBackoff:    time.Millisecond,
		RebuildBackoffMax: 4 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func publish(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// get fetches path and decodes the JSON body, failing the test on any
// response that is not complete, valid JSON — the no-torn-responses
// invariant every endpoint must uphold.
func get(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	if !json.Valid(body) {
		t.Fatalf("GET %s: response is not valid JSON: %q", path, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, m
}

func TestSearchMatchesDirectQuery(t *testing.T) {
	s := newTestServer(t, nil)
	publish(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := testGraph()
	_, _, direct := hcd.BuildAndIndex(g, hcd.Options{Threads: 2})
	want := direct.Best(hcd.AverageDegree(), hcd.Options{Threads: 2})

	status, body := get(t, ts, "/search?metric=average-degree")
	if status != http.StatusOK {
		t.Fatalf("status %d, body %v", status, body)
	}
	if body["found"] != true {
		t.Fatalf("found=false: %v", body)
	}
	if got := int64(body["node"].(float64)); got != int64(want.Node) {
		t.Errorf("node %d, want %d", got, want.Node)
	}
	if got := int64(body["k"].(float64)); got != int64(want.K) {
		t.Errorf("k %d, want %d", got, want.K)
	}
	if got := body["score"].(string); got != fmt.Sprintf("%g", want.Score) {
		t.Errorf("score %s, want %g", got, want.Score)
	}
	if got := uint64(body["epoch"].(float64)); got != 1 {
		t.Errorf("epoch %d, want 1", got)
	}
}

func TestSearchConstrainedAndWeighted(t *testing.T) {
	s := newTestServer(t, nil)
	publish(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// An unsatisfiable size floor: every k-core is smaller than the graph
	// can't be, so the search must come back found=false, not error.
	status, body := get(t, ts, "/search?metric=average-degree&min_size=100000")
	if status != http.StatusOK || body["found"] != false {
		t.Fatalf("impossible min_size: status %d body %v", status, body)
	}

	status, body = get(t, ts, "/search?weighted=average-degree:1,cut-ratio:0.5&min_size=2")
	if status != http.StatusOK || body["found"] != true {
		t.Fatalf("weighted constrained: status %d body %v", status, body)
	}

	// POST body form of the same query.
	resp, err := ts.Client().Post(ts.URL+"/search", "application/json",
		strings.NewReader(`{"weighted":[{"metric":"average-degree","coeff":1}],"min_size":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST search: status %d body %s", resp.StatusCode, b)
	}
}

func TestBadRequestsYield400(t *testing.T) {
	s := newTestServer(t, nil)
	publish(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []string{
		"/search?metric=no-such-metric",
		"/search?min_size=-1",
		"/search?min_size=10&max_size=5",
		"/search?max_size=-3",
		"/search?timeout_ms=-5",
		"/search?timeout_ms=999999999999",
		"/search?min_size=99999999999999999999999999", // overflows int64
		"/search?weighted=average-degree:NaN",
		"/search?weighted=average-degree:+Inf",
		"/search?weighted=average-degree:-1",
		"/search?weighted=average-degree",                      // no coefficient
		"/search?weighted=nope:1",                              // unknown metric in term
		"/search?metric=conductance&weighted=average-degree:1", // mutually exclusive
		"/reconstruct",                                         // neither node nor v/k
		"/reconstruct?node=1&v=2&k=3",                          // both
		"/reconstruct?v=5",                                     // k missing
		"/reconstruct?v=-1&k=2",
		"/reconstruct?v=5&k=0",
		"/reconstruct?node=99999999999", // out of range
		"/reconstruct?v=4&k=3000000000", // k beyond int32
		"/reconstruct?node=1&limit=-2",
	}
	for _, path := range cases {
		status, body := get(t, ts, path)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %v", path, status, body)
		}
	}

	// Bad JSON bodies and methods.
	resp, err := ts.Client().Post(ts.URL+"/search", "application/json", strings.NewReader(`{"metric":`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: status %d, want 400", resp.StatusCode)
	}
	resp, err = ts.Client().Post(ts.URL+"/search", "application/json", strings.NewReader(`{"surprise":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/search", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT /search: status %d, want 400", resp.StatusCode)
	}
}

func TestReconstructMatchesHierarchy(t *testing.T) {
	s := newTestServer(t, nil)
	publish(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	snap := s.cur.Load()

	status, body := get(t, ts, "/reconstruct?node=0")
	if status != http.StatusOK || body["found"] != true {
		t.Fatalf("node=0: status %d body %v", status, body)
	}
	want := snap.Searcher.CoreVertices(0)
	if got := int(body["count"].(float64)); got != len(want) {
		t.Errorf("node=0 count %d, want %d", got, len(want))
	}

	// The v/k path must agree with the LocalQuery index directly.
	core := snap.Core
	v := int32(0)
	k := core[v]
	status, body = get(t, ts, fmt.Sprintf("/reconstruct?v=%d&k=%d", v, k))
	if status != http.StatusOK || body["found"] != true {
		t.Fatalf("v/k: status %d body %v", status, body)
	}
	if got, want := int(body["count"].(float64)), len(snap.Local.KCore(v, k)); got != want {
		t.Errorf("v/k count %d, want %d", got, want)
	}

	// A k above the vertex's coreness has no containing core: found=false.
	status, body = get(t, ts, fmt.Sprintf("/reconstruct?v=%d&k=%d", v, k+100))
	if status != http.StatusOK || body["found"] != false {
		t.Fatalf("v with too-high k: status %d body %v", status, body)
	}

	// limit truncates but reports the full count.
	status, body = get(t, ts, "/reconstruct?node=0&limit=1")
	if status != http.StatusOK {
		t.Fatalf("limit: status %d", status)
	}
	if n := len(body["vertices"].([]any)); len(want) > 1 && (n != 1 || body["truncated"] != true) {
		t.Errorf("limit=1: got %d vertices, truncated=%v", n, body["truncated"])
	}
}

func TestLivenessVsReadiness(t *testing.T) {
	// Before any snapshot: live but not ready, and queries shed 503.
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, _ := get(t, ts, "/healthz"); status != http.StatusOK {
		t.Errorf("healthz before snapshot: %d, want 200", status)
	}
	if status, body := get(t, ts, "/readyz"); status != http.StatusServiceUnavailable || body["ready"] != false {
		t.Errorf("readyz before snapshot: %d %v", status, body)
	}
	resp, err := ts.Client().Get(ts.URL + "/search?metric=average-degree")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("search before snapshot: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	publish(t, s)
	if status, body := get(t, ts, "/readyz"); status != http.StatusOK || body["ready"] != true {
		t.Errorf("readyz after snapshot: %d %v", status, body)
	}
	if status, body := get(t, ts, "/stats"); status != http.StatusOK || body["epoch"].(float64) != 1 {
		t.Errorf("stats: %d %v", status, body)
	}
}

func TestRebuildRetryAndLastGoodSnapshot(t *testing.T) {
	var fail atomic.Bool
	var loads atomic.Int64
	s := newTestServer(t, func(c *Config) {
		good := c.Load
		c.Load = func() (*hcd.Graph, error) {
			loads.Add(1)
			if fail.Load() {
				return nil, errors.New("input store unavailable")
			}
			return good()
		}
		c.RebuildMaxAttempts = 3
	})
	publish(t, s)
	retriesBefore := mRebuildRetries.Value()
	abandonedBefore := mRebuildAbandoned.Value()

	// Every attempt of this round fails: the round must retry exactly
	// RebuildMaxAttempts times, then abandon, keeping epoch 1 serving.
	fail.Store(true)
	loadsBefore := loads.Load()
	if err := s.Rebuild(context.Background()); !errors.Is(err, errRebuildFailed) {
		t.Fatalf("Rebuild with failing load: err %v, want errRebuildFailed", err)
	}
	if got := loads.Load() - loadsBefore; got != 3 {
		t.Errorf("load attempts %d, want 3", got)
	}
	if got := mRebuildRetries.Value() - retriesBefore; got != 3 {
		t.Errorf("retry counter advanced by %d, want 3", got)
	}
	if got := mRebuildAbandoned.Value() - abandonedBefore; got != 1 {
		t.Errorf("abandoned counter advanced by %d, want 1", got)
	}
	if !s.Ready() || s.Epoch() != 1 {
		t.Fatalf("last-good snapshot lost: ready=%v epoch=%d", s.Ready(), s.Epoch())
	}

	// Recovery: the next round succeeds and bumps the epoch.
	fail.Store(false)
	publish(t, s)
	if s.Epoch() != 2 {
		t.Fatalf("epoch %d after recovery, want 2", s.Epoch())
	}
}

func TestRebuildContainsInjectedPanics(t *testing.T) {
	for _, site := range []string{"serve.rebuild", "serve.swap"} {
		s := newTestServer(t, nil)
		if err := faultinject.Enable(site + ":panic:1"); err != nil {
			t.Fatal(err)
		}
		// First attempt panics at the site; the retry must publish.
		err := s.Rebuild(context.Background())
		faultinject.Disable()
		if err != nil {
			t.Fatalf("%s: Rebuild did not recover: %v", site, err)
		}
		if s.Epoch() != 1 {
			t.Fatalf("%s: epoch %d, want 1", site, s.Epoch())
		}
	}
}

func TestProtectContainsPanicsIntoJSON500(t *testing.T) {
	h := Protect(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(errors.New("handler exploded"))
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("500 body is not valid JSON: %q", rec.Body.String())
	}
	var resp errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "handler exploded") {
		t.Errorf("error %q does not carry the panic value", resp.Error)
	}
	if len(resp.Chain) == 0 {
		t.Error("fault chain empty; want the unwrapped panic cause")
	}
}

func TestAdmissionVerdicts(t *testing.T) {
	l := newLimiter(1, 1, 50*time.Millisecond)
	_, v := l.admit(context.Background())
	if v != admitOK {
		t.Fatalf("first admit: %v", v)
	}

	// Occupy the single queue slot in the background.
	queuedDone := make(chan verdict, 1)
	go func() {
		_, v := l.admit(context.Background())
		if v == admitOK {
			l.release()
		}
		queuedDone <- v
	}()
	// Wait until the goroutine is actually queued.
	for i := 0; l.queued.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if l.queued.Load() == 0 {
		t.Fatal("second admit never queued")
	}

	// A third arrival overflows the queue and is shed immediately.
	if _, v := l.admit(context.Background()); v != shedQueueFull {
		t.Fatalf("overflow arrival: %v, want shedQueueFull", v)
	}

	// Releasing the slot admits the queued waiter.
	l.release()
	if v := <-queuedDone; v != admitOK {
		t.Fatalf("queued waiter: %v, want admitOK", v)
	}

	// With the slot held again and nothing releasing it, a queued
	// request times out into shedWaitExpired.
	if _, v := l.admit(context.Background()); v != admitOK {
		t.Fatalf("re-acquire: %v", v)
	}
	defer l.release()
	if wait, v := l.admit(context.Background()); v != shedWaitExpired {
		t.Fatalf("starved waiter: %v, want shedWaitExpired", v)
	} else if wait <= 0 {
		t.Errorf("starved waiter reported wait %v, want > 0", wait)
	}

	// A queued request whose client departs is shed as cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	if _, v := l.admit(ctx); v != shedCancelled {
		t.Fatalf("cancelled waiter: %v, want shedCancelled", v)
	}
}

func TestRunLifecycleReloadAndDrain(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.DrainTimeout = 2 * time.Second
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, ln) }()

	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if err := s.WaitReady(wctx); err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	resp, err := http.Post(base+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/reload: status %d, want 202", resp.StatusCode)
	}
	for i := 0; s.Epoch() < 2 && i < 1000; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Epoch() < 2 {
		t.Fatal("reload never published a new snapshot")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v, want nil (the exit-0 path)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not drain")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after drain")
	}
}

func TestWatchedFileTriggersRebuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := testGraph().WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(c *Config) {
		c.Load = func() (*hcd.Graph, error) { return hcd.ReadBinaryFile(path) }
		c.WatchPath = path
		c.WatchInterval = 5 * time.Millisecond
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, ln) }()

	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if err := s.WaitReady(wctx); err != nil {
		t.Fatal(err)
	}

	// Replace the watched file with a different graph; the poll loop
	// must notice and publish a new epoch.
	if err := gen.ErdosRenyi(200, 800, 11).WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, time.Now(), time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	for i := 0; s.Epoch() < 2 && i < 2000; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Epoch() < 2 {
		t.Fatal("watched-file change never triggered a rebuild")
	}
	snap := s.cur.Load()
	if snap.Graph.NumVertices() != 200 {
		t.Errorf("new snapshot has n=%d, want the replaced graph's 200", snap.Graph.NumVertices())
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
}
