package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hcd/internal/obs"
)

// logBuffer is a goroutine-safe sink for the structured log.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond for up to a second — the access log and ring are
// written in the observed wrapper's defer, which may still be running
// when the client has the response.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRequestIDCorrelation is the end-to-end slice of the request
// observability layer: one request ID, supplied by the client, must
// come back on the response header and correlate the structured access
// log, the /debug/requests ring, and the exported Chrome trace.
func TestRequestIDCorrelation(t *testing.T) {
	logs := &logBuffer{}
	s := newTestServer(t, func(c *Config) {
		c.Logger = slog.New(slog.NewJSONHandler(logs, nil))
	})
	publish(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const rid = "rid-e2e-correlate-42"
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/search?metric=average-degree", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", rid)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != rid {
		t.Errorf("response X-Request-ID = %q, want %q", got, rid)
	}
	if resp.Header.Get("X-Queue-Wait-Ns") == "" {
		t.Error("admitted response missing X-Queue-Wait-Ns")
	}

	// Correlation point 1: the access log line carries the rid plus the
	// serving context.
	waitFor(t, "access log line", func() bool { return strings.Contains(logs.String(), rid) })
	var line map[string]any
	for _, l := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("log line is not JSON: %q", l)
		}
		if m["rid"] == rid {
			line = m
		}
	}
	if line == nil {
		t.Fatalf("no log line with rid %q:\n%s", rid, logs.String())
	}
	for k, want := range map[string]any{
		"route": "search", "verdict": verdictServed, "status": float64(200),
		"epoch": float64(1), "metric": "average-degree",
	} {
		if line[k] != want {
			t.Errorf("log %s = %v, want %v", k, line[k], want)
		}
	}

	// Correlation point 2: /debug/requests holds the completed record
	// under the same ID.
	var rec map[string]any
	waitFor(t, "/debug/requests record", func() bool {
		_, body := get(t, ts, "/debug/requests")
		for _, r := range body["requests"].([]any) {
			m := r.(map[string]any)
			if m["id"] == rid {
				rec = m
				return true
			}
		}
		return false
	})
	if rec["route"] != "search" || rec["verdict"] != verdictServed {
		t.Errorf("ring record = %v, want served search", rec)
	}
	if rec["epoch"] != float64(1) {
		t.Errorf("ring epoch = %v, want 1", rec["epoch"])
	}

	// Correlation point 3: the exported Chrome trace tags the request's
	// span tree — the serve.request root and the nested search spans all
	// carry args.rid, so they share one per-request lane.
	var trace bytes.Buffer
	if err := obs.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	out := trace.String()
	if n := strings.Count(out, rid); n < 2 {
		t.Fatalf("trace mentions rid %d times, want the full span tree (>= 2):\n%s", n, out)
	}
	for _, span := range []string{`"serve.request"`, `"serve.request.exec"`, `"search"`} {
		if !strings.Contains(out, span) {
			t.Errorf("trace missing span %s", span)
		}
	}
}

// TestObservedShedAndGeneratedID checks a refused request is classified
// (not-ready shed before any snapshot exists), gets a generated ID when
// the inbound one is unusable, and lands in the ring with its error.
func TestObservedShedAndGeneratedID(t *testing.T) {
	s := newTestServer(t, nil) // no snapshot published
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/search?metric=average-degree", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "bad id with spaces") // must be replaced
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-ID")
	if rid == "" || strings.Contains(rid, " ") {
		t.Fatalf("generated rid %q must be non-empty and space-free", rid)
	}

	waitFor(t, "shed record in ring", func() bool {
		_, body := get(t, ts, "/debug/requests")
		for _, r := range body["requests"].([]any) {
			m := r.(map[string]any)
			if m["id"] == rid {
				return m["verdict"] == verdictShedNoSnap &&
					m["status"] == float64(503) &&
					m["error"] != ""
			}
		}
		return false
	})
}

// TestPanicVerdict checks a contained handler panic is classified as
// one panicked request: 500 on the wire, verdict "panic" in the ring.
func TestPanicVerdict(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.observed("search", Protect(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	recs := s.ring.snapshot(1)
	if len(recs) != 1 {
		t.Fatalf("ring has %d records, want 1", len(recs))
	}
	if recs[0].Verdict != verdictPanic || recs[0].Status != 500 {
		t.Errorf("record = %+v, want panic/500", recs[0])
	}
	if !strings.Contains(recs[0].Error, "kaboom") {
		t.Errorf("record error %q does not carry the panic value", recs[0].Error)
	}
}

// TestSlowQueryLog checks a served query at or above the threshold is
// logged at Warn and marked slow in the ring.
func TestSlowQueryLog(t *testing.T) {
	logs := &logBuffer{}
	s := newTestServer(t, func(c *Config) {
		c.Logger = slog.New(slog.NewJSONHandler(logs, nil))
		c.SlowQuery = time.Nanosecond // everything is slow
	})
	publish(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, body := get(t, ts, "/search?metric=average-degree"); status != http.StatusOK {
		t.Fatalf("status %d body %v", status, body)
	}
	waitFor(t, "slow-query warning", func() bool {
		return strings.Contains(logs.String(), "slow query") &&
			strings.Contains(logs.String(), `"WARN"`)
	})
	waitFor(t, "slow record", func() bool {
		recs := s.ring.snapshot(0)
		for _, r := range recs {
			if r.Route == "search" && r.Slow {
				return true
			}
		}
		return false
	})
}

// TestDebugRequestsLimit checks ordering (newest first) and the limit
// parameter.
func TestDebugRequestsLimit(t *testing.T) {
	s := newTestServer(t, nil)
	publish(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		get(t, ts, "/healthz")
	}
	waitFor(t, "three ring records", func() bool { return len(s.ring.snapshot(0)) >= 3 })
	_, body := get(t, ts, "/debug/requests?limit=1")
	reqs := body["requests"].([]any)
	// The /debug/requests call itself may have landed in the ring before
	// this response was assembled; only the count is deterministic.
	if len(reqs) != 1 {
		t.Fatalf("limit=1 returned %d records", len(reqs))
	}
	if status, _ := get(t, ts, "/debug/requests?limit=bogus"); status != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", status)
	}
}

// TestDebugRequestsVerdictFilter checks ?verdict= narrows the ring to
// matching records (filtering before the limit), and that an unknown
// verdict is rejected with 400 naming the valid set.
func TestDebugRequestsVerdictFilter(t *testing.T) {
	s := newTestServer(t, nil)
	publish(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get(t, ts, "/search?metric=average-degree") // served
	get(t, ts, "/search?metric=bogus")          // client-error
	waitFor(t, "both records in the ring", func() bool {
		var served, clientErr bool
		for _, r := range s.ring.snapshot(0) {
			switch r.Verdict {
			case verdictServed:
				served = true
			case verdictClientError:
				clientErr = true
			}
		}
		return served && clientErr
	})

	_, body := get(t, ts, "/debug/requests?verdict=client-error")
	reqs := body["requests"].([]any)
	if len(reqs) == 0 {
		t.Fatal("verdict=client-error matched nothing")
	}
	for _, raw := range reqs {
		rec := raw.(map[string]any)
		if rec["verdict"] != verdictClientError {
			t.Errorf("filtered result carries verdict %v, want %s", rec["verdict"], verdictClientError)
		}
	}

	// Filter applies before the limit: limit=1 on a filtered view still
	// returns a matching record, not "the newest request if it matches".
	_, body = get(t, ts, "/debug/requests?verdict=client-error&limit=1")
	reqs = body["requests"].([]any)
	if len(reqs) != 1 || reqs[0].(map[string]any)["verdict"] != verdictClientError {
		t.Errorf("verdict+limit returned %v", reqs)
	}

	status, body := get(t, ts, "/debug/requests?verdict=not-a-verdict")
	if status != http.StatusBadRequest {
		t.Fatalf("unknown verdict: status %d, want 400", status)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, verdictPanic) {
		t.Errorf("400 body should name the valid verdicts, got %q", msg)
	}
}

// TestSLOWindowMath pins the sliding-window arithmetic: availability
// excludes errors, attainment excludes slow responses, idle reports 1,
// and buckets age out of the window.
func TestSLOWindowMath(t *testing.T) {
	w := newSLOWindow(10 * time.Second)
	now := time.Unix(1000, 0)
	idle := w.snap(now)
	if idle.Availability != 1 || idle.LatencyAttainment != 1 || idle.Total != 0 {
		t.Fatalf("idle snapshot = %+v, want 1/1/0", idle)
	}
	for i := 0; i < 6; i++ {
		w.record(now, false, false)
	}
	w.record(now, true, false) // one error
	w.record(now, false, true) // one slow success
	got := w.snap(now)
	if got.Total != 8 || got.Errors != 1 || got.Slow != 1 {
		t.Fatalf("counts = %+v, want 8/1/1", got)
	}
	if want := 1 - 1.0/8; got.Availability != want {
		t.Errorf("availability = %v, want %v", got.Availability, want)
	}
	if want := 1 - float64(1)/float64(7); got.LatencyAttainment != want {
		t.Errorf("attainment = %v, want %v", got.LatencyAttainment, want)
	}
	// The whole window ages out.
	aged := w.snap(now.Add(30 * time.Second))
	if aged.Total != 0 || aged.Availability != 1 {
		t.Errorf("aged snapshot = %+v, want empty", aged)
	}
}

// TestStatsSLOSection checks /stats carries the SLO block and that a
// served query moves its totals.
func TestStatsSLOSection(t *testing.T) {
	s := newTestServer(t, nil)
	publish(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get(t, ts, "/search?metric=average-degree")
	waitFor(t, "slo total", func() bool {
		_, body := get(t, ts, "/stats")
		slo := body["slo"].(map[string]any)
		return slo["total"].(float64) >= 1
	})
	_, body := get(t, ts, "/stats")
	slo := body["slo"].(map[string]any)
	if slo["window_seconds"].(float64) != 60 {
		t.Errorf("window_seconds = %v, want default 60", slo["window_seconds"])
	}
	if slo["availability"].(float64) <= 0 {
		t.Errorf("availability = %v, want > 0", slo["availability"])
	}
}

// TestMetricsScrapeUnderStorm scrapes /metrics while a request storm is
// in flight and checks the exposition stays valid Prometheus text
// format carrying the serve metric families — the mid-storm scrape the
// CI chaos job performs.
func TestMetricsScrapeUnderStorm(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxInflight = 2
		c.QueueDepth = 64
		c.QueueWait = time.Minute
	})
	publish(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := ts.Client().Get(ts.URL + "/search?metric=average-degree")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	for scrape := 0; scrape < 3; scrape++ {
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape %d: status %d", scrape, resp.StatusCode)
		}
		validatePrometheus(t, body.String())
	}
}

// validatePrometheus checks text-format shape line by line and the
// presence of the request-observability metric families.
func validatePrometheus(t *testing.T, out string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("metric line %q: want 'name value'", line)
		}
		name := fields[0]
		if strings.ContainsAny(name, " \t") || (strings.Contains(name, "{") && !strings.HasSuffix(name, "}")) {
			t.Fatalf("malformed metric name %q", name)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("metric line %q: bad value: %v", line, err)
		}
	}
	for _, fam := range []string{
		"hcd_serve_route_requests_total{route=\"search\"}",
		"hcd_serve_route_ns",
		"hcd_serve_queue_wait_ns",
		"hcd_serve_epoch",
		"hcd_serve_snapshot_age_ns",
		"hcd_serve_rebuild_lag_ns",
		"hcd_serve_slots_total",
		"hcd_serve_slot_utilization_pct",
		"hcd_serve_slow_total",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("exposition missing family %s", fam)
		}
	}
}
