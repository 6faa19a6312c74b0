package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hcd/internal/obs"
	"hcd/internal/par"
)

// TestCounterConcurrent hammers one counter from par.For workers; the
// total must be exact (the -race build also proves the hot path clean).
func TestCounterConcurrent(t *testing.T) {
	c := obs.NewCounter("test_counter_concurrent_total", "test")
	before := c.Value()
	const n, perItem = 10000, 3
	par.ForEach(n, 8, func(int) {
		c.Inc()
		c.Add(perItem - 1)
	})
	if got := c.Value() - before; got != n*perItem {
		t.Errorf("counter delta = %d, want %d", got, n*perItem)
	}
}

// TestGauge checks Set/Add and that registration is idempotent.
func TestGauge(t *testing.T) {
	g := obs.NewGauge("test_gauge", "test")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
	if g2 := obs.NewGauge("test_gauge", "other help"); g2 != g {
		t.Error("re-registration returned a different gauge")
	}
}

// TestHistogramConcurrent observes durations from par.For workers and
// checks count, sum, and the cumulative bucket invariant via Snapshot.
func TestHistogramConcurrent(t *testing.T) {
	h := obs.NewHistogram("test_histogram_seconds", "test")
	base := h.Count()
	const n = 4096
	par.ForEach(n, 8, func(i int) {
		h.Observe(time.Duration(i) * time.Microsecond)
	})
	if got := h.Count() - base; got != n {
		t.Errorf("histogram count delta = %d, want %d", got, n)
	}
	if h.Sum() <= 0 {
		t.Errorf("histogram sum = %v, want > 0", h.Sum())
	}
	snap := obs.Snapshot()
	hs, ok := snap.Histograms["test_histogram_seconds"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	for i := 1; i < len(hs.BucketCounts); i++ {
		if hs.BucketCounts[i] < hs.BucketCounts[i-1] {
			t.Fatalf("bucket counts not cumulative at %d: %v", i, hs.BucketCounts)
		}
	}
	if last := hs.BucketCounts[len(hs.BucketCounts)-1]; last != hs.Count {
		t.Errorf("last cumulative bucket = %d, want count %d", last, hs.Count)
	}
}

// TestHistogramQuantile checks the interpolated quantile estimator:
// ordering, bucket-resolution accuracy, and the edge cases (empty
// histogram, q clamping, +Inf overflow clamping).
func TestHistogramQuantile(t *testing.T) {
	h := obs.NewHistogram("test_quantile_seconds", "test")
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	// 1000 observations spread uniformly over [1ms, 2ms): the median
	// must land inside a bucket containing 1.5ms, i.e. within the 2x
	// bucket-resolution bound of the truth.
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond + time.Duration(i)*time.Microsecond)
	}
	p50 := h.Quantile(0.5)
	if p50 < 750*time.Microsecond || p50 > 3*time.Millisecond {
		t.Errorf("p50 = %v, want within bucket resolution of 1.5ms", p50)
	}
	for _, qs := range [][2]float64{{0.1, 0.5}, {0.5, 0.9}, {0.9, 1.0}} {
		if a, b := h.Quantile(qs[0]), h.Quantile(qs[1]); a > b {
			t.Errorf("quantiles not monotone: q%.1f=%v > q%.1f=%v", qs[0], a, qs[1], b)
		}
	}
	if lo, hi := h.Quantile(-1), h.Quantile(2); lo > hi {
		t.Errorf("clamped quantiles inverted: %v > %v", lo, hi)
	}
	// An observation beyond the largest finite bound (~17.2s) lands in
	// the +Inf bucket and must clamp, not explode.
	h2 := obs.NewHistogram("test_quantile_overflow_seconds", "test")
	h2.Observe(time.Hour)
	if got := h2.Quantile(0.99); got <= 0 || got > 20*time.Second {
		t.Errorf("overflow quantile = %v, want clamped to the largest finite bound", got)
	}
}

// TestHistogramMerge checks Merge is bucket-wise addition and that
// merged quantiles see both inputs.
func TestHistogramMerge(t *testing.T) {
	a := obs.NewHistogram("test_merge_a_seconds", "test")
	b := obs.NewHistogram("test_merge_b_seconds", "test")
	for i := 0; i < 100; i++ {
		a.Observe(time.Millisecond)
		b.Observe(time.Second)
	}
	a.Merge(nil) // must be a no-op
	a.Merge(a)   // self-merge must be a no-op, not a double-count
	if a.Count() != 100 {
		t.Fatalf("self-merge changed count: %d", a.Count())
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Errorf("merged count = %d, want 200", a.Count())
	}
	wantSum := 100*time.Millisecond + 100*time.Second
	if a.Sum() != wantSum {
		t.Errorf("merged sum = %v, want %v", a.Sum(), wantSum)
	}
	if b.Count() != 100 {
		t.Errorf("merge mutated its argument: count = %d", b.Count())
	}
	// Quantiles straddle the two populations: p25 near 1ms, p75 near 1s.
	if p := a.Quantile(0.25); p > 10*time.Millisecond {
		t.Errorf("merged p25 = %v, want near 1ms", p)
	}
	if p := a.Quantile(0.75); p < 100*time.Millisecond {
		t.Errorf("merged p75 = %v, want near 1s", p)
	}
}

// TestSpansConcurrent opens and closes spans from many par workers at
// once: the recorder must stay race-clean and count every span.
func TestSpansConcurrent(t *testing.T) {
	tr := obs.DefaultTracer()
	before := tr.SpanCount()
	const n = 2000
	par.ForEach(n, 8, func(i int) {
		obs.StartSpanArg("test.span", int64(i)).End()
	})
	if got := tr.SpanCount() - before; got != n {
		t.Errorf("span count delta = %d, want %d", got, n)
	}
}

// chromeTrace is the subset of the Chrome trace-event format the tests
// decode.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Args map[string]int64 `json:"args"`
	} `json:"traceEvents"`
}

// TestWriteTraceJSON checks the export is valid Chrome trace JSON with
// the recorded span present, ordered by start time, args attached.
func TestWriteTraceJSON(t *testing.T) {
	obs.ResetTrace()
	sp := obs.StartSpan("test.outer")
	obs.StartSpanArg("test.inner", 42).End()
	sp.End()

	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(tr.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(tr.TraceEvents))
	}
	for i, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.Cat != "hcd" {
			t.Errorf("event %d = %+v, want ph=X cat=hcd", i, ev)
		}
		if i > 0 && ev.Ts < tr.TraceEvents[i-1].Ts {
			t.Errorf("events out of start order at %d", i)
		}
	}
	// Outer opened first: it sorts first and must contain the inner.
	outer, inner := tr.TraceEvents[0], tr.TraceEvents[1]
	if outer.Name != "test.outer" || inner.Name != "test.inner" {
		t.Fatalf("order = %s, %s", outer.Name, inner.Name)
	}
	if inner.Ts+inner.Dur > outer.Ts+outer.Dur+1 { // 1µs slack for rounding
		t.Errorf("inner [%f,+%f] not contained in outer [%f,+%f]",
			inner.Ts, inner.Dur, outer.Ts, outer.Dur)
	}
	if inner.Args["k"] != 42 {
		t.Errorf("inner args = %v, want k=42", inner.Args)
	}
}

// TestPhaseWorkerStats arms a phase around parallel work and checks the
// worker statistics the par hooks feed in.
func TestPhaseWorkerStats(t *testing.T) {
	sp := obs.StartPhase("test.phase")
	err := par.ForChunkedErr(context.Background(), 256, 4, 16, func(lo, hi int) error {
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	d := sp.End()
	if err != nil {
		t.Fatal(err)
	}
	w := sp.WorkerStats()
	if w.Stints <= 0 {
		t.Fatalf("stints = %d, want > 0", w.Stints)
	}
	if w.Chunks < w.Stints {
		t.Errorf("chunks = %d < stints = %d", w.Chunks, w.Stints)
	}
	if w.MaxWorkers < 1 || w.MaxWorkers > w.Stints {
		t.Errorf("max workers = %d, want in [1, %d]", w.MaxWorkers, w.Stints)
	}
	if w.Busy <= 0 || w.MaxBusy <= 0 || w.MaxBusy > w.Busy {
		t.Errorf("busy = %v, maxBusy = %v", w.Busy, w.MaxBusy)
	}
	if s := w.Skew(); s < 1 {
		t.Errorf("skew = %f, want >= 1", s)
	}
	if d <= 0 {
		t.Errorf("duration = %v, want > 0", d)
	}
}

// TestPhaseStacking checks an inner phase captures the workers while
// armed and its End restores the outer phase's aggregation.
func TestPhaseStacking(t *testing.T) {
	outer := obs.StartPhase("test.outer-phase")
	inner := obs.StartPhase("test.inner-phase")
	par.ForEach(64, 4, func(int) {})
	inner.End()
	par.ForEach(64, 4, func(int) {})
	outer.End()
	iw, ow := inner.WorkerStats(), outer.WorkerStats()
	if iw.Stints <= 0 {
		t.Errorf("inner stints = %d, want > 0", iw.Stints)
	}
	if ow.Stints <= 0 {
		t.Errorf("outer stints = %d, want > 0 (post-inner work)", ow.Stints)
	}
}

// TestWorkerHooksDisarmed checks the hooks are inert with no phase armed.
func TestWorkerHooksDisarmed(t *testing.T) {
	if mark := obs.WorkerStart(); !mark.IsZero() {
		t.Errorf("WorkerStart with no armed phase = %v, want zero", mark)
	}
	obs.WorkerEnd(time.Time{}, 1) // must not panic or record
}

// TestName checks the labelled-name assembly.
func TestName(t *testing.T) {
	if got := obs.Name("hcd_x_total"); got != "hcd_x_total" {
		t.Errorf("Name no labels = %q", got)
	}
	got := obs.Name("hcd_x_total", "site", "phcd.step2", "mode", "panic")
	want := `hcd_x_total{site="phcd.step2",mode="panic"}`
	if got != want {
		t.Errorf("Name = %q, want %q", got, want)
	}
}

// TestWritePrometheus checks the text exposition contains the TYPE
// headers, the values, and spliced histogram buckets.
func TestWritePrometheus(t *testing.T) {
	c := obs.NewCounter(obs.Name("test_promexpo_total", "site", "a"), "test")
	c.Add(5)
	h := obs.NewHistogram("test_promexpo_seconds", "test")
	h.Observe(3 * time.Millisecond)
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_promexpo_total counter",
		`test_promexpo_total{site="a"} 5`,
		"# TYPE test_promexpo_seconds histogram",
		`test_promexpo_seconds_bucket{le="+Inf"}`,
		"test_promexpo_seconds_sum",
		"test_promexpo_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHandlerEndpoints drives the debug handler over httptest: the
// index, /metrics, /trace, /debug/vars and the pprof index must answer.
func TestHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()
	for path, want := range map[string]string{
		"/":             "/metrics",
		"/metrics":      "# TYPE",
		"/trace":        "traceEvents",
		"/debug/vars":   "hcd.obs",
		"/debug/pprof/": "profile",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("%s: body missing %q", path, want)
		}
	}
}
