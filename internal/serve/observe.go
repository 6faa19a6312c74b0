// Request-scoped observability: every request gets an ID (inbound
// X-Request-ID honoured, otherwise generated), a mutable RequestRecord
// travelling in its context for handlers to annotate, a root obs span on
// query routes tagged with the ID so the Chrome-trace export shows the
// request as its own lane, per-route RED metrics, a structured access
// log (plus a
// slow-query log above Config.SlowQuery), the /debug/requests ring and
// the SLO sliding window.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hcd/internal/faultinject"
	"hcd/internal/obs"
)

// Verdicts classify how a request ended, for the access log, the
// /debug/requests ring and the error-class metric label. Shed verdicts
// are set by the admission pipeline; the rest are derived from the final
// status code (and the panic flag Protect sets).
const (
	verdictServed      = "served"            // 2xx
	verdictClientError = "client-error"      // 4xx other than shed refusals
	verdictShedQueue   = "shed-queue-full"   // 429 at arrival
	verdictShedWait    = "shed-wait-expired" // 503 after queueing
	verdictShedCancel  = "shed-cancelled"    // client left while queued
	verdictShedDrain   = "shed-draining"     // refused during drain
	verdictShedNoSnap  = "shed-not-ready"    // no snapshot published yet
	verdictTimeout     = "timeout"           // 504, query deadline exceeded
	verdictPanic       = "panic"             // contained handler panic
	verdictError       = "error"             // other 5xx
)

// RequestRecord is one completed request as exposed at /debug/requests
// and logged by the access log. Handlers annotate the in-flight record
// through the request context; the completed copy is immutable.
type RequestRecord struct {
	ID          string    `json:"id"`
	Route       string    `json:"route"`
	Method      string    `json:"method"`
	Path        string    `json:"path"`
	Start       time.Time `json:"start"`
	DurationNS  int64     `json:"duration_ns"`
	QueueWaitNS int64     `json:"queue_wait_ns,omitempty"`
	Status      int       `json:"status"`
	Verdict     string    `json:"verdict"`
	Epoch       uint64    `json:"epoch,omitempty"`
	Metric      string    `json:"metric,omitempty"`
	Error       string    `json:"error,omitempty"`
	FaultSite   string    `json:"fault_site,omitempty"`
	Slow        bool      `json:"slow,omitempty"`

	panicked bool
	gated    bool // admission-gated query route: counts toward the SLO window
}

// reqKey carries the in-flight *RequestRecord in the request context.
type reqKey struct{}

// requestFrom returns the in-flight record, nil outside a request.
func requestFrom(ctx context.Context) *RequestRecord {
	if ctx == nil {
		return nil
	}
	rec, _ := ctx.Value(reqKey{}).(*RequestRecord)
	return rec
}

// noteError annotates the in-flight record with the error a handler is
// about to respond with, including the fault site of an injected panic,
// so /debug/requests diagnoses a failed request without its body.
func noteError(r *http.Request, err error) {
	rec := requestFrom(r.Context())
	if rec == nil || err == nil {
		return
	}
	rec.Error = err.Error()
	var f *faultinject.Fault
	if errors.As(err, &f) {
		rec.FaultSite = f.Site
	}
}

// Request-ID generation: a per-process base (start time in base 36) plus
// a sequence number. Unique within and across restarts, cheap, and
// trivially greppable.
var (
	ridSeq atomic.Uint64
	// Wall-clock read at init is deliberate: the base makes IDs from two
	// server incarnations distinguishable in aggregated logs.
	ridBase = strconv.FormatInt(time.Now().UnixNano(), 36)
)

// requestID returns the inbound X-Request-ID when it is usable (1-128
// printable non-space ASCII characters) or mints a fresh ID.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); validRequestID(id) {
		return id
	}
	return "r" + ridBase + "-" + strconv.FormatUint(ridSeq.Add(1), 10)
}

func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// statusWriter captures the status code (and whether anything was
// written) so the observed wrapper can classify the response after the
// handler tree — including Protect's contained-panic 500s — has run.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status = status
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// Flush keeps streaming endpoints (pprof profiles) working through the
// wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// routeStats is one route's RED instrumentation: request rate, errors by
// class, and a latency histogram. Registered once per route at mux
// assembly.
type routeStats struct {
	requests *obs.Counter
	duration *obs.Histogram
	errors   map[string]*obs.Counter
}

// errorClasses are the hcd_serve_route_errors_total class label values.
var errorClasses = []string{"4xx", "5xx", "shed", "timeout", "panic"}

func newRouteStats(route string) *routeStats {
	rs := &routeStats{
		requests: obs.NewCounter(obs.Name("hcd_serve_route_requests_total", "route", route),
			"requests completed on this route"),
		duration: obs.NewHistogram(obs.Name("hcd_serve_route_ns", "route", route),
			"request latency on this route, shed and failed requests included"),
		errors: make(map[string]*obs.Counter, len(errorClasses)),
	}
	for _, class := range errorClasses {
		rs.errors[class] = obs.NewCounter(obs.Name("hcd_serve_route_errors_total", "route", route, "class", class),
			"requests that failed on this route, by failure class")
	}
	return rs
}

// errorClass maps a completed record onto its error-class label, "" for
// a success.
func errorClass(rec *RequestRecord) string {
	switch {
	case rec.Status < 400:
		return ""
	case rec.Verdict == verdictPanic:
		return "panic"
	case rec.Verdict == verdictTimeout:
		return "timeout"
	case rec.Verdict == verdictShedQueue, rec.Verdict == verdictShedWait,
		rec.Verdict == verdictShedCancel, rec.Verdict == verdictShedDrain,
		rec.Verdict == verdictShedNoSnap:
		return "shed"
	case rec.Status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// classify fills the verdict from the final status for records the
// admission pipeline did not already classify.
func classify(rec *RequestRecord) {
	if rec.Verdict != "" {
		return
	}
	switch {
	case rec.panicked:
		rec.Verdict = verdictPanic
	case rec.Status < 400:
		rec.Verdict = verdictServed
	case rec.Status == http.StatusGatewayTimeout:
		rec.Verdict = verdictTimeout
	case rec.Status < 500:
		rec.Verdict = verdictClientError
	default:
		rec.Verdict = verdictError
	}
}

var mSlow = obs.NewCounter("hcd_serve_slow_total",
	"served queries at or above the slow-query threshold")

// observed wraps one route with the request-observability envelope: ID
// assignment and echo, the tagged root span, status capture, verdict
// classification, RED metrics, access/slow logging, the /debug/requests
// ring and the SLO window. It sits outside Protect, so a contained panic
// is still one observed (and correctly classified) request.
func (s *Server) observed(route string, h http.Handler) http.Handler {
	rs := newRouteStats(route)
	opsRoute := route != "search" && route != "reconstruct"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := requestID(r)
		rec := &RequestRecord{
			ID:     rid,
			Route:  route,
			Method: r.Method,
			Path:   r.URL.Path,
			Start:  start,
			Status: http.StatusOK,
		}
		// Query routes get the tagged root span — their own lane in the
		// trace export. Ops routes (probes, scrapes) are logged, ring'd
		// and counted but not traced per request: a 1 Hz health prober
		// would otherwise spawn a lane per poll and evict the query spans
		// the ring exists to keep. (*Span).End is nil-safe.
		ctx := r.Context()
		var sp *obs.Span
		if !opsRoute {
			ctx = obs.ContextWithTag(ctx, rid)
			sp = obs.StartSpanCtx(ctx, "serve.request")
		}
		ctx = context.WithValue(ctx, reqKey{}, rec)
		// Direct map assignment with the pre-canonicalized key: this is
		// the hottest line of the envelope, and Header().Set would
		// re-canonicalize on every request.
		w.Header()["X-Request-Id"] = []string{rid}
		sw := &statusWriter{ResponseWriter: w}

		defer func() {
			dur := time.Since(start)
			sp.End()
			if sw.wrote {
				rec.Status = sw.status
			}
			rec.DurationNS = dur.Nanoseconds()
			classify(rec)
			slow := rec.gated && rec.Verdict == verdictServed && dur >= s.cfg.SlowQuery
			rec.Slow = slow

			rs.requests.Inc()
			rs.duration.Observe(dur)
			class := errorClass(rec)
			if class != "" {
				rs.errors[class].Inc()
			}
			if slow {
				mSlow.Inc()
			}
			if rec.gated {
				errored := class == "5xx" || class == "panic" || class == "shed" || class == "timeout"
				s.slo.record(start.Add(dur), errored, slow)
			}
			s.ring.add(*rec)
			s.logRequest(rec, opsRoute)
		}()

		h.ServeHTTP(sw, r.WithContext(ctx))
	})
}

// logRequest emits the structured access-log line (and the slow-query
// warning). Query routes log at Info; operational routes (/healthz
// polls, /metrics scrapes) at Debug so a probed server stays quiet at
// the default level.
func (s *Server) logRequest(rec *RequestRecord, opsRoute bool) {
	level := slog.LevelInfo
	switch {
	case rec.Slow:
		level = slog.LevelWarn
	case opsRoute:
		level = slog.LevelDebug
	}
	// The early Enabled check keeps the per-request cost of a disabled
	// level (the common case: ops routes at the default Info floor, or a
	// discarding logger in benchmarks) to one branch — attribute boxing
	// below is the expensive part.
	if !s.slog.Enabled(context.Background(), level) {
		return
	}
	attrs := []any{
		"rid", rec.ID,
		"route", rec.Route,
		"method", rec.Method,
		"verdict", rec.Verdict,
		"status", rec.Status,
		"dur", time.Duration(rec.DurationNS),
	}
	if rec.QueueWaitNS > 0 {
		attrs = append(attrs, "queue_wait", time.Duration(rec.QueueWaitNS))
	}
	if rec.Epoch > 0 {
		attrs = append(attrs, "epoch", rec.Epoch)
	}
	if rec.Metric != "" {
		attrs = append(attrs, "metric", rec.Metric)
	}
	if rec.Error != "" {
		attrs = append(attrs, "error", rec.Error)
	}
	if rec.FaultSite != "" {
		attrs = append(attrs, "fault_site", rec.FaultSite)
	}
	msg := "request"
	if rec.Slow {
		msg = "slow query"
		attrs = append(attrs, "threshold", s.cfg.SlowQuery)
	}
	s.slog.Log(context.Background(), level, msg, attrs...)
}

// knownVerdicts enumerates every verdict the classifier can produce, for
// validating the /debug/requests?verdict= filter: an unknown value is a
// typo (or a stale runbook) and gets a 400 naming the valid set, never a
// silently empty result.
var knownVerdicts = map[string]bool{
	verdictServed:      true,
	verdictClientError: true,
	verdictShedQueue:   true,
	verdictShedWait:    true,
	verdictShedCancel:  true,
	verdictShedDrain:   true,
	verdictShedNoSnap:  true,
	verdictTimeout:     true,
	verdictPanic:       true,
	verdictError:       true,
}

// verdictNames returns the valid filter values, sorted, for error text.
func verdictNames() []string {
	names := make([]string, 0, len(knownVerdicts))
	for v := range knownVerdicts {
		names = append(names, v)
	}
	sort.Strings(names)
	return names
}

// handleDebugRequests serves the completed-request ring, newest first —
// the net/trace-style live view. ?limit=N truncates; ?verdict=panic (or
// any other classifier verdict) filters to matching requests, with
// unknown verdicts rejected as 400.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	limit, err := formInt(r.URL.Query().Get("limit"), "limit")
	if err != nil || limit < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: bad limit", errBadRequest))
		return
	}
	verdict := r.URL.Query().Get("verdict")
	if verdict != "" && !knownVerdicts[verdict] {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: unknown verdict %q (valid: %s)",
			errBadRequest, verdict, strings.Join(verdictNames(), ", ")))
		return
	}
	// Filter before truncating, so ?verdict=panic&limit=10 means "the 10
	// newest panics", not "panics among the 10 newest requests".
	recs := s.ring.snapshot(0)
	if verdict != "" {
		kept := recs[:0]
		for _, rec := range recs {
			if rec.Verdict == verdict {
				kept = append(kept, rec)
			}
		}
		recs = kept
	}
	if limit > 0 && int64(len(recs)) > limit {
		recs = recs[:limit]
	}
	if recs == nil {
		recs = []RequestRecord{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"capacity": s.ring.cap(),
		"requests": recs,
	})
}
