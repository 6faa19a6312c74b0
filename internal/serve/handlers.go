package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"hcd"
	"hcd/internal/faultinject"
	"hcd/internal/obs"
)

// gated wraps a query handler with the admission path: drain and
// readiness refusals first (cheapest, and drain must win over
// everything), then the limiter. The admitted request carries the
// snapshot it will serve against — loaded exactly once, so a swap
// mid-request is invisible to it.
func (s *Server) gated(h func(http.ResponseWriter, *http.Request, *Snapshot)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := requestFrom(r.Context()) // nil when driven outside observed (direct tests)
		if rec != nil {
			rec.gated = true
		}
		shed := func(status int, verdict string, err error) {
			if rec != nil {
				rec.Verdict = verdict
			}
			noteError(r, err)
			writeError(w, status, err)
		}
		if s.draining.Load() {
			mShed.Inc()
			w.Header().Set("Connection", "close")
			shed(http.StatusServiceUnavailable, verdictShedDrain, errors.New("serve: draining"))
			return
		}
		snap := s.cur.Load()
		if snap == nil {
			mShed.Inc()
			shed(http.StatusServiceUnavailable, verdictShedNoSnap, errors.New("serve: no snapshot published yet"))
			return
		}
		// No span around the uncontended admission fast path (one atomic
		// CAS); when the request actually queues for a slot, admit opens
		// the serve.request.wait span, so the trace shows the wait exactly
		// when there is one.
		wait, v := s.lim.admit(r.Context())
		if rec != nil {
			rec.QueueWaitNS = wait.Nanoseconds()
			rec.Epoch = snap.Epoch
		}
		switch v {
		case shedQueueFull:
			shed(http.StatusTooManyRequests, verdictShedQueue, errors.New("serve: admission queue full"))
			return
		case shedWaitExpired:
			shed(http.StatusServiceUnavailable, verdictShedWait, errors.New("serve: saturated, queue wait expired"))
			return
		case shedCancelled:
			shed(http.StatusServiceUnavailable, verdictShedCancel, errors.New("serve: request cancelled while queued"))
			return
		}
		defer s.lim.release()
		// The queue wait rides back as a header so load generators (and
		// the serve benchmark's queue-wait cells) can measure admission
		// pressure without parsing logs.
		w.Header()["X-Queue-Wait-Ns"] = []string{strconv.FormatInt(wait.Nanoseconds(), 10)}
		// The serve.query fault site panics *inside* the admitted request
		// — the exact blast radius a contained kernel panic has; Protect
		// turns either into a JSON 500 with the fault chain, and the
		// deferred release above still frees the slot during unwinding.
		faultinject.Maybe("serve.query")
		sp := obs.StartSpanCtx(r.Context(), "serve.request.exec")
		start := time.Now()
		defer func() {
			mLatency.Observe(time.Since(start))
			sp.End()
			if s.draining.Load() {
				mDrained.Inc()
			}
		}()
		h(w, r, snap)
	}
}

// queryErrorStatus maps a query error onto a status code: the client's
// deadline → 504, a cancelled context (drain escalation or a departed
// client) → 503, a contained kernel panic or anything else → 500.
func queryErrorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// searchResponse is the JSON body of a successful /search.
type searchResponse struct {
	Epoch  uint64 `json:"epoch"`
	Metric string `json:"metric"`
	Found  bool   `json:"found"`
	Node   int32  `json:"node,omitempty"`
	K      int32  `json:"k,omitempty"`
	// Score is formatted as a string so non-finite values (a weighted
	// metric can legitimately produce -Inf on a filtered-out node set)
	// survive the trip through JSON, which has no encoding for them.
	Score     string         `json:"score,omitempty"`
	Values    *primaryValues `json:"values,omitempty"`
	ElapsedNS int64          `json:"elapsed_ns"`
}

// primaryValues mirrors hcd.PrimaryValues with stable JSON names.
type primaryValues struct {
	N         int64 `json:"n"`
	M         int64 `json:"m"`
	B         int64 `json:"b"`
	Triangles int64 `json:"triangles"`
	Triplets  int64 `json:"triplets"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, snap *Snapshot) {
	req, m, err := DecodeSearchRequest(r)
	if err != nil {
		noteError(r, err)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if rec := requestFrom(r.Context()); rec != nil {
		rec.Metric = m.Name()
	}
	timeout := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	var res hcd.SearchResult
	if req.MinSize > 0 || req.MaxSize > 0 {
		res, err = snap.Searcher.BestConstrainedCtx(ctx, m, req.MinSize, req.MaxSize, s.queryOpts())
	} else {
		res, _, err = snap.Searcher.BestCtx(ctx, m, s.queryOpts())
	}
	if err != nil {
		noteError(r, err)
		writeError(w, queryErrorStatus(err), err)
		return
	}
	resp := searchResponse{
		Epoch:     snap.Epoch,
		Metric:    m.Name(),
		ElapsedNS: time.Since(start).Nanoseconds(),
	}
	if res.Node != hcd.NilNode {
		resp.Found = true
		resp.Node = int32(res.Node)
		resp.K = res.K
		resp.Score = fmt.Sprintf("%g", res.Score)
		resp.Values = &primaryValues{
			N: res.Values.N, M: res.Values.M, B: res.Values.B,
			Triangles: res.Values.Triangles, Triplets: res.Values.Triplets,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// reconstructResponse is the JSON body of a successful /reconstruct.
type reconstructResponse struct {
	Epoch     uint64  `json:"epoch"`
	Found     bool    `json:"found"`
	Node      int32   `json:"node,omitempty"`
	K         int32   `json:"k,omitempty"`
	Count     int     `json:"count"`
	Truncated bool    `json:"truncated,omitempty"`
	Vertices  []int32 `json:"vertices"`
}

func (s *Server) handleReconstruct(w http.ResponseWriter, r *http.Request, snap *Snapshot) {
	req, err := DecodeReconstructRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	h := snap.Searcher.Hierarchy()
	resp := reconstructResponse{Epoch: snap.Epoch, Vertices: []int32{}}
	switch {
	case req.byNode:
		if req.Node >= int64(h.NumNodes()) {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("%w: node %d out of range [0, %d)", errBadRequest, req.Node, h.NumNodes()))
			return
		}
		resp.Found = true
		resp.Node = int32(req.Node)
		resp.K = h.K[req.Node]
		resp.Vertices = snap.Searcher.CoreVertices(hcd.NodeID(req.Node))
	default:
		if req.V >= int64(h.NumVertices()) {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("%w: vertex %d out of range [0, %d)", errBadRequest, req.V, h.NumVertices()))
			return
		}
		vs := snap.Local.KCore(int32(req.V), int32(req.K))
		if vs != nil {
			resp.Found = true
			resp.K = int32(req.K)
			resp.Vertices = vs
		}
	}
	resp.Count = len(resp.Vertices)
	if req.Limit > 0 && int64(len(resp.Vertices)) > req.Limit {
		resp.Vertices = resp.Vertices[:req.Limit]
		resp.Truncated = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// statsResponse is the JSON body of /stats: service state plus the
// published snapshot's shape, when one exists.
type statsResponse struct {
	Ready      bool         `json:"ready"`
	Draining   bool         `json:"draining"`
	Rebuilding bool         `json:"rebuilding"`
	Epoch      uint64       `json:"epoch"`
	BuiltAt    string       `json:"built_at,omitempty"`
	Build      string       `json:"build,omitempty"`
	Graph      *graphStats  `json:"graph,omitempty"`
	Hierarchy  *forestStats `json:"hierarchy,omitempty"`
	// Footprint is the published snapshot's deterministic resident-memory
	// account (bytes per component, computed from array lengths).
	Footprint *Footprint    `json:"footprint,omitempty"`
	Serve     serveCounters `json:"serve"`
	// SLO reports query availability and latency-threshold attainment
	// over the sliding Config.SLOWindow.
	SLO sloSnapshot `json:"slo"`
}

type graphStats struct {
	N int   `json:"n"`
	M int64 `json:"m"`
}

type forestStats struct {
	Nodes  int   `json:"nodes"`
	Roots  int   `json:"roots"`
	Height int32 `json:"height"`
	KMax   int32 `json:"kmax"`
}

type serveCounters struct {
	Inflight       int64 `json:"inflight"`
	Queue          int64 `json:"queue"`
	Admitted       int64 `json:"admitted"`
	Shed           int64 `json:"shed"`
	Drained        int64 `json:"drained"`
	Panics         int64 `json:"panics"`
	Slow           int64 `json:"slow"`
	RebuildRetries int64 `json:"rebuild_retries"`
	Swaps          int64 `json:"swaps"`
	// LatencyP50NS / LatencyP99NS are bucket-interpolated request-latency
	// quantiles; QueueWaitP99NS is the same for the admission queue wait.
	LatencyP50NS   int64 `json:"latency_p50_ns"`
	LatencyP99NS   int64 `json:"latency_p99_ns"`
	QueueWaitP99NS int64 `json:"queue_wait_p99_ns"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.refreshGauges()
	resp := statsResponse{
		Ready:      s.Ready(),
		Draining:   s.draining.Load(),
		Rebuilding: s.rebuilding.Load() > 0,
		Serve: serveCounters{
			Inflight:       mInflight.Value(),
			Queue:          mQueue.Value(),
			Admitted:       mAdmitted.Value(),
			Shed:           mShed.Value(),
			Drained:        mDrained.Value(),
			Panics:         mPanics.Value(),
			Slow:           mSlow.Value(),
			RebuildRetries: mRebuildRetries.Value(),
			Swaps:          mSwaps.Value(),
			LatencyP50NS:   mLatency.Quantile(0.50).Nanoseconds(),
			LatencyP99NS:   mLatency.Quantile(0.99).Nanoseconds(),
			QueueWaitP99NS: mQueueWait.Quantile(0.99).Nanoseconds(),
		},
		SLO: s.slo.snap(time.Now()),
	}
	if snap := s.cur.Load(); snap != nil {
		resp.Epoch = snap.Epoch
		resp.BuiltAt = snap.BuiltAt.UTC().Format(time.RFC3339Nano)
		resp.Build = snap.Report.Summary()
		resp.Graph = &graphStats{N: snap.Graph.NumVertices(), M: snap.Graph.NumEdges()}
		resp.Hierarchy = &forestStats{
			Nodes:  snap.Stats.Nodes,
			Roots:  snap.Stats.Roots,
			Height: snap.Stats.Height,
			KMax:   snap.Stats.KMax,
		}
		f := snap.Footprint()
		resp.Footprint = &f
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("serve: /reload requires POST"))
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: draining"))
		return
	}
	triggered := s.triggerReload("reload")
	writeJSON(w, http.StatusAccepted, map[string]bool{"triggered": triggered, "pending": !triggered})
}

// handleHealthz is liveness: the process is up and the handler tree is
// responding. It stays 200 through drains and failed rebuilds — those
// are readiness conditions.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true, "draining": s.draining.Load()})
}

// handleReadyz is readiness: 200 only when a snapshot is published and
// the server is accepting queries, 503 (with the reason) otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"ready":      s.Ready(),
		"draining":   s.draining.Load(),
		"rebuilding": s.rebuilding.Load() > 0,
		"epoch":      s.Epoch(),
	}
	status := http.StatusOK
	if !s.Ready() {
		status = http.StatusServiceUnavailable
		// Not-ready carries Retry-After like every other 503 the service
		// emits, so a probe loop backs off instead of hammering.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, body)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no route %s", r.URL.Path))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"service": "hcdserve",
		"routes":  "/search /reconstruct /stats /reload /healthz /readyz /metrics /trace /debug/requests /debug/",
	})
}
