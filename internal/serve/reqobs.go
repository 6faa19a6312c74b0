// Request-telemetry state: the /debug/requests completed-request ring
// and the SLO sliding window.
package serve

import (
	"sync"
	"time"
)

// reqRing is a fixed-capacity overwrite ring of the most recent
// completed requests, in the spirit of net/trace's request log.
type reqRing struct {
	mu   sync.Mutex
	recs []RequestRecord
	next int // slot the next record lands in
	n    int // records stored, ≤ len(recs)
}

func newReqRing(capacity int) *reqRing {
	if capacity <= 0 {
		capacity = 128
	}
	return &reqRing{recs: make([]RequestRecord, capacity)}
}

func (r *reqRing) add(rec RequestRecord) {
	r.mu.Lock()
	r.recs[r.next] = rec
	r.next = (r.next + 1) % len(r.recs)
	if r.n < len(r.recs) {
		r.n++
	}
	r.mu.Unlock()
}

// snapshot returns up to limit completed requests, newest first; limit
// 0 means all.
func (r *reqRing) snapshot(limit int) []RequestRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]RequestRecord, 0, n)
	for i := 1; i <= n; i++ {
		// Walk backwards from the most recently written slot.
		out = append(out, r.recs[(r.next-i+len(r.recs))%len(r.recs)])
	}
	return out
}

func (r *reqRing) cap() int { return len(r.recs) }

// sloWindow tracks query outcomes over a sliding window of per-second
// buckets. Recording touches exactly one bucket under a short mutex; a
// bucket is lazily reset when its second comes around again, so there is
// no ticker goroutine to manage.
type sloWindow struct {
	mu      sync.Mutex
	buckets []sloBucket // index = unix second mod len
}

type sloBucket struct {
	sec    int64 // unix second this bucket currently represents
	total  int64
	errors int64 // 5xx + sheds + timeouts + contained panics
	slow   int64 // served at or above the slow-query threshold
}

func newSLOWindow(window time.Duration) *sloWindow {
	secs := int(window / time.Second)
	if secs <= 0 {
		secs = 60
	}
	return &sloWindow{buckets: make([]sloBucket, secs)}
}

func (w *sloWindow) record(now time.Time, errored, slow bool) {
	sec := now.Unix()
	w.mu.Lock()
	b := &w.buckets[int(sec%int64(len(w.buckets)))]
	if b.sec != sec {
		*b = sloBucket{sec: sec}
	}
	b.total++
	if errored {
		b.errors++
	}
	if slow {
		b.slow++
	}
	w.mu.Unlock()
}

// sloSnapshot is the /stats "slo" section: availability is the served
// fraction (1 − errors/total), latencyAttainment the fraction of
// available responses under the slow-query threshold. Both report 1 on
// an idle window — no traffic is no violation.
type sloSnapshot struct {
	WindowSeconds     int     `json:"window_seconds"`
	Total             int64   `json:"total"`
	Errors            int64   `json:"errors"`
	Slow              int64   `json:"slow"`
	Availability      float64 `json:"availability"`
	LatencyAttainment float64 `json:"latency_attainment"`
}

func (w *sloWindow) snap(now time.Time) sloSnapshot {
	cutoff := now.Unix() - int64(len(w.buckets))
	out := sloSnapshot{WindowSeconds: len(w.buckets), Availability: 1, LatencyAttainment: 1}
	w.mu.Lock()
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.sec <= cutoff || b.total == 0 {
			continue
		}
		out.Total += b.total
		out.Errors += b.errors
		out.Slow += b.slow
	}
	w.mu.Unlock()
	if out.Total > 0 {
		out.Availability = 1 - float64(out.Errors)/float64(out.Total)
	}
	if ok := out.Total - out.Errors; ok > 0 {
		out.LatencyAttainment = 1 - float64(out.Slow)/float64(ok)
	}
	return out
}
