package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanRecord is one completed span in the ring buffer. Times are
// nanoseconds relative to the tracer's epoch.
type spanRecord struct {
	name  string
	tag   string // optional correlation tag (e.g. a request ID); "" when absent
	arg   int64  // optional argument (e.g. the level k); argNone when absent
	start int64
	dur   int64
}

const argNone = int64(-1 << 62)

// Tracer records completed spans into a fixed-capacity ring buffer: the
// newest spans win, old ones are overwritten, and recording never
// allocates after construction. Safe for concurrent use.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	buf     []spanRecord
	next    int
	count   uint64 // total spans ever recorded (wrapped ones included)
	dropped uint64 // spans overwritten before they could be exported
}

// traceDropped makes ring-buffer truncation observable: every span
// overwritten before export increments it (across all tracers in the
// process), so a truncated -trace export is visible in /metrics instead
// of silently missing history.
var traceDropped = NewCounter("hcd_trace_dropped_total",
	"spans overwritten in a trace ring buffer before they could be exported")

// NewTracer returns a tracer holding up to capacity completed spans
// (minimum 16).
func NewTracer(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	return &Tracer{epoch: time.Now(), buf: make([]spanRecord, 0, capacity)}
}

// defaultTracer receives every span opened through the package-level
// entry points. 32k spans ≈ a few thousand PHCD levels of history.
var defaultTracer = NewTracer(1 << 15)

// DefaultTracer returns the package-level tracer the pipeline records to.
func DefaultTracer() *Tracer { return defaultTracer }

// record appends one completed span, overwriting the oldest when full.
func (t *Tracer) record(r spanRecord) {
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, r)
	} else {
		t.buf[t.next] = r
		t.next++
		if t.next == len(t.buf) {
			t.next = 0
		}
		t.dropped++
		traceDropped.Inc()
	}
	t.count++
	t.mu.Unlock()
}

// Reset drops every recorded span (the capacity is kept). For tests and
// for tools that want a trace scoped to one command. The dropped count
// resets with the buffer; the hcd_trace_dropped_total counter does not.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.buf = t.buf[:0]
	t.next = 0
	t.count = 0
	t.dropped = 0
	t.mu.Unlock()
}

// Dropped returns how many recorded spans have been overwritten in the
// ring before export — nonzero means WriteTrace's output is truncated
// history, not the whole run.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanCount returns the number of spans ever recorded, including any
// that have been overwritten in the ring.
func (t *Tracer) SpanCount() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// snapshot copies the recorded spans out in start-time order.
func (t *Tracer) snapshot() []spanRecord {
	t.mu.Lock()
	out := make([]spanRecord, len(t.buf))
	copy(out, t.buf)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// WriteTrace serialises the recorded spans as Chrome trace-event JSON
// ("X" complete events, microsecond timestamps), loadable directly in
// chrome://tracing or https://ui.perfetto.dev.
//
// Untagged spans (the build/search pipeline) share track 1. Tagged spans
// — request-scoped spans opened through StartSpanCtx/StartSpanTag — get
// one track per tag in first-appearance order, so every request renders
// as its own lane with the tag exported as args.rid; a single request ID
// therefore selects the complete span tree of that request.
func (t *Tracer) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	lanes := map[string]int{}
	for i, r := range t.snapshot() {
		if i > 0 {
			bw.WriteByte(',')
		}
		tid := 1
		if r.tag != "" {
			var ok bool
			if tid, ok = lanes[r.tag]; !ok {
				tid = 2 + len(lanes)
				lanes[r.tag] = tid
			}
		}
		fmt.Fprintf(bw, "\n{\"name\":%q,\"cat\":\"hcd\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
			r.name, tid, float64(r.start)/1e3, float64(r.dur)/1e3)
		switch {
		case r.tag != "" && r.arg != argNone:
			fmt.Fprintf(bw, ",\"args\":{\"k\":%d,\"rid\":%q}", r.arg, r.tag)
		case r.tag != "":
			fmt.Fprintf(bw, ",\"args\":{\"rid\":%q}", r.tag)
		case r.arg != argNone:
			fmt.Fprintf(bw, ",\"args\":{\"k\":%d}", r.arg)
		}
		bw.WriteByte('}')
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}

// WriteTrace exports the default tracer's spans (see Tracer.WriteTrace).
func WriteTrace(w io.Writer) error { return defaultTracer.WriteTrace(w) }

// ResetTrace clears the default tracer.
func ResetTrace() { defaultTracer.Reset() }

// workerAgg accumulates WorkerStats for the currently armed phase.
type workerAgg struct {
	busy      atomic.Int64
	maxBusy   atomic.Int64
	stints    atomic.Int64
	chunks    atomic.Int64
	active    atomic.Int64 // stints currently running
	maxActive atomic.Int64 // high-water mark of active
}

func (a *workerAgg) stats() WorkerStats {
	return WorkerStats{
		Stints:     a.stints.Load(),
		MaxWorkers: a.maxActive.Load(),
		Chunks:     a.chunks.Load(),
		Busy:       time.Duration(a.busy.Load()),
		MaxBusy:    time.Duration(a.maxBusy.Load()),
	}
}

// curAgg is the armed phase's aggregation; nil disarms the worker hooks.
var curAgg atomic.Pointer[workerAgg]

// Span is one open interval of work. Open it with StartSpan /
// StartSpanArg / StartPhase and close it with End; spans opened while
// another is running nest under it in the exported trace by time
// containment. The zero Span is invalid; End on an already-ended span is
// a no-op.
type Span struct {
	tr      *Tracer
	name    string
	tag     string
	arg     int64
	start   time.Time
	agg     *workerAgg // non-nil for phases
	prevAgg *workerAgg
}

// StartSpan opens a plain trace span on the default tracer.
func StartSpan(name string) *Span {
	return &Span{tr: defaultTracer, name: name, arg: argNone, start: time.Now()}
}

// StartSpanArg is StartSpan with one integer argument (e.g. the level k)
// attached to the exported trace event.
func StartSpanArg(name string, arg int64) *Span {
	return &Span{tr: defaultTracer, name: name, arg: arg, start: time.Now()}
}

// StartPhase opens a span that additionally arms per-worker statistics:
// until End, every par worker stint is folded into this span's
// WorkerStats. Phases stack — an inner StartPhase captures the workers
// until its End restores the outer phase.
func StartPhase(name string) *Span {
	s := &Span{tr: defaultTracer, name: name, arg: argNone, agg: &workerAgg{}, start: time.Now()}
	s.prevAgg = curAgg.Swap(s.agg)
	return s
}

// End closes the span, records it, and returns its duration. For phases
// it also disarms the worker hooks (restoring any outer phase).
func (s *Span) End() time.Duration {
	if s == nil || s.tr == nil {
		return 0
	}
	d := time.Since(s.start)
	if s.agg != nil {
		curAgg.Store(s.prevAgg)
	}
	s.tr.record(spanRecord{
		name:  s.name,
		tag:   s.tag,
		arg:   s.arg,
		start: s.start.Sub(s.tr.epoch).Nanoseconds(),
		dur:   d.Nanoseconds(),
	})
	s.tr = nil
	return d
}

// WorkerStats returns the worker statistics gathered while the span was
// the armed phase (zero for plain spans). Valid during and after End.
func (s *Span) WorkerStats() WorkerStats {
	if s == nil || s.agg == nil {
		return WorkerStats{}
	}
	return s.agg.stats()
}

// WorkerStart opens one worker stint: par's primitives call it at worker
// entry and pass the returned mark to WorkerEnd. When no phase is armed
// it returns the zero time and costs one atomic load. An armed phase
// additionally tracks the stint in its concurrent-worker high-water
// mark.
func WorkerStart() time.Time {
	a := curAgg.Load()
	if a == nil {
		return time.Time{}
	}
	act := a.active.Add(1)
	raiseMax(&a.maxActive, act)
	return time.Now()
}

// WorkerEnd closes a worker stint opened by WorkerStart, folding its
// busy time and processed chunk count into the armed phase. A zero mark
// (no phase armed at stint start) is ignored. A phase swap between
// WorkerStart and WorkerEnd attributes the stint to the phase armed at
// its end — the same attribution blur the package comment documents for
// concurrent pipelines; counts never corrupt.
func WorkerEnd(mark time.Time, chunks int64) {
	if mark.IsZero() {
		return
	}
	a := curAgg.Load()
	if a == nil {
		return
	}
	a.active.Add(-1)
	busy := time.Since(mark).Nanoseconds()
	a.busy.Add(busy)
	a.stints.Add(1)
	a.chunks.Add(chunks)
	raiseMax(&a.maxBusy, busy)
}

// raiseMax lifts *m to at least v (CAS loop; monotone).
func raiseMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if cur >= v {
			return
		}
		if m.CompareAndSwap(cur, v) {
			return
		}
	}
}
