package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestRingOverwrite fills a small tracer past capacity: the lifetime
// count keeps growing while the buffer holds only the newest spans.
func TestRingOverwrite(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 40; i++ {
		tr.record(spanRecord{name: "s", arg: argNone, start: int64(i), dur: 1})
	}
	if tr.SpanCount() != 40 {
		t.Errorf("SpanCount = %d, want 40", tr.SpanCount())
	}
	snap := tr.snapshot()
	if len(snap) != 16 {
		t.Fatalf("snapshot len = %d, want capacity 16", len(snap))
	}
	// Newest 16 spans survive: starts 24..39.
	for i, r := range snap {
		if want := int64(24 + i); r.start != want {
			t.Errorf("snapshot[%d].start = %d, want %d", i, r.start, want)
		}
	}
}

// TestTracerDropped checks ring-buffer truncation is counted: a tracer
// over capacity reports every overwritten span, the package counter
// mirrors it, and Reset clears the per-tracer count but not the
// process-lifetime counter.
func TestTracerDropped(t *testing.T) {
	tr := NewTracer(16)
	before := traceDropped.Value()
	for i := 0; i < 20; i++ {
		tr.record(spanRecord{name: "s", arg: argNone, start: int64(i), dur: 1})
	}
	if got := tr.Dropped(); got != 4 {
		t.Errorf("Dropped = %d, want 4", got)
	}
	if delta := traceDropped.Value() - before; delta != 4 {
		t.Errorf("hcd_trace_dropped_total delta = %d, want 4", delta)
	}
	tr.Reset()
	if tr.Dropped() != 0 {
		t.Errorf("Dropped after Reset = %d, want 0", tr.Dropped())
	}
	if delta := traceDropped.Value() - before; delta != 4 {
		t.Errorf("counter must survive Reset: delta = %d, want 4", delta)
	}
}

// TestMinimumCapacity checks the 16-span floor.
func TestMinimumCapacity(t *testing.T) {
	tr := NewTracer(1)
	for i := 0; i < 16; i++ {
		tr.record(spanRecord{name: "s", arg: argNone})
	}
	if got := len(tr.snapshot()); got != 16 {
		t.Errorf("capacity-1 tracer holds %d spans, want 16", got)
	}
}

// TestWriteTraceOmitsAbsentArgs checks argNone spans carry no args block.
func TestWriteTraceOmitsAbsentArgs(t *testing.T) {
	tr := NewTracer(16)
	tr.record(spanRecord{name: "noarg", arg: argNone, start: 0, dur: 5})
	tr.record(spanRecord{name: "witharg", arg: 7, start: 1, dur: 3})
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, `"args"`) != 1 {
		t.Errorf("want exactly one args block:\n%s", out)
	}
	if !strings.Contains(out, `"args":{"k":7}`) {
		t.Errorf("missing k=7 args:\n%s", out)
	}
}

// TestWriteTraceTagLanes checks tagged spans get one track per tag (in
// first-appearance order, starting at tid 2) with the tag exported as
// args.rid, while untagged spans stay on track 1.
func TestWriteTraceTagLanes(t *testing.T) {
	tr := NewTracer(16)
	tr.record(spanRecord{name: "pipeline", arg: argNone, start: 0, dur: 5})
	tr.record(spanRecord{name: "serve.request", tag: "req-a", arg: argNone, start: 1, dur: 3})
	tr.record(spanRecord{name: "search", tag: "req-a", arg: 4, start: 2, dur: 1})
	tr.record(spanRecord{name: "serve.request", tag: "req-b", arg: argNone, start: 3, dur: 2})
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"tid":1`,                      // untagged pipeline span
		`"args":{"rid":"req-a"}`,       // tagged, no k
		`"args":{"k":4,"rid":"req-a"}`, // tagged with k
		`"args":{"rid":"req-b"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s:\n%s", want, out)
		}
	}
	if strings.Count(out, `"tid":2`) != 2 {
		t.Errorf("req-a spans must share track 2:\n%s", out)
	}
	if strings.Count(out, `"tid":3`) != 1 {
		t.Errorf("req-b must get track 3:\n%s", out)
	}
}

// TestReset drops the buffered spans and the lifetime count.
func TestReset(t *testing.T) {
	tr := NewTracer(16)
	tr.record(spanRecord{name: "s", arg: argNone})
	tr.Reset()
	if tr.SpanCount() != 0 || len(tr.snapshot()) != 0 {
		t.Errorf("after Reset: count=%d len=%d, want 0/0", tr.SpanCount(), len(tr.snapshot()))
	}
}

// TestSpanEndIdempotent checks nil and double End are safe no-ops.
func TestSpanEndIdempotent(t *testing.T) {
	var nilSpan *Span
	if d := nilSpan.End(); d != 0 {
		t.Errorf("nil End = %v, want 0", d)
	}
	sp := StartSpan("test.double-end")
	before := defaultTracer.SpanCount()
	sp.End()
	sp.End()
	if got := defaultTracer.SpanCount() - before; got != 1 {
		t.Errorf("double End recorded %d spans, want 1", got)
	}
}
