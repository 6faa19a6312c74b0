package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestContextTagRoundTrip checks the tag travels in the context and the
// Ctx constructors stamp it onto the spans they open.
func TestContextTagRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := Tag(ctx); got != "" {
		t.Errorf("Tag(background) = %q, want empty", got)
	}
	if got := Tag(nil); got != "" { //nolint:staticcheck // nil-safety is part of the contract
		t.Errorf("Tag(nil) = %q, want empty", got)
	}
	tagged := ContextWithTag(ctx, "rid-1")
	if got := Tag(tagged); got != "rid-1" {
		t.Errorf("Tag = %q, want rid-1", got)
	}
	if got := ContextWithTag(ctx, ""); got != ctx {
		t.Error("empty tag must return ctx unchanged")
	}

	sp := StartSpanCtx(tagged, "test.ctxspan")
	if sp.tag != "rid-1" {
		t.Errorf("StartSpanCtx tag = %q, want rid-1", sp.tag)
	}
	sp.End()
	sp = StartSpanCtxArg(tagged, "test.ctxspan.arg", 9)
	if sp.tag != "rid-1" || sp.arg != 9 {
		t.Errorf("StartSpanCtxArg = (%q, %d), want (rid-1, 9)", sp.tag, sp.arg)
	}
	sp.End()
	sp = StartSpanTag("test.tagspan", "rid-2")
	if sp.tag != "rid-2" {
		t.Errorf("StartSpanTag tag = %q, want rid-2", sp.tag)
	}
	sp.End()
}

// TestStartPhaseCtxArmsWorkers checks the ctx phase constructor arms the
// worker hooks exactly like StartPhase and records the tag.
func TestStartPhaseCtxArmsWorkers(t *testing.T) {
	ctx := ContextWithTag(context.Background(), "rid-phase")
	sp := StartPhaseCtx(ctx, "test.ctxphase")
	mark := WorkerStart()
	if mark.IsZero() {
		t.Fatal("phase must arm the worker hooks")
	}
	WorkerEnd(mark, 3)
	sp.End()
	ws := sp.WorkerStats()
	if ws.Stints != 1 || ws.Chunks != 3 {
		t.Errorf("WorkerStats = %+v, want 1 stint / 3 chunks", ws)
	}
	if sp.tag != "rid-phase" {
		t.Errorf("phase tag = %q, want rid-phase", sp.tag)
	}
}

// TestTaggedSpanExportsOnOwnLane is the end-to-end slice of request
// correlation inside obs: a span opened under a tagged context lands in
// the exported trace on a per-tag track carrying args.rid.
func TestTaggedSpanExportsOnOwnLane(t *testing.T) {
	tr := NewTracer(16)
	ctx := ContextWithTag(context.Background(), "rid-e2e")
	sp := StartSpanCtx(ctx, "test.lane")
	sp.tr = tr // redirect to the private tracer to keep the test hermetic
	sp.End()
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"args":{"rid":"rid-e2e"}`) {
		t.Errorf("exported trace missing rid args:\n%s", buf.String())
	}
}
