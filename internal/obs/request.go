package obs

import (
	"context"
	"time"
)

// Request-scoped tracing: a correlation tag (typically a request ID)
// travels in the context, and the Ctx span constructors stamp it onto
// every span they open. The exported Chrome trace gives each tag its own
// track and attaches the tag as args.rid, so one request ID selects the
// full span tree of that request — admission, queue wait, and the search
// kernels it ran — across the shared ring buffer.
//
// The tag is carried by the obs package (not the caller) so kernel-level
// code deep below a request handler needs nothing but its context to
// participate; callers outside a request (hcdtool builds, benchmarks)
// pass untagged contexts and get exactly the old single-track behaviour.

// tagKey is the context key the correlation tag travels under.
type tagKey struct{}

// ContextWithTag returns a context carrying the correlation tag every
// span opened through the Ctx constructors will be stamped with. An
// empty tag returns ctx unchanged.
func ContextWithTag(ctx context.Context, tag string) context.Context {
	if tag == "" {
		return ctx
	}
	return context.WithValue(ctx, tagKey{}, tag)
}

// Tag returns the correlation tag carried by ctx, "" when none is set
// (or ctx is nil).
func Tag(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if tag, ok := ctx.Value(tagKey{}).(string); ok {
		return tag
	}
	return ""
}

// StartSpanTag opens a span carrying an explicit correlation tag.
func StartSpanTag(name, tag string) *Span {
	return &Span{tr: defaultTracer, name: name, tag: tag, arg: argNone, start: time.Now()}
}

// StartSpanCtx is StartSpan stamped with the tag carried by ctx (plain
// StartSpan behaviour when ctx carries none).
func StartSpanCtx(ctx context.Context, name string) *Span {
	return &Span{tr: defaultTracer, name: name, tag: Tag(ctx), arg: argNone, start: time.Now()}
}

// StartSpanCtxArg is StartSpanArg stamped with the tag carried by ctx.
func StartSpanCtxArg(ctx context.Context, name string, arg int64) *Span {
	return &Span{tr: defaultTracer, name: name, tag: Tag(ctx), arg: arg, start: time.Now()}
}

// StartPhaseCtx is StartPhase stamped with the tag carried by ctx: the
// span arms the per-worker statistics exactly like StartPhase and is
// additionally attributed to the request in the exported trace.
func StartPhaseCtx(ctx context.Context, name string) *Span {
	s := &Span{tr: defaultTracer, name: name, tag: Tag(ctx), arg: argNone, agg: &workerAgg{}, start: time.Now()}
	s.prevAgg = curAgg.Swap(s.agg)
	return s
}
