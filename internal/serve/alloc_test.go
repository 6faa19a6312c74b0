package serve

import (
	"context"
	"testing"
	"time"
)

// TestAdmitFastPathAllocFree pins the uncontended admission path at
// zero allocations: with a free execution slot, admit is a channel
// send, two atomic bumps and a histogram observe — no closure, no
// timer, no span. This is the path every request takes on a healthy
// server, so one allocation here is one allocation per served request.
func TestAdmitFastPathAllocFree(t *testing.T) {
	l := newLimiter(4, 4, time.Millisecond)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(500, func() {
		wait, v := l.admit(ctx)
		if v != admitOK || wait != 0 {
			t.Fatalf("fast path not taken: verdict %v wait %v", v, wait)
		}
		l.release()
	})
	if allocs != 0 {
		t.Fatalf("uncontended admit allocates %.1f objects per request, want 0", allocs)
	}
}

// BenchmarkAdmitFastPathAllocs reports the uncontended admission cost
// with allocation accounting, for the perf-smoke and race-matrix CI
// legs.
func BenchmarkAdmitFastPathAllocs(b *testing.B) {
	l := newLimiter(4, 4, time.Millisecond)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, v := l.admit(ctx); v == admitOK {
			l.release()
		}
	}
}
