package obs

import (
	"bufio"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
)

// HistogramSnapshot is one histogram's state at Snapshot time.
type HistogramSnapshot struct {
	// Count is the number of observations, SumNS their summed duration.
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	// P50NS and P99NS are bucket-interpolated latency quantiles
	// (Histogram.Quantile), precomputed so JSON consumers (/debug/vars,
	// hcdserve /stats) get tail latency without re-deriving it from the
	// cumulative buckets.
	P50NS int64 `json:"p50_ns"`
	P99NS int64 `json:"p99_ns"`
	// BucketNS and BucketCounts are parallel: BucketCounts[i]
	// observations fell at or under BucketNS[i] nanoseconds (the last
	// entry is the +Inf overflow, BucketNS omits it). Cumulative.
	BucketNS     []int64 `json:"bucket_ns"`
	BucketCounts []int64 `json:"bucket_counts"`
}

// SnapshotData is a point-in-time copy of every registered metric, for
// programmatic access (and the expvar export).
type SnapshotData struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// Spans is the default tracer's lifetime span count.
	Spans uint64 `json:"spans"`
}

// Snapshot copies every registered metric's current value.
func Snapshot() SnapshotData {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	s := SnapshotData{
		Counters:   make(map[string]int64, len(registry.counters)),
		Gauges:     make(map[string]int64, len(registry.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(registry.histograms)),
		Spans:      defaultTracer.SpanCount(),
	}
	for name, c := range registry.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range registry.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range registry.histograms {
		hs := HistogramSnapshot{
			Count:        h.Count(),
			SumNS:        h.Sum().Nanoseconds(),
			P50NS:        h.Quantile(0.50).Nanoseconds(),
			P99NS:        h.Quantile(0.99).Nanoseconds(),
			BucketNS:     histBuckets,
			BucketCounts: make([]int64, len(h.counts)),
		}
		var cum int64
		for i := range h.counts {
			cum += h.counts[i].Load()
			hs.BucketCounts[i] = cum
		}
		s.Histograms[name] = hs
	}
	return s
}

// family splits a full metric name into its family (the part before any
// label braces) and the label block (including braces, or "").
func family(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// withLE splices an le label into a (possibly labelled) metric name.
func withLE(fam, labels, le string) string {
	if labels == "" {
		return fmt.Sprintf("%s_bucket{le=%q}", fam, le)
	}
	return fmt.Sprintf("%s_bucket%s,le=%q}", fam, labels[:len(labels)-1], le)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (counters, gauges, and cumulative histograms with
// seconds-valued sums).
func WritePrometheus(w io.Writer) error {
	snap := Snapshot()
	bw := bufio.NewWriter(w)
	typed := map[string]bool{}
	emitType := func(fam, kind string) {
		if !typed[fam] {
			fmt.Fprintf(bw, "# TYPE %s %s\n", fam, kind)
			typed[fam] = true
		}
	}
	for _, name := range sortedKeys(snap.Counters) {
		fam, _ := family(name)
		emitType(fam, "counter")
		fmt.Fprintf(bw, "%s %d\n", name, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		fam, _ := family(name)
		emitType(fam, "gauge")
		fmt.Fprintf(bw, "%s %d\n", name, snap.Gauges[name])
	}
	hnames := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := snap.Histograms[name]
		fam, labels := family(name)
		emitType(fam, "histogram")
		for i, bound := range h.BucketNS {
			fmt.Fprintf(bw, "%s %d\n", withLE(fam, labels, fmt.Sprintf("%g", float64(bound)/1e9)), h.BucketCounts[i])
		}
		fmt.Fprintf(bw, "%s %d\n", withLE(fam, labels, "+Inf"), h.BucketCounts[len(h.BucketCounts)-1])
		fmt.Fprintf(bw, "%s_sum%s %g\n", fam, labels, float64(h.SumNS)/1e9)
		fmt.Fprintf(bw, "%s_count%s %d\n", fam, labels, h.Count)
	}
	fmt.Fprintf(bw, "# spans recorded: %d\n", snap.Spans)
	return bw.Flush()
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var expvarOnce sync.Once

// PublishExpvar publishes the metric snapshot under the expvar key
// "hcd.obs" (alongside the stdlib's memstats/cmdline). Idempotent.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("hcd.obs", expvar.Func(func() any { return Snapshot() }))
	})
}

// Handler returns the debug HTTP handler hcdtool serves behind
// -debug-addr:
//
//	/metrics        Prometheus text exposition
//	/trace          Chrome trace-event JSON of the span ring buffer
//	/debug/vars     expvar JSON (includes the hcd.obs snapshot)
//	/debug/pprof/   net/http/pprof profiles
func Handler() http.Handler {
	PublishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		// A failed write to a departed HTTP client has no recovery.
		_, _ = fmt.Fprint(w, "hcd debug endpoints:\n  /metrics\n  /trace\n  /debug/vars\n  /debug/pprof/\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = WritePrometheus(w) // write errors mean the client went away
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteTrace(w) // write errors mean the client went away
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
