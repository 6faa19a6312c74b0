// Command hcdserve runs the resident HCD query service: it loads (or
// watches) a graph, builds the hierarchy + search index as an atomic
// snapshot, and serves search/reconstruct/stats queries over HTTP+JSON
// with admission control, load shedding and graceful drain (see
// internal/serve and DESIGN.md "Service robustness").
//
//	hcdserve -in g.bin -addr 127.0.0.1:8080
//	hcdserve -in g.txt -format text -watch -threads 4
//	curl 'http://127.0.0.1:8080/search?metric=average-degree&min_size=10'
//	curl 'http://127.0.0.1:8080/reconstruct?v=17&k=5'
//	curl -X POST http://127.0.0.1:8080/reload
//
// SIGINT/SIGTERM starts a graceful drain: admission stops, in-flight
// queries finish against -drain-timeout, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hcd"
	"hcd/internal/faultinject"
	"hcd/internal/obs"
	"hcd/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the server with explicit streams and returns an exit
// code; main is a thin wrapper so tests can drive it in-process. Exit
// codes: 0 clean drain, 1 runtime failure, 2 usage.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hcdserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	in := fs.String("in", "", "input graph path (required)")
	format := fs.String("format", "bin", "input format: bin (WriteBinaryFile) or text (edge list)")
	threads := fs.Int("threads", 0, "build/query worker count (0 = GOMAXPROCS)")
	kernel := fs.String("kernel", "", "peeling kernel: levelsync | buffered (default buffered)")
	verify := fs.Bool("verify", false, "self-verify every rebuilt hierarchy before publishing it")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently executing queries (0 = 2×GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 0, "admission wait-queue bound (0 = 4×max-inflight)")
	queueWait := fs.Duration("queue-wait", 0, "max time a query waits for an execution slot (0 = 250ms)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-query deadline cap (0 = 30s)")
	drainTimeout := fs.Duration("drain-timeout", 0, "graceful-drain bound on SIGTERM/SIGINT (0 = 10s)")
	watch := fs.Bool("watch", false, "poll -in and rebuild the snapshot when it changes")
	watchInterval := fs.Duration("watch-interval", 0, "poll interval for -watch (0 = 2s)")
	faults := fs.String("faults", "", "fault-injection spec, e.g. serve.query:panic:3 (HCD_FAULTS env also honoured)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	slowQuery := fs.Duration("slow-query", 0, "served-query latency logged at warn and counted against the SLO (0 = 500ms)")
	sloWindow := fs.Duration("slo-window", 0, "sliding window for the /stats SLO section (0 = 60s)")
	requestLog := fs.Int("request-log", 0, "completed requests kept for /debug/requests (0 = 128)")
	memSample := fs.Duration("mem-sample", 0, "memory sampler cadence for the hcd_mem_* gauges (0 = 100ms, negative disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "hcdserve: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "hcdserve: -in is required")
		return 2
	}
	if *format != "bin" && *format != "text" {
		fmt.Fprintf(stderr, "hcdserve: bad -format %q (bin or text)\n", *format)
		return 2
	}
	k, err := hcd.ParsePeelKernel(*kernel)
	if err != nil {
		fmt.Fprintf(stderr, "hcdserve: %v\n", err)
		return 2
	}
	logger, err := buildLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(stderr, "hcdserve: %v\n", err)
		return 2
	}
	if *faults != "" {
		if err := faultinject.Enable(*faults); err != nil {
			fmt.Fprintf(stderr, "hcdserve: %v\n", err)
			return 2
		}
		defer faultinject.Disable()
	} else if err := faultinject.EnableFromEnv(); err != nil {
		fmt.Fprintf(stderr, "hcdserve: %v\n", err)
		return 2
	}

	cfg := serve.Config{
		Load: func() (*hcd.Graph, error) {
			if *format == "text" {
				return hcd.ReadEdgeListFile(*in)
			}
			return hcd.ReadBinaryFile(*in)
		},
		Build:          hcd.Options{Threads: *threads, Kernel: k, SelfVerify: *verify},
		MaxInflight:    *maxInflight,
		QueueDepth:     *queueDepth,
		QueueWait:      *queueWait,
		RequestTimeout: *reqTimeout,
		DrainTimeout:   *drainTimeout,
		WatchInterval:  *watchInterval,
		Logger:         logger,
		Log:            stderr,
		SlowQuery:      *slowQuery,
		SLOWindow:      *sloWindow,
		RequestLogSize: *requestLog,
	}
	if *watch {
		cfg.WatchPath = *in
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "hcdserve: %v\n", err)
		return 1
	}
	if *memSample >= 0 {
		// Heap-live watermarks, goroutine peaks, and GC pause quantiles
		// for the /metrics hcd_mem_* family.
		stopSampler := obs.StartMemSampler(*memSample)
		defer stopSampler()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "hcdserve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "hcdserve: listening on http://%s/ (readiness at /readyz)\n", ln.Addr())
	if err := srv.Run(ctx, ln); err != nil {
		fmt.Fprintf(stderr, "hcdserve: %v\n", err)
		return 1
	}
	return 0
}

// buildLogger assembles the structured logger behind -log-format and
// -log-level. Timestamps are dropped in favour of slog's defaults only
// when the format is unknown — that's a usage error.
func buildLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (text or json)", format)
	}
}
