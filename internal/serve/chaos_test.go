package serve

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hcd/internal/faultinject"
)

// TestChaosDrainUnderLoad is the acceptance chaos test: with faults
// armed at all four serve.* sites (the CI chaos-smoke job overrides the
// spec via HCD_FAULTS) and concurrent clients hammering every endpoint,
// the server must shed with the documented status codes, contain every
// injected panic into a complete JSON 500, keep swapping snapshots
// under /reload pressure without ever serving a nil or partial index,
// and — with cancellation delivered mid-load, modelling SIGTERM — drain
// and return nil, the process's exit-0 path. Run it with -race.
func TestChaosDrainUnderLoad(t *testing.T) {
	defaultSpec := false
	spec := os.Getenv("HCD_FAULTS")
	if spec == "" {
		spec = "serve.admit:panic:13,serve.query:panic:7,serve.rebuild:panic:2,serve.swap:panic:3"
		defaultSpec = true
	}
	if err := faultinject.Enable(spec); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	// Tight admission limits so the load loop provokes real shedding.
	s := newTestServer(t, func(c *Config) {
		c.MaxInflight = 2
		c.QueueDepth = 2
		c.QueueWait = 2 * time.Millisecond
		c.DrainTimeout = 5 * time.Second
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx, ln) }()

	wctx, wcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer wcancel()
	if err := s.WaitReady(wctx); err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	var (
		wg        sync.WaitGroup
		stop      = make(chan struct{})
		served    atomic.Int64 // 200s observed
		shed      atomic.Int64 // 429/503s observed
		contained atomic.Int64 // 500s observed (injected faults)
		badStatus atomic.Int64
		torn      atomic.Int64
	)
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusAccepted: true,
		http.StatusBadRequest: true, http.StatusTooManyRequests: true,
		http.StatusInternalServerError: true, http.StatusServiceUnavailable: true,
		http.StatusGatewayTimeout: true,
	}
	paths := []string{
		"/search?metric=average-degree",
		"/search?weighted=average-degree:1,conductance:1&min_size=2",
		"/search?metric=clustering-coefficient",
		"/reconstruct?node=0",
		"/reconstruct?v=1&k=1",
		"/readyz",
		"/stats",
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(base + paths[(id+j)%len(paths)])
				if err != nil {
					// Connection refused/reset once the drain closes the
					// listener; not a protocol violation.
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if !allowed[resp.StatusCode] {
					badStatus.Add(1)
					t.Errorf("unexpected status %d for %s: %s", resp.StatusCode, paths[(id+j)%len(paths)], body)
				}
				// Every response body, success or refusal, must be one
				// complete JSON document — never torn by a panic, a swap,
				// or the drain.
				if rerr != nil || !json.Valid(body) {
					torn.Add(1)
					t.Errorf("torn response (read err %v): %q", rerr, body)
				}
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("shed %d without Retry-After", resp.StatusCode)
					}
				case http.StatusInternalServerError:
					contained.Add(1)
				}
			}
		}(i)
	}
	// Reload pressure: keep the rebuild/swap path hot under load so the
	// serve.rebuild and serve.swap faults fire while queries fly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			resp, err := client.Post(base+"/reload", "application/json", nil)
			if err == nil {
				resp.Body.Close()
			}
		}
	}()

	// Let the storm run, then deliver the shutdown mid-load.
	time.Sleep(500 * time.Millisecond)
	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Errorf("Run returned %v mid-chaos, want nil (exit-0 drain)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never completed")
	}
	close(stop)
	wg.Wait()

	if served.Load() == 0 {
		t.Error("no request was served during the chaos run")
	}
	if s.Epoch() == 0 || s.cur.Load() == nil {
		t.Errorf("no snapshot published (epoch %d)", s.Epoch())
	}
	t.Logf("chaos: served=%d shed=%d contained-500s=%d epochs=%d",
		served.Load(), shed.Load(), contained.Load(), s.Epoch())
	if defaultSpec {
		// With the default spec every serve.* site must have been
		// evaluated; the query/admit sites fire mid-load and surface as
		// contained 500s rather than a crash.
		for _, site := range []string{"serve.admit", "serve.query", "serve.rebuild", "serve.swap"} {
			if faultinject.Hits(site) == 0 {
				t.Errorf("site %s was never evaluated under chaos", site)
			}
		}
		if contained.Load() == 0 {
			t.Error("no injected fault surfaced as a contained 500")
		}
	}
}
