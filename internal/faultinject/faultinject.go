// Package faultinject provides deterministic, site-keyed fault injection
// for exercising the failure-containment paths of the parallel runtime.
//
// Algorithms mark interesting points with Maybe("site.name"); a test (or
// an operator, via the HCD_FAULTS environment variable and EnableFromEnv)
// arms the injector with a rule spec such as
//
//	phcd.step2:panic:3            panic on the 3rd hit of phcd.step2
//	search.typeb:delay:1:50ms     sleep 50ms on the 1st hit of search.typeb
//	treeaccum:panic:2,phcd.step1:panic:1   multiple rules, comma-separated
//
// The hcdserve query service exposes its own site family for chaos
// testing the admission / query / rebuild / swap paths (the CI
// chaos-smoke job arms all four against the drain-under-load test):
//
//	serve.admit:panic:11          panic inside admission control
//	serve.query:panic:5           panic inside an admitted request
//	serve.rebuild:panic:2         panic mid-rebuild (last-good keeps serving)
//	serve.swap:panic:2            panic just before the snapshot swap
//
// Triggering is deterministic with respect to hit counts: every evaluation
// of an armed site atomically claims the next hit number, and the rule
// fires on exactly the configured hit — no randomness, so a failing run
// replays with the same spec. (Which goroutine claims the firing hit is
// scheduling-dependent, but that a fault fires, and after how much work,
// is not.)
//
// When the injector is disarmed — the default — Maybe costs one atomic
// load (a few ns; see EXPERIMENTS.md), and trigger points sit at chunk
// or phase granularity, never in per-vertex or per-edge loops.
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hcd/internal/obs"
)

// Fault is the value an armed panic rule panics with. It implements error
// so a par.PanicError wrapping it unwraps to a recognisable cause
// (errors.As(&Fault{})).
type Fault struct {
	// Site is the trigger point that fired.
	Site string
	// Hit is the 1-based evaluation count at which the rule fired.
	Hit uint64
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: injected panic at %s (hit %d)", f.Site, f.Hit)
}

// mode is what a rule does when it fires.
type mode int

const (
	modePanic mode = iota
	modeDelay
)

// site is one armed trigger point.
type site struct {
	mode  mode
	n     uint64 // fire on exactly this hit (1-based)
	delay time.Duration
	hits  atomic.Uint64
	evals *obs.Counter // hcd_fault_evals_total{site=...}
	fired *obs.Counter // hcd_fault_fired_total{site=...}
}

var (
	armed atomic.Bool // fast-path gate read by Maybe
	mu    sync.Mutex  // guards sites swaps (reads go through the atomic)
	sites atomic.Pointer[map[string]*site]
)

// Enable arms the injector from a comma-separated rule spec (see the
// package comment for the grammar). It replaces any previous rules and
// resets all hit counters. An empty spec is an error; use Disable to
// disarm.
//
// Every armed site also gets a pair of obs counters,
// hcd_fault_evals_total{site="..."} and hcd_fault_fired_total{site="..."},
// so a rule whose site name is mis-spelled — which otherwise fails
// silently, its trigger point never being evaluated — shows up on
// /metrics as an armed site with zero evaluations.
func Enable(spec string) error {
	parsed, err := parse(spec)
	if err != nil {
		return err
	}
	for name, s := range parsed {
		s.evals = obs.NewCounter(obs.Name("hcd_fault_evals_total", "site", name),
			"Evaluations of an armed fault-injection site.")
		s.fired = obs.NewCounter(obs.Name("hcd_fault_fired_total", "site", name),
			"Fault-injection rules fired, by site.")
	}
	mu.Lock()
	defer mu.Unlock()
	sites.Store(&parsed)
	armed.Store(true)
	return nil
}

// Disable disarms the injector and drops all rules and counters.
func Disable() {
	mu.Lock()
	defer mu.Unlock()
	armed.Store(false)
	sites.Store(nil)
}

// Enabled reports whether any rules are armed.
func Enabled() bool { return armed.Load() }

// EnableFromEnv arms the injector from the HCD_FAULTS environment
// variable, if set. Intended for command-line tools; returns the parse
// error, if any, so callers can surface a bad spec.
func EnableFromEnv() error {
	spec := os.Getenv("HCD_FAULTS")
	if spec == "" {
		return nil
	}
	return Enable(spec)
}

// Maybe evaluates the trigger point: when a rule for this site is armed it
// claims the next hit number and, on the configured hit, panics with a
// *Fault or sleeps the configured delay. Disarmed, it is one atomic load.
func Maybe(name string) {
	if !armed.Load() {
		return
	}
	m := sites.Load()
	if m == nil {
		return
	}
	s, ok := (*m)[name]
	if !ok {
		return
	}
	hit := s.hits.Add(1)
	s.evals.Inc()
	if hit != s.n {
		return
	}
	s.fired.Inc()
	switch s.mode {
	case modePanic:
		panic(&Fault{Site: name, Hit: hit})
	case modeDelay:
		time.Sleep(s.delay)
	}
}

// Hits returns how many times the armed rule for site has been evaluated
// since Enable (0 for unknown or disarmed sites). For tests.
func Hits(name string) uint64 {
	m := sites.Load()
	if m == nil {
		return 0
	}
	s, ok := (*m)[name]
	if !ok {
		return 0
	}
	return s.hits.Load()
}

// parse turns "site:mode:n[:dur][,...]" into the site table.
func parse(spec string) (map[string]*site, error) {
	out := make(map[string]*site)
	for _, rule := range strings.Split(spec, ",") {
		rule = strings.TrimSpace(rule)
		if rule == "" {
			continue
		}
		parts := strings.Split(rule, ":")
		if len(parts) < 3 {
			return nil, fmt.Errorf("faultinject: rule %q: want site:mode:n[:dur]", rule)
		}
		name := parts[0]
		if name == "" {
			return nil, fmt.Errorf("faultinject: rule %q: empty site", rule)
		}
		n, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("faultinject: rule %q: bad hit count %q (want >= 1)", rule, parts[2])
		}
		s := &site{n: n}
		switch parts[1] {
		case "panic":
			if len(parts) != 3 {
				return nil, fmt.Errorf("faultinject: rule %q: panic takes no duration", rule)
			}
			s.mode = modePanic
		case "delay":
			if len(parts) != 4 {
				return nil, fmt.Errorf("faultinject: rule %q: delay needs a duration", rule)
			}
			d, err := time.ParseDuration(parts[3])
			if err != nil {
				return nil, fmt.Errorf("faultinject: rule %q: %v", rule, err)
			}
			s.mode, s.delay = modeDelay, d
		default:
			return nil, fmt.Errorf("faultinject: rule %q: unknown mode %q", rule, parts[1])
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("faultinject: duplicate rule for site %q", name)
		}
		out[name] = s
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faultinject: empty spec")
	}
	return out, nil
}
