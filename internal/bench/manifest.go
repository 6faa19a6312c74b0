package bench

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// SchemaVersion is the experiment-journal JSON schema generation. It is
// embedded in every manifest and checked on load: a report written by an
// older harness fails loudly instead of mis-parsing. Bump it on any
// breaking change to the Report/Cell/ScalingRow shapes (the golden-file
// schema test pins the current shape).
const SchemaVersion = 2

// Manifest records the provenance of one benchmark run: everything two
// BENCH_*.json files must agree on for their numbers to be comparable —
// or that proves they are not. It answers "what exactly produced these
// nanoseconds" without needing the shell history of the machine that ran
// them.
type Manifest struct {
	// Schema is the journal schema generation (SchemaVersion).
	Schema int `json:"schema"`
	// GitSHA is the commit the binary was built from (best-effort: empty
	// when the harness runs outside a git checkout).
	GitSHA string `json:"git_sha,omitempty"`
	// GoVersion is runtime.Version() — toolchain changes move codegen.
	GoVersion string `json:"go_version"`
	// OS and Arch are runtime.GOOS / runtime.GOARCH.
	OS   string `json:"os"`
	Arch string `json:"arch"`
	// CPUModel is the hardware's self-reported model string
	// (best-effort: empty where /proc/cpuinfo is unavailable).
	CPUModel string `json:"cpu_model,omitempty"`
	// NumCPU and GoMaxProcs pin the parallel envelope the run had.
	NumCPU     int `json:"num_cpu"`
	GoMaxProcs int `json:"gomaxprocs"`
	// Scale and Suite identify the synthetic inputs: the dataset scale
	// multiplier and a fingerprint of the generator-parameter set (bumped
	// whenever an experiment's generators change, so stale baselines
	// cannot silently compare against different graphs).
	Scale int    `json:"scale"`
	Suite string `json:"suite"`
	// CreatedAt is the RFC3339 wall-clock time of the run. Informational
	// only: it never participates in comparability.
	CreatedAt string `json:"created_at,omitempty"`
}

// NewManifest assembles the manifest for a run over the given dataset
// scale and generator-suite fingerprint.
func NewManifest(scale int, suite string) Manifest {
	return Manifest{
		Schema:     SchemaVersion,
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      scale,
		Suite:      suite,
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
	}
}

// ComparableTo reports why two manifests' measurements cannot be
// compared as performance signal: a nil return means every dimension
// that moves nanoseconds agrees (git SHA and timestamp are allowed to
// differ — comparing across commits is the point). Each returned reason
// is one human-readable sentence fragment.
func (m Manifest) ComparableTo(o Manifest) []string {
	var reasons []string
	mismatch := func(what, a, b string) {
		if a != b {
			reasons = append(reasons, fmt.Sprintf("%s differs (%q vs %q)", what, a, b))
		}
	}
	if m.Schema != o.Schema {
		reasons = append(reasons, fmt.Sprintf("schema differs (%d vs %d)", m.Schema, o.Schema))
	}
	mismatch("suite", m.Suite, o.Suite)
	if m.Scale != o.Scale {
		reasons = append(reasons, fmt.Sprintf("scale differs (%d vs %d)", m.Scale, o.Scale))
	}
	mismatch("go version", m.GoVersion, o.GoVersion)
	mismatch("os/arch", m.OS+"/"+m.Arch, o.OS+"/"+o.Arch)
	mismatch("cpu model", m.CPUModel, o.CPUModel)
	if m.NumCPU != o.NumCPU {
		reasons = append(reasons, fmt.Sprintf("cpu count differs (%d vs %d)", m.NumCPU, o.NumCPU))
	}
	if m.GoMaxProcs != o.GoMaxProcs {
		reasons = append(reasons, fmt.Sprintf("GOMAXPROCS differs (%d vs %d)", m.GoMaxProcs, o.GoMaxProcs))
	}
	return reasons
}

// Describe renders the manifest as one compact human-readable line for
// report headers.
func (m Manifest) Describe() string {
	sha := m.GitSHA
	if len(sha) > 12 {
		sha = sha[:12]
	}
	if sha == "" {
		sha = "unknown"
	}
	cpu := m.CPUModel
	if cpu == "" {
		cpu = "unknown cpu"
	}
	return fmt.Sprintf("git %s · %s %s/%s · %dx %s (GOMAXPROCS %d) · suite %s scale %d",
		sha, m.GoVersion, m.OS, m.Arch, m.NumCPU, cpu, m.GoMaxProcs, m.Suite, m.Scale)
}

// gitSHA resolves the checked-out commit, best-effort.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// cpuModel extracts the CPU model string, best-effort (Linux only).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}
