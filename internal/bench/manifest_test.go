package bench

import (
	"strings"
	"testing"
)

func TestNewManifestPopulatesEnvironment(t *testing.T) {
	m := NewManifest(4, "phcd-full-v1")
	if m.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", m.Schema, SchemaVersion)
	}
	if m.GoVersion == "" || m.OS == "" || m.Arch == "" {
		t.Errorf("toolchain fields empty: %+v", m)
	}
	if m.NumCPU < 1 || m.GoMaxProcs < 1 {
		t.Errorf("cpu fields unset: %+v", m)
	}
	if m.Scale != 4 || m.Suite != "phcd-full-v1" {
		t.Errorf("input fields wrong: %+v", m)
	}
	if m.CreatedAt == "" {
		t.Error("created_at unset")
	}
}

func TestManifestComparability(t *testing.T) {
	a := NewManifest(4, "phcd-full-v1")
	b := a
	// Commit and timestamp are allowed to differ — comparing across
	// commits is the point of the journal.
	b.GitSHA = "different"
	b.CreatedAt = "2020-01-01T00:00:00Z"
	if reasons := a.ComparableTo(b); reasons != nil {
		t.Errorf("sha/timestamp drift should stay comparable, got %v", reasons)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"schema", func(m *Manifest) { m.Schema++ }},
		{"suite", func(m *Manifest) { m.Suite = "other" }},
		{"scale", func(m *Manifest) { m.Scale++ }},
		{"go version", func(m *Manifest) { m.GoVersion = "go0.0" }},
		{"os/arch", func(m *Manifest) { m.Arch = "wasm" }},
		{"cpu model", func(m *Manifest) { m.CPUModel = m.CPUModel + "x" }},
		{"cpu count", func(m *Manifest) { m.NumCPU++ }},
		{"GOMAXPROCS", func(m *Manifest) { m.GoMaxProcs++ }},
	} {
		c := a
		tc.mutate(&c)
		reasons := a.ComparableTo(c)
		if len(reasons) != 1 || !strings.Contains(reasons[0], tc.name) {
			t.Errorf("%s mismatch: reasons = %v, want one mentioning %q", tc.name, reasons, tc.name)
		}
	}
}

func TestManifestDescribe(t *testing.T) {
	m := NewManifest(1, "phcd-smoke-v1")
	d := m.Describe()
	for _, want := range []string{m.GoVersion, "phcd-smoke-v1", "scale 1"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() = %q, missing %q", d, want)
		}
	}
	// Empty best-effort fields degrade to placeholders, not garbage.
	var zero Manifest
	d = zero.Describe()
	if !strings.Contains(d, "unknown") {
		t.Errorf("zero Describe() = %q, want unknown placeholders", d)
	}
}
