package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "table2", "-scale", "1", "-reps", "1", "-datasets", "AS"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "== table2 ==") || !strings.Contains(out.String(), "AS") {
		t.Errorf("output wrong:\n%s", out.String())
	}
}

func TestRunSweepFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "fig4", "-scale", "1", "-reps", "1", "-sweep", "1,2", "-datasets", "AS"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "p=2") {
		t.Errorf("sweep column missing:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "table99"}, &out, &errb); code != 1 {
		t.Error("unknown experiment not rejected")
	}
	if code := run([]string{"-sweep", "0,x"}, &out, &errb); code != 2 {
		t.Error("bad sweep not rejected")
	}
	if code := run([]string{"-threads", "1,2"}, &out, &errb); code != 2 {
		t.Error("thread list not rejected: -threads takes one count")
	}
	if code := run([]string{"-not-a-flag"}, &out, &errb); code != 2 {
		t.Error("bad flag not rejected")
	}
}

// TestRunThreadsFlag checks -threads reaches the "(P)" columns.
func TestRunThreadsFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "table3", "-scale", "1", "-reps", "1", "-threads", "2", "-datasets", "AS"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "PHCD(2) s") {
		t.Errorf("p=2 columns missing:\n%s", out.String())
	}
}
