package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPrintExample(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-print-example"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"attitude-control", "periodMs", "lengthBits"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("example output missing %q:\n%s", want, out.String())
		}
	}
}

func TestGeneratedSetReport(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-bw", "16", "-n", "8", "-utilization", "0.3", "-verbose"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Modified 802.5", "IEEE 802.5", "FDDI", "schedulable=", "TTRT="} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	// Verbose mode lists all 8 streams per protocol.
	if strings.Count(got, "S1 ") == 0 {
		t.Error("verbose stream rows missing")
	}
}

func TestJSONRoundTripThroughCLI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "set.json")

	var example bytes.Buffer
	if err := run(context.Background(), []string{"-print-example"}, &example, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, example.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run(context.Background(), []string{"-set", path, "-bw", "100"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "message set: 3 streams") {
		t.Errorf("unexpected report:\n%s", out.String())
	}
}

func TestPresetWorkload(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-preset", "avionics", "-bw", "4"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "message set: 8 streams") {
		t.Errorf("preset report:\n%s", out.String())
	}
	if err := run(context.Background(), []string{"-preset", "bogus"}, &out, io.Discard); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-set", "/does/not/exist.json"}, &out, io.Discard); err == nil {
		t.Error("missing file accepted")
	}
	if err := run(context.Background(), []string{"-bogus-flag"}, &out, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(context.Background(), []string{"-utilization", "0"}, &out, io.Discard); err == nil {
		t.Error("zero utilization accepted")
	}
}

func TestNameHelper(t *testing.T) {
	if name("", 2) != "S3" {
		t.Error("empty name fallback")
	}
	if name("gyro", 2) != "gyro" {
		t.Error("explicit name dropped")
	}
}

// TestLoadFaultModel covers the fault flags, which resolve as the API
// resolves them.
func TestLoadFaultModel(t *testing.T) {
	for _, tc := range []struct {
		spec, scenario string
		want           string // the model's Spec(), "nil", or "error: " and a fragment
	}{
		{"", "", "nil"},
		{"none", "", "nil"},
		{"", "clean", "nil"},
		{"loss:p=1e-3+crash:rate=0.2", "", "loss:p=0.001+crash:rate=0.2,down=0.05,bypass=0.002"},
		{"", " lossy-token ", "loss:p=0.001,detect=0.001,rounds=2"},
		{"loss", "lossy-token", "error: -fault-model and -scenario are mutually exclusive"},
		{"loss:p=x", "", "error: faults: bad fault-model spec"},
		{"", "bogus", "error: faults: unknown scenario"},
	} {
		m, err := loadFaultModel(tc.spec, tc.scenario)
		got := "nil"
		switch {
		case err != nil:
			got = "error: " + err.Error()
		case m != nil:
			got = m.Spec()
		}
		if !strings.HasPrefix(got, tc.want) {
			t.Errorf("loadFaultModel(%q, %q) = %s, want %s", tc.spec, tc.scenario, got, tc.want)
		}
	}
}
