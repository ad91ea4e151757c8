package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFDDISim(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-protocol", "fddi", "-bw", "100", "-n", "6",
		"-utilization", "0.3", "-horizon", "100ms"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"protocol:          FDDI", "deadline misses:", "token rotation:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestReservationMAC(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-protocol", "8025res", "-bw", "4", "-n", "5",
		"-utilization", "0.2", "-horizon", "200ms", "-levels", "2"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "reservation MAC") || !strings.Contains(got, "priority inversions:") {
		t.Errorf("reservation output missing markers:\n%s", got)
	}
}

func TestFaultFlags(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-protocol", "fddi", "-bw", "100", "-n", "4",
		"-utilization", "0.2", "-horizon", "200ms", "-loss-prob", "0.01", "-recovery", "1ms"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "token losses:") {
		t.Errorf("loss report missing:\n%s", out.String())
	}
}

func TestPDPSimVariants(t *testing.T) {
	for _, proto := range []string{"8025", "8025mod"} {
		var out bytes.Buffer
		err := run(context.Background(), []string{"-protocol", proto, "-bw", "16", "-n", "5",
			"-utilization", "0.2", "-horizon", "200ms"}, &out, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if !strings.Contains(out.String(), "802.5") {
			t.Errorf("%s: protocol line missing:\n%s", proto, out.String())
		}
	}
}

func TestTraceFlag(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-protocol", "fddi", "-bw", "100", "-n", "4",
		"-utilization", "0.2", "-horizon", "50ms", "-trace", "5"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "--- first 5 events ---") {
		t.Errorf("trace header missing:\n%s", got)
	}
	if !strings.Contains(got, "arrival") && !strings.Contains(got, "frame") {
		t.Errorf("no traced events:\n%s", got)
	}
}

func TestRandomPhasing(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-protocol", "fddi", "-bw", "100", "-n", "4",
		"-utilization", "0.2", "-horizon", "50ms", "-phasing", "random", "-seed", "5"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

// TestTraceOutTokenStats is the PR acceptance check: a clean fddi run with
// -trace-out must print the token-stats verdict on stdout and append JSON
// lines whose final record carries a summary with mean rotation above the
// model's walk time WT.
func TestTraceOutTokenStats(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "run.jsonl")
	var out bytes.Buffer
	err := run(context.Background(), []string{"-protocol", "fddi", "-bw", "100", "-n", "6",
		"-utilization", "0.3", "-horizon", "100ms", "-trace-out", tracePath, "-stats-every", "4"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"token stats:", "OK (rotation ≥ WT)", "OK (mean ≤ TTRT)"} {
		if !strings.Contains(got, want) {
			t.Errorf("stdout missing %q:\n%s", want, got)
		}
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace file has %d lines, want sampled events plus a summary", len(lines))
	}
	var final struct {
		TokenStats *struct {
			Rotations       int     `json:"rotations"`
			RotationMeanSec float64 `json:"rotationMeanSec"`
		} `json:"tokenStats"`
		WalkTimeSec float64 `json:"walkTimeSec"`
		TTRTSec     float64 `json:"ttrtSec"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("final trace line: %v\n%s", err, lines[len(lines)-1])
	}
	if final.TokenStats == nil {
		t.Fatalf("final trace line has no tokenStats:\n%s", lines[len(lines)-1])
	}
	if final.TokenStats.Rotations == 0 {
		t.Fatal("no token rotations recorded")
	}
	if final.WalkTimeSec <= 0 {
		t.Fatalf("walkTimeSec = %g, want > 0", final.WalkTimeSec)
	}
	if final.TokenStats.RotationMeanSec <= final.WalkTimeSec {
		t.Errorf("mean rotation %g ≤ walk time %g; token must take at least one full walk per rotation",
			final.TokenStats.RotationMeanSec, final.WalkTimeSec)
	}
	// The earlier lines are sampled protocol events, each a JSON object
	// with an event kind; token passes must be among them.
	sawToken := false
	for _, line := range lines[:len(lines)-1] {
		var ev struct {
			Event   string  `json:"event"`
			TimeSec float64 `json:"timeSec"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			continue // span records share the stream
		}
		if ev.Event == "token" {
			sawToken = true
			break
		}
	}
	if !sawToken {
		t.Error("no sampled token-pass events in the trace file")
	}
}

func TestUnknownProtocol(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-protocol", "csma"}, &out, io.Discard); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestMissingSetFile(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-set", "/no/such/file"}, &out, io.Discard); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTopologySim(t *testing.T) {
	const spec = "ring:name=a,proto=8025mod,bw=16e6 + ring:name=b,proto=fddi,bw=100e6" +
		" + bridge:a=a,b=b,latency=100us" +
		" + flow:name=cross,src=a,dst=b,period=100ms,bits=4096" +
		" + flow:name=local,src=b,period=20ms,bits=1024"
	var out bytes.Buffer
	err := run(context.Background(), []string{"-topology", spec, "-horizon", "500ms", "-quiet"},
		&out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"topology:          2 rings", "ring a (Modified 802.5)", "ring b (FDDI)",
		"a->b", "cross", "a>b", "deadline misses:   0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	if err := run(context.Background(), []string{"-topology", "ring:name=", "-quiet"},
		&out, io.Discard); err == nil {
		t.Error("bad topology spec accepted")
	}
}

// TestBuildFaults covers the fault flags: -fault-model and -scenario
// resolve as the API resolves them, -loss-prob applies only when neither
// is set, and -burst-len and -crash-rate override any of them.
func TestBuildFaults(t *testing.T) {
	for _, tc := range []struct {
		spec, scenario                string
		lossProb, burstLen, crashRate float64
		want                          string // the model's Spec(), "nil", or "error: " and a fragment
	}{
		{"", "", 0, 0, -1, "nil"},
		{"none", "", 0.01, 0, -1, "nil"},
		{"", "", 0.01, 0, -1, "loss:p=0.01,fixed=0.002"},
		{"", " flaky-stations ", 0, 0, -1, "crash:rate=0.2,down=0.02,bypass=0.001"},
		{"", "flaky-stations", 0.01, 0, 0, "nil"},
		{"loss:p=1e-3", "", 0, 4, 0.5, "loss:p=0.001+gilbert:pgood=0,pbad=0.5,burst=4,gap=1000+crash:rate=0.5,down=0.05,bypass=0.002"},
		{"loss:p=1e-3", "lossy-token", 0, 0, -1, "error: -fault-model and -scenario are mutually exclusive"},
		{"loss:p=2", "", 0, 0, -1, "error: faults: probability must be in [0, 1]"},
		{"loss:p=x", "", 0, 0, -1, "error: faults: bad fault-model spec"},
		{"", "bogus", 0, 0, -1, "error: faults: unknown scenario"},
	} {
		m, err := buildFaults(tc.spec, tc.scenario, tc.lossProb, 2*time.Millisecond, tc.burstLen, tc.crashRate, 1)
		got := "nil"
		switch {
		case err != nil:
			got = "error: " + err.Error()
		case m != nil:
			got = m.Spec()
		}
		if !strings.HasPrefix(got, tc.want) {
			t.Errorf("buildFaults(%q, %q, ...) = %s, want %s", tc.spec, tc.scenario, got, tc.want)
		}
	}
}
