package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ringsched/internal/service"
)

func writeScript(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edits.txt")
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPrintExampleParses(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-print-example"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	edits, err := parseScript(&out)
	if err != nil {
		t.Fatalf("example script does not parse: %v", err)
	}
	if len(edits) != 5 {
		t.Fatalf("example has %d edits, want 5", len(edits))
	}
}

func TestOfflineReplay(t *testing.T) {
	script := writeScript(t, `
add gyro 10 4096
add telemetry 50 65536
modify telemetry 25 65536
remove gyro
`)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-script", script, "-bw", "16"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"add", "modify", "remove", "reprobed=", "final: 1 streams at version 5", "+modified-802.5"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestOfflineReplayJSON(t *testing.T) {
	script := writeScript(t, "add a 10 4096\nadd b 20 4096\n")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-script", script, "-bw", "16", "-json", "-protocols", "fddi"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(out.String()))
	var results []editResult
	for i := 0; i < 2; i++ {
		var r editResult
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("decode edit %d: %v", i, err)
		}
		results = append(results, r)
	}
	var final finalState
	if err := dec.Decode(&final); err != nil {
		t.Fatalf("decode final state: %v", err)
	}
	if results[1].Version != 3 || len(results[1].Deltas) != 1 || results[1].Deltas[0].Protocol != "fddi" {
		t.Fatalf("second edit %+v, want version 3 with one fddi delta", results[1])
	}
	if final.Version != 3 || len(final.Streams) != 2 {
		t.Fatalf("final state %+v, want version 3 with 2 streams", final)
	}
}

func TestScriptErrors(t *testing.T) {
	for _, tc := range []struct{ script, wantErr string }{
		{"add a 10", "want"},
		{"add a ten 4096", "bad number"},
		{"frobnicate a", "unknown op"},
		{"remove ghost", "no stream named"},
		{"modify ghost 10 100", "no stream named"},
	} {
		script := writeScript(t, tc.script)
		err := run(context.Background(), []string{"-script", script, "-bw", "16"}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("script %q: error %v, want containing %q", tc.script, err, tc.wantErr)
		}
	}
}

// TestOnlineReplayMatchesOffline replays one script both offline and
// against a live in-process ringschedd; the -json output, every edit and
// the final state, must be byte-identical (same engine, same schema,
// different transport).
func TestOnlineReplayMatchesOffline(t *testing.T) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	script := `
add gyro 10 4096
add crush 6 1048576
add late 500 2048
modify late 250 4096
remove crush
`
	args := []string{"-bw", "4", "-scenario", "lossy-token", "-json"}
	runOnce := func(extra ...string) string {
		t.Helper()
		var out bytes.Buffer
		all := append(append([]string{"-script", writeScript(t, script)}, args...), extra...)
		if err := run(context.Background(), all, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	offline := runOnce()
	online := runOnce("-base", ts.URL)
	if online != offline {
		t.Fatalf("online output differs from offline:\n--- offline\n%s--- online\n%s", offline, online)
	}
	if n := strings.Count(offline, "\n"); n != 6 {
		t.Fatalf("%d JSON lines, want 5 edits and the final state:\n%s", n, offline)
	}
}
