package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ringsched/internal/service"
)

// TestJSONOutputMatchesServerBody is the satellite acceptance check: the
// -json CLI mode and the ringschedd /v1/analyze endpoint answer the same
// question with byte-identical bodies.
func TestJSONOutputMatchesServerBody(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "set.json")
	var example bytes.Buffer
	if err := run(context.Background(), []string{"-print-example"}, &example, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, example.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}

	var cliOut bytes.Buffer
	if err := run(context.Background(), []string{"-set", path, "-bw", "100", "-json"}, &cliOut, io.Discard); err != nil {
		t.Fatal(err)
	}

	srv := service.New(service.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The same message set as the example file, spelled as a wire request
	// with the streams deliberately out of RM order.
	reqBody := `{"bandwidthMbps": 100, "streams": [
		{"name": "video", "periodMs": 100, "lengthBits": 1048576},
		{"name": "attitude-control", "periodMs": 10, "lengthBits": 4096},
		{"name": "telemetry", "periodMs": 50, "lengthBits": 65536}
	]}`
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	serverBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server: %d %s", resp.StatusCode, serverBody)
	}

	if !bytes.Equal(cliOut.Bytes(), serverBody) {
		t.Errorf("CLI -json and server bodies differ:\n--- CLI ---\n%s\n--- server ---\n%s",
			cliOut.Bytes(), serverBody)
	}
}

func TestJSONOutputWithScenarioMatchesServerBody(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "set.json")
	var example bytes.Buffer
	if err := run(context.Background(), []string{"-print-example"}, &example, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, example.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}

	var cliOut bytes.Buffer
	args := []string{"-set", path, "-bw", "16", "-scenario", "lossy-token", "-verbose", "-json"}
	if err := run(context.Background(), args, &cliOut, io.Discard); err != nil {
		t.Fatal(err)
	}

	srv := service.New(service.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqBody := `{"bandwidthMbps": 16, "scenario": "lossy-token", "detail": true, "streams": [
		{"name": "attitude-control", "periodMs": 10, "lengthBits": 4096},
		{"name": "telemetry", "periodMs": 50, "lengthBits": 65536},
		{"name": "video", "periodMs": 100, "lengthBits": 1048576}
	]}`
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	serverBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server: %d %s", resp.StatusCode, serverBody)
	}

	if !bytes.Equal(cliOut.Bytes(), serverBody) {
		t.Errorf("CLI -json (scenario) and server bodies differ:\n--- CLI ---\n%s\n--- server ---\n%s",
			cliOut.Bytes(), serverBody)
	}
	if !strings.Contains(cliOut.String(), `"degraded"`) {
		t.Error("-json with a fault scenario should include degraded verdicts")
	}
}

// TestTopologyJSONMatchesServerBody pins the same byte-identity contract
// for the bridged endpoint: schedcheck -topology -json and the ringschedd
// /v1/topology/analyze endpoint produce identical bodies.
func TestTopologyJSONMatchesServerBody(t *testing.T) {
	const spec = "ring:name=a,proto=8025mod,bw=16e6 + ring:name=b,proto=fddi,bw=100e6" +
		" + bridge:a=a,b=b,latency=100us" +
		" + flow:name=cross,src=a,dst=b,period=100ms,bits=4096" +
		" + flow:name=local,src=b,period=20ms,bits=1024"

	var cliOut bytes.Buffer
	if err := run(context.Background(), []string{"-topology", spec, "-json", "-verbose"},
		&cliOut, io.Discard); err != nil {
		t.Fatal(err)
	}

	srv := service.New(service.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqBody, err := json.Marshal(map[string]any{"topology": spec, "detail": true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/topology/analyze", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	serverBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server: %d %s", resp.StatusCode, serverBody)
	}
	if !bytes.Equal(cliOut.Bytes(), serverBody) {
		t.Errorf("CLI -topology -json and server bodies differ:\n--- CLI ---\n%s\n--- server ---\n%s",
			cliOut.Bytes(), serverBody)
	}
}

// TestTopologyJSONRefusesPayloadPastBound: -topology -json refuses a flow
// payload at or past 2^72 bits, naming the flow, on every protocol — as
// /v1/topology/analyze does.
func TestTopologyJSONRefusesPayloadPastBound(t *testing.T) {
	for _, proto := range []string{"fddi", "8025", "8025mod"} {
		spec := "ring:name=a,proto=" + proto + ",bw=100e6 + flow:name=f,src=a,dst=a,period=10ms,bits=1e308"
		err := run(context.Background(), []string{"-topology", spec, "-json"}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), `flow "f" bits 1e+308`) {
			t.Errorf("%s: err = %v, want a refusal naming flow \"f\"", proto, err)
		}
	}
}
