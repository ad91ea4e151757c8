package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
)

// TestEncodeMatchesMarshalIndent holds Encode to the bytes it promises,
// json.MarshalIndent(v, "", "  ") plus a newline, with an exact-capacity
// result, across the response shapes the service serves and strings that
// exercise escaping.
func TestEncodeMatchesMarshalIndent(t *testing.T) {
	ctx := context.Background()
	var values []any
	for _, req := range []AnalyzeRequest{
		baseRequest(),
		{BandwidthMbps: 16, Detail: true, Scenario: "degraded", PayloadScales: []float64{0.5, 2},
			Streams: baseRequest().Streams},
		{BandwidthMbps: 1, Protocols: []string{ProtocolTTP}, Detail: true, Streams: baseRequest().Streams},
	} {
		resp, err := Analyze(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		values = append(values, resp)
	}
	sweep, err := Sweep(ctx, SweepRequest{BandwidthsMbps: []float64{10, 100}, Streams: 5, Samples: 4, Seed: 7}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := AnalyzeTopology(ctx, TopologyRequest{Topology: lineTopologySpec, Detail: true})
	if err != nil {
		t.Fatal(err)
	}
	values = append(values, sweep, topo,
		map[string]any{"html": "<a href=\"x\">&amp;</a>", "sep": "  ", "ctl": "\x00\x1f\x7f", "bad utf8": "\xff",
			"empty": []int{}, "nil": nil, "nested": map[string][]float64{"f": {1e21, 1e-7, -0.0, 5e-324}}},
		errorBody{Error: "x", Code: "y"}, 42, "plain", []string(nil))
	for i, v := range values {
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		for round := 0; round < 2; round++ { // the second round reuses a pooled encoder
			got, err := Encode(v)
			if err != nil {
				t.Fatalf("value %d: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("value %d: Encode differs from MarshalIndent:\n%s\nvs\n%s", i, got, want)
			}
			if cap(got) != len(got) {
				t.Errorf("value %d: cap %d for a %d-byte body", i, cap(got), len(got))
			}
		}
	}
	if _, err := Encode(map[string]float64{"x": math.Inf(1)}); err == nil {
		t.Error("Encode accepted +Inf")
	}
	if got, _ := Encode(1); string(got) != "1\n" {
		t.Errorf("after a failed Encode the pooled encoder wrote %q", got)
	}
}
