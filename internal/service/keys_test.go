package service

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// keyCase is one entry of testdata/cache_keys.json: a request as a client
// sends it and the cache key its canonical form had when the file was
// written. The keys must never be regenerated: cluster placement, the
// lb's routing and /v1/rings snapshotKey all depend on these exact bytes,
// so a changed key is a wire break. A new case takes its key from the
// cacheKey field of the server's response.
type keyCase struct {
	Name     string          `json:"name"`
	Endpoint string          `json:"endpoint"`
	Request  json.RawMessage `json:"request"`
	Key      string          `json:"key"`
}

// canonicalKeyOf decodes raw as the endpoint's request, canonicalizes it
// and returns its cache key.
func canonicalKeyOf(t *testing.T, endpoint string, raw []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var key string
	var err error
	switch endpoint {
	case "analyze":
		var req AnalyzeRequest
		if err = dec.Decode(&req); err == nil {
			var canon AnalyzeRequest
			if canon, err = req.Canonicalize(); err == nil {
				key = canon.CacheKey()
			}
		}
	case "sweep":
		var req SweepRequest
		if err = dec.Decode(&req); err == nil {
			var canon SweepRequest
			if canon, err = req.Canonicalize(); err == nil {
				key = canon.CacheKey()
			}
		}
	case "topology":
		var req TopologyRequest
		if err = dec.Decode(&req); err == nil {
			var canon TopologyRequest
			if canon, err = req.Canonicalize(); err == nil {
				key = canon.CacheKey()
			}
		}
	default:
		t.Fatalf("unknown endpoint %q", endpoint)
	}
	if err != nil {
		t.Fatalf("%s request %s: %v", endpoint, raw, err)
	}
	return key
}

// TestCacheKeysGolden pins the cache key of 50 canonical requests: names
// with quotes, commas, '|', NUL and non-ASCII; ±0; 1e-300 and 1e300;
// payload scales; fault specs and scenarios; sweeps and topologies.
func TestCacheKeysGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/cache_keys.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []keyCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) < 50 {
		t.Fatalf("%d golden cases, want at least 50", len(cases))
	}
	for _, c := range cases {
		if got := canonicalKeyOf(t, c.Endpoint, c.Request); got != c.Key {
			t.Errorf("%s: key %s, want %s", c.Name, got, c.Key)
		}
	}
}
