package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
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

// canonLessOracle is the less function Canonicalize sorted streams with
// through sort.SliceStable before it moved to slices.SortStableFunc.
func canonLessOracle(a, b StreamSpec) bool {
	if a.PeriodMs != b.PeriodMs {
		return a.PeriodMs < b.PeriodMs
	}
	if a.LengthBits != b.LengthBits {
		return a.LengthBits < b.LengthBits
	}
	return a.Name < b.Name
}

// TestCanonicalStreamOrderMatchesOracle pins Canonicalize's stream order
// to the old sort.SliceStable over canonLessOracle, on sets with equal
// periods, equal lengths, names that differ only in case or length,
// and repeated streams, in many input orders.
func TestCanonicalStreamOrderMatchesOracle(t *testing.T) {
	table := [][]StreamSpec{
		{{Name: "b", PeriodMs: 10, LengthBits: 1}, {Name: "a", PeriodMs: 10, LengthBits: 1}, {Name: "", PeriodMs: 10, LengthBits: 1}},
		{{Name: "x", PeriodMs: 10, LengthBits: 2}, {Name: "x", PeriodMs: 10, LengthBits: 1}, {Name: "y", PeriodMs: 5, LengthBits: 2}},
		{{Name: "B", PeriodMs: 1, LengthBits: 8}, {Name: "b", PeriodMs: 1, LengthBits: 8}, {Name: "bb", PeriodMs: 1, LengthBits: 8}, {Name: "b", PeriodMs: 1, LengthBits: 8}},
		{{Name: "z", PeriodMs: 3, LengthBits: 7}, {Name: "z", PeriodMs: 3, LengthBits: 7}, {Name: "a", PeriodMs: 3, LengthBits: 7}, {Name: "m", PeriodMs: 2, LengthBits: 9}, {Name: "m", PeriodMs: 2, LengthBits: 7}},
	}
	rng := rand.New(rand.NewSource(1))
	for i, streams := range table {
		for shuffle := 0; shuffle < 50; shuffle++ {
			in := append([]StreamSpec(nil), streams...)
			rng.Shuffle(len(in), func(a, b int) { in[a], in[b] = in[b], in[a] })
			canon, err := AnalyzeRequest{BandwidthMbps: 16, Streams: in}.Canonicalize()
			if err != nil {
				t.Fatal(err)
			}
			want := append([]StreamSpec(nil), in...)
			sort.SliceStable(want, func(a, b int) bool { return canonLessOracle(want[a], want[b]) })
			for k := range want {
				if canon.Streams[k] != want[k] {
					t.Fatalf("case %d, input %v: Canonicalize order %v, oracle %v", i, in, canon.Streams, want)
				}
			}
		}
	}
}
