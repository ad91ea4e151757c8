package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ringsched/internal/promtext"
	"ringsched/internal/wire"
)

type requestsBody struct {
	Total    uint64          `json:"total"`
	Retained int             `json:"retained"`
	Requests []RequestRecord `json:"requests"`
}

func getRequests(t *testing.T, base, query string) requestsBody {
	t.Helper()
	resp, err := http.Get(base + "/debug/requests" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/requests%s: code %d", query, resp.StatusCode)
	}
	var rb requestsBody
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	return rb
}

func TestFlightRecorderDigests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Miss, then hit: same body, two dispositions, two trace IDs.
	missResp, _ := post(t, ts.URL+"/v1/analyze", analyzeBody)
	hitResp, _ := post(t, ts.URL+"/v1/analyze", analyzeBody)
	missTrace := missResp.Header.Get("X-Ringsched-Trace")
	hitTrace := hitResp.Header.Get("X-Ringsched-Trace")
	if missTrace == "" || hitTrace == "" || missTrace == hitTrace {
		t.Fatalf("want two distinct trace IDs, got %q and %q", missTrace, hitTrace)
	}

	rb := getRequests(t, ts.URL, "")
	if rb.Total != 2 || rb.Retained != 2 {
		t.Fatalf("want total=2 retained=2, got total=%d retained=%d", rb.Total, rb.Retained)
	}
	byTrace := map[string]RequestRecord{}
	for _, rec := range rb.Requests {
		byTrace[rec.TraceID] = rec
	}
	miss, ok := byTrace[missTrace]
	if !ok {
		t.Fatalf("no record for miss trace %q in %+v", missTrace, rb.Requests)
	}
	hit, ok := byTrace[hitTrace]
	if !ok {
		t.Fatalf("no record for hit trace %q in %+v", hitTrace, rb.Requests)
	}
	for name, rec := range map[string]RequestRecord{"miss": miss, "hit": hit} {
		if rec.Method != http.MethodPost || rec.Endpoint != "analyze" || rec.Code != http.StatusOK {
			t.Fatalf("%s record wrong shape: %+v", name, rec)
		}
		if rec.Key == "" {
			t.Fatalf("%s record missing canonical cache key: %+v", name, rec)
		}
		if rec.LatencyMs < 0 {
			t.Fatalf("%s record has negative latency: %+v", name, rec)
		}
		if rec.Time.IsZero() {
			t.Fatalf("%s record missing time: %+v", name, rec)
		}
	}
	if miss.Cache != "miss" || hit.Cache != "hit" {
		t.Fatalf("want dispositions miss/hit, got %q/%q", miss.Cache, hit.Cache)
	}
	if miss.Key != hit.Key {
		t.Fatalf("same body must canonicalize to one key, got %q vs %q", miss.Key, hit.Key)
	}

	// Newest first: the hit happened after the miss.
	if rb.Requests[0].TraceID != hitTrace {
		t.Fatalf("want newest-first ordering, got %q first", rb.Requests[0].TraceID)
	}
}

func TestRequestsFilters(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	post(t, ts.URL+"/v1/analyze", analyzeBody)             // 200 analyze
	post(t, ts.URL+"/v1/analyze", `{"bandwidthMbps": -3}`) // 400 analyze
	post(t, ts.URL+"/v1/sweep", smallSweepBody)            // 200 sweep

	if rb := getRequests(t, ts.URL, "?endpoint=analyze"); rb.Retained != 2 {
		t.Fatalf("endpoint=analyze: want 2, got %d", rb.Retained)
	}
	rb := getRequests(t, ts.URL, "?errors=1")
	if rb.Retained != 1 || rb.Requests[0].Code != http.StatusBadRequest {
		t.Fatalf("errors=1: want the one 400, got %+v", rb.Requests)
	}
	if rb := getRequests(t, ts.URL, "?errors=1&endpoint=sweep"); rb.Retained != 0 {
		t.Fatalf("errors on sweep: want 0, got %d", rb.Retained)
	}
	if rb := getRequests(t, ts.URL, "?limit=1"); rb.Retained != 1 {
		t.Fatalf("limit=1: want 1, got %d", rb.Retained)
	}
	// Nothing here took an hour.
	if rb := getRequests(t, ts.URL, "?slow=3600000"); rb.Retained != 0 {
		t.Fatalf("slow=3600000: want 0, got %d", rb.Retained)
	}
	// A bare ?slow uses the configured threshold (default 1s) — these
	// requests are fast, so the set is empty but the request is valid.
	if rb := getRequests(t, ts.URL, "?slow"); rb.Retained != 0 {
		t.Fatalf("bare slow: want 0, got %d", rb.Retained)
	}

	for _, bad := range []string{"?slow=frog", "?slow=-1", "?limit=frog", "?limit=-2"} {
		resp, err := http.Get(ts.URL + "/debug/requests" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /debug/requests%s: want 400, got %d", bad, resp.StatusCode)
		}
	}
}

func TestSLOCountersAndExemplars(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// The 400 goes first: exemplar cells are last-write-wins, and both
	// requests are fast enough to share a latency bucket, so the trace
	// we assert on must come from the final request.
	post(t, ts.URL+"/v1/analyze", `{"bandwidthMbps": -3}`) // 400 is still "good"
	resp, _ := post(t, ts.URL+"/v1/analyze", analyzeBody)
	traceID := resp.Header.Get("X-Ringsched-Trace")

	if v := metricValue(t, ts.URL, `ringschedd_slo_requests_total\{class="good",endpoint="analyze"\}`); v != 2 {
		t.Fatalf("slo good analyze: want 2, got %v", v)
	}
	if v := metricValue(t, ts.URL, `ringschedd_request_log_total`); v != 2 {
		t.Fatalf("request_log_total: want 2, got %v", v)
	}

	// The exemplar family carries the trace ID of a recent sample.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	fams, err := promtext.Parse(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range fams {
		if f.Name != "ringschedd_request_seconds_exemplars" {
			continue
		}
		for _, sm := range f.Samples {
			if sm.Labels["endpoint"] == "analyze" && sm.Labels["traceId"] == traceID {
				found = true
			}
			if sm.Labels["le"] == "" || sm.Labels["traceId"] == "" {
				t.Fatalf("exemplar sample missing le or traceId: %+v", sm)
			}
		}
	}
	if !found {
		t.Fatalf("no exemplar carries trace %q", traceID)
	}
}

// TestMetricsConformance feeds the daemon's entire exposition through the
// strict parser and linter: every family must have HELP and a known TYPE,
// no duplicate registrations or series, histograms well-formed.
func TestMetricsConformance(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Touch enough surface that the optional families have samples.
	post(t, ts.URL+"/v1/analyze", analyzeBody)
	post(t, ts.URL+"/v1/analyze", analyzeBody)
	post(t, ts.URL+"/v1/sweep", smallSweepBody)
	_, b := ringJSON(t, ts.URL, http.MethodPost, "/v1/rings", ringCreateBody)
	ring := decodeJSON[wire.RingResponse](t, b)
	ringJSON(t, ts.URL, http.MethodPost, "/v1/rings/"+ring.ID+"/streams",
		`{"stream": {"name": "x", "periodMs": 5, "lengthBits": 1024}}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatalf("metrics exposition does not parse: %v", err)
	}
	if errs := promtext.Lint(fams); len(errs) > 0 {
		for _, e := range errs {
			t.Errorf("lint: %v", e)
		}
		t.Fatalf("%d lint violations in /metrics", len(errs))
	}
	for _, want := range []string{
		"ringschedd_requests_total", "ringschedd_request_seconds",
		"ringschedd_slo_requests_total", "ringschedd_request_seconds_exemplars",
		"ringschedd_request_log_total", "ringschedd_build_info", "ringschedd_rings",
	} {
		found := false
		for _, f := range fams {
			if f.Name == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("family %q missing from /metrics", want)
		}
	}
}

func TestRingHistoryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, b := ringJSON(t, ts.URL, http.MethodPost, "/v1/rings", ringCreateBody)
	ring := decodeJSON[wire.RingResponse](t, b)
	resp, b := ringJSON(t, ts.URL, http.MethodPost, "/v1/rings/"+ring.ID+"/streams",
		`{"stream": {"name": "audio", "periodMs": 20, "lengthBits": 8192}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add stream: %d %s", resp.StatusCode, b)
	}

	// JSON view: create record then add record, version chain intact.
	resp, b = ringJSON(t, ts.URL, http.MethodGet, "/v1/rings/"+ring.ID+"/history", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET history: %d %s", resp.StatusCode, b)
	}
	var h struct {
		RingID  string `json:"ringId"`
		Version uint64 `json:"version"`
		Records []struct {
			Seq           uint64    `json:"seq"`
			Op            string    `json:"op"`
			VersionBefore uint64    `json:"versionBefore"`
			Version       uint64    `json:"version"`
			TraceID       string    `json:"traceId"`
			Client        string    `json:"client"`
			Time          time.Time `json:"time"`
		} `json:"records"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatalf("history JSON: %v\n%s", err, b)
	}
	if h.RingID != ring.ID || h.Version != 2 || len(h.Records) != 2 {
		t.Fatalf("want ring %s at v2 with 2 records, got %+v", ring.ID, h)
	}
	if h.Records[0].Op != "create" || h.Records[1].Op != "add" {
		t.Fatalf("want ops create,add got %q,%q", h.Records[0].Op, h.Records[1].Op)
	}
	if h.Records[1].VersionBefore != 1 || h.Records[1].Version != 2 {
		t.Fatalf("version chain broken: %+v", h.Records[1])
	}
	for i, rec := range h.Records {
		if rec.TraceID == "" || rec.Client == "" || rec.Time.IsZero() {
			t.Fatalf("record %d missing meta: %+v", i, rec)
		}
	}

	// Script view: the ringadmit/WAL serialization.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/rings/"+ring.ID+"/history?format=script", nil)
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("script Content-Type: %q", ct)
	}
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, sresp)); err != nil {
		t.Fatal(err)
	}
	script := sb.String()
	for _, want := range []string{"# ring " + ring.ID + " history", "# bandwidth-mbps: 16", "add "} {
		if !strings.Contains(script, want) {
			t.Fatalf("script missing %q:\n%s", want, script)
		}
	}

	if resp, _ := ringJSON(t, ts.URL, http.MethodGet, "/v1/rings/"+ring.ID+"/history?format=xml", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format: want 400, got %d", resp.StatusCode)
	}
	if resp, _ := ringJSON(t, ts.URL, http.MethodGet, "/v1/rings/nosuch/history", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing ring history: want 404, got %d", resp.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// preallocRecorder is the flight recorder as it was when every shard
// allocated its share up front: the reference the growing shards must
// match.
type preallocRecorder struct {
	shards [recorderShards]struct {
		buf  []RequestRecord
		next int
		full bool
	}
}

func newPreallocRecorder(capacity int) *preallocRecorder {
	r := &preallocRecorder{}
	per := (max(capacity, recorderShards) + recorderShards - 1) / recorderShards
	for i := range r.shards {
		r.shards[i].buf = make([]RequestRecord, per)
	}
	return r
}

func (r *preallocRecorder) Record(rec RequestRecord) {
	sh := &r.shards[fnv1a(rec.TraceID)%recorderShards]
	sh.buf[sh.next] = rec
	if sh.next++; sh.next == len(sh.buf) {
		sh.next, sh.full = 0, true
	}
}

func (r *preallocRecorder) Snapshot() []RequestRecord {
	var out []RequestRecord
	for i := range r.shards {
		sh := &r.shards[i]
		if sh.full {
			out = append(out, sh.buf[sh.next:]...)
		}
		out = append(out, sh.buf[:sh.next]...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.After(out[j].Time) })
	return out
}

// TestRecorderGrowthMatchesPrealloc: shards that grow with use retain the
// same records in the same newest-first order as preallocated shards, at
// every fill level through three wraps. Records share timestamps in
// threes, so the order among equal times (shard, then arrival) counts too.
func TestRecorderGrowthMatchesPrealloc(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	for _, capacity := range []int{1, 16, 100, 700} {
		got, want := newRecorder(capacity), newPreallocRecorder(capacity)
		for i := 0; i <= 3*max(capacity, recorderShards)+5; i++ {
			if g, w := got.Snapshot(), want.Snapshot(); !reflect.DeepEqual(g, w) {
				t.Fatalf("capacity %d after %d records: snapshot of %d records, want %d:\n%v\nvs\n%v",
					capacity, i, len(g), len(w), g, w)
			}
			rec := RequestRecord{
				Time:     base.Add(time.Duration(i/3) * time.Millisecond),
				Endpoint: "analyze",
				Code:     200 + i,
				TraceID:  fmt.Sprintf("%032x", i*7919),
			}
			got.Record(rec)
			want.Record(rec)
		}
		if got.Total() != uint64(3*max(capacity, recorderShards)+6) {
			t.Errorf("capacity %d: Total %d", capacity, got.Total())
		}
		for i := range got.shards {
			if c := cap(got.shards[i].buf); c > got.per {
				t.Errorf("capacity %d: shard %d grew to %d slots, past its share %d", capacity, i, c, got.per)
			}
		}
	}
}

// BenchmarkFlightRecorderRecord holds the record path to its budget:
// at most one allocation per stored digest.
func BenchmarkFlightRecorderRecord(b *testing.B) {
	r := newRecorder(4096)
	rec := RequestRecord{
		Time: time.Now(), Method: "POST", Endpoint: "analyze",
		Key: "analyze|v1|16|2|...", Code: 200, Cache: "hit",
		LatencyMs: 0.42, TraceID: "f0a1b2c3d4e5f607",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(rec)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Record(rec) }); allocs > 1 {
		b.Fatalf("Record allocates %v times per op; budget is 1", allocs)
	}
}
