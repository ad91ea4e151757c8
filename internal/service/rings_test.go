package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ringsched/internal/wire"
)

func ringJSON(t *testing.T, ts string, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func decodeJSON[T any](t testing.TB, b []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("unmarshal %T from %s: %v", v, b, err)
	}
	return v
}

const ringCreateBody = `{
  "bandwidthMbps": 16,
  "streams": [
    {"name": "gyro", "periodMs": 10, "lengthBits": 4096},
    {"name": "telemetry", "periodMs": 50, "lengthBits": 65536}
  ]
}`

func TestRingsCRUD(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, b := ringJSON(t, ts.URL, http.MethodPost, "/v1/rings", ringCreateBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, b)
	}
	ring := decodeJSON[wire.RingResponse](t, b)
	if ring.ID == "" || ring.Version != 1 {
		t.Fatalf("create: id %q version %d, want non-empty id at version 1", ring.ID, ring.Version)
	}
	if len(ring.Streams) != 2 || len(ring.Verdicts) != 3 {
		t.Fatalf("create: %d streams, %d verdicts, want 2 and 3", len(ring.Streams), len(ring.Verdicts))
	}
	// Canonical order: gyro (10ms) before telemetry (50ms).
	if ring.Streams[0].Name != "gyro" || ring.Streams[1].Name != "telemetry" {
		t.Fatalf("create: stream order %+v, want canonical (gyro first)", ring.Streams)
	}
	for _, v := range ring.Verdicts {
		if !v.Schedulable {
			t.Fatalf("light 16 Mbps set reported infeasible on %s", v.Protocol)
		}
		for _, sv := range v.Streams {
			if sv.ID == "" {
				t.Fatalf("%s per-stream verdict missing id: %+v", v.Protocol, sv)
			}
		}
	}

	resp, b = ringJSON(t, ts.URL, http.MethodGet, "/v1/rings/"+ring.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: %d %s", resp.StatusCode, b)
	}
	got := decodeJSON[wire.RingResponse](t, b)
	if got.Version != 1 || len(got.Streams) != 2 {
		t.Fatalf("get: version %d streams %d, want 1 and 2", got.Version, len(got.Streams))
	}

	resp, b = ringJSON(t, ts.URL, http.MethodGet, "/v1/rings", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d %s", resp.StatusCode, b)
	}
	list := decodeJSON[wire.RingListResponse](t, b)
	if len(list.Rings) != 1 || list.Rings[0].ID != ring.ID || list.Rings[0].Streams != 2 {
		t.Fatalf("list: %+v, want one ring %s with 2 streams", list.Rings, ring.ID)
	}

	resp, b = ringJSON(t, ts.URL, http.MethodGet, "/v1/rings/r999", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get missing ring: %d %s, want 404", resp.StatusCode, b)
	}
	eb := decodeJSON[errorBody](t, b)
	if eb.Code != "not_found" {
		t.Fatalf("get missing ring: code %q, want not_found", eb.Code)
	}

	// Stale-version delete conflicts and leaves the ring resident.
	resp, b = ringJSON(t, ts.URL, http.MethodDelete, "/v1/rings/"+ring.ID+"?expectedVersion=7", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale delete: %d %s, want 409", resp.StatusCode, b)
	}
	eb = decodeJSON[errorBody](t, b)
	if eb.Code != "conflict" || eb.CurrentVersion != 1 {
		t.Fatalf("stale delete body: %+v, want code conflict currentVersion 1", eb)
	}
	resp, _ = ringJSON(t, ts.URL, http.MethodDelete, "/v1/rings/"+ring.ID+"?expectedVersion=1", "")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d, want 204", resp.StatusCode)
	}
	resp, _ = ringJSON(t, ts.URL, http.MethodGet, "/v1/rings/"+ring.ID, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: %d, want 404", resp.StatusCode)
	}
}

func TestRingsEditCASAndDelta(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, b := ringJSON(t, ts.URL, http.MethodPost, "/v1/rings", ringCreateBody)
	ring := decodeJSON[wire.RingResponse](t, b)

	// A lowest-priority add against the right version succeeds and
	// re-probes just itself on every protocol.
	add := `{"expectedVersion": 1, "stream": {"name": "bulk", "periodMs": 500, "lengthBits": 2048}}`
	resp, b := ringJSON(t, ts.URL, http.MethodPost, "/v1/rings/"+ring.ID+"/streams", add)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add: %d %s", resp.StatusCode, b)
	}
	edit := decodeJSON[wire.RingEditResponse](t, b)
	if edit.Version != 2 || edit.Op != "add" || edit.StreamID == "" {
		t.Fatalf("add response %+v, want version 2 op add with a stream id", edit)
	}
	for _, d := range edit.Deltas {
		if d.Reprobed != 1 {
			t.Fatalf("%s reprobed %d for a lowest-priority add, want 1", d.Protocol, d.Reprobed)
		}
		if d.EditedSchedulable == nil || !*d.EditedSchedulable {
			t.Fatalf("%s: editedSchedulable %v, want true", d.Protocol, d.EditedSchedulable)
		}
	}

	// Replaying the same edit against the now-stale version conflicts.
	resp, b = ringJSON(t, ts.URL, http.MethodPost, "/v1/rings/"+ring.ID+"/streams", add)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale add: %d %s, want 409", resp.StatusCode, b)
	}
	eb := decodeJSON[errorBody](t, b)
	if eb.Code != "conflict" || eb.CurrentVersion != 2 {
		t.Fatalf("stale add body %+v, want code conflict currentVersion 2", eb)
	}

	// Modify and remove round-trip through the wire stream ID.
	mod := `{"expectedVersion": 2, "stream": {"name": "bulk", "periodMs": 250, "lengthBits": 4096}}`
	resp, b = ringJSON(t, ts.URL, http.MethodPut, "/v1/rings/"+ring.ID+"/streams/"+edit.StreamID, mod)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("modify: %d %s", resp.StatusCode, b)
	}
	if got := decodeJSON[wire.RingEditResponse](t, b); got.Version != 3 || got.StreamID != edit.StreamID {
		t.Fatalf("modify response %+v, want version 3 same stream id", got)
	}
	resp, b = ringJSON(t, ts.URL, http.MethodDelete,
		"/v1/rings/"+ring.ID+"/streams/"+edit.StreamID+"?expectedVersion=3", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: %d %s", resp.StatusCode, b)
	}
	if got := decodeJSON[wire.RingEditResponse](t, b); got.Version != 4 || got.Op != "remove" {
		t.Fatalf("remove response %+v, want version 4 op remove", got)
	}

	// Unknown stream id and malformed id both 404.
	resp, _ = ringJSON(t, ts.URL, http.MethodDelete, "/v1/rings/"+ring.ID+"/streams/"+edit.StreamID, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("remove removed stream: %d, want 404", resp.StatusCode)
	}
	resp, _ = ringJSON(t, ts.URL, http.MethodDelete, "/v1/rings/"+ring.ID+"/streams/bogus", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("remove bogus stream id: %d, want 404", resp.StatusCode)
	}

	// Edit metrics and the reprobe histogram are live.
	if n := metricValue(t, ts.URL, `ringschedd_ring_edits_total\{.*op="add".*outcome="ok"`); n != 1 {
		t.Fatalf("ring_edits_total{add,ok} = %v, want 1", n)
	}
	if n := metricValue(t, ts.URL, `ringschedd_reprobe_streams_count\{.*op="add"`); n != 1 {
		t.Fatalf("reprobe_streams_count{add} = %v, want 1", n)
	}
}

// agreementRing is a ring built by a create and a run of stream adds,
// shared by the route-agreement tests here and in cmd/ringadmit.
type agreementRing struct {
	name   string
	create string   // the /v1/rings create body
	adds   []string // stream objects, each added by its own edit
	// wire, when set, is text the ring's GET body must hold: the case
	// exists to pin that rendering.
	wire string
}

// agreementRings are the rings every route to a verdict must agree on:
//   - a 4 Mbps ring under the lossy-token scenario, grown by edits;
//   - FDDI at 100 Mbps under lossy-token, whose degraded Σh is unbounded
//     and travels as -1;
//   - 101 streams, past the paper's 100 stations, so the last add
//     re-plants the ring.
func agreementRings() []agreementRing {
	var plant strings.Builder
	for i := 0; i < 99; i++ {
		if i > 0 {
			plant.WriteByte(',')
		}
		fmt.Fprintf(&plant, `{"name": "n%d", "periodMs": %d, "lengthBits": %d}`, i, 20+i%17, 512+64*(i%5))
	}
	rings := []agreementRing{
		{
			name: "lossy-token 4 Mbps",
			create: `{
	  "bandwidthMbps": 4,
	  "scenario": "lossy-token",
	  "streams": [{"name": "a", "periodMs": 12, "lengthBits": 16384}]
	}`,
		},
		{
			name:   "fddi unbounded degraded allocation",
			create: `{"protocols": ["fddi"], "bandwidthMbps": 100, "scenario": "lossy-token", "streams": [{"periodMs": 1, "lengthBits": 1000}]}`,
			adds:   []string{`{"periodMs": 3, "lengthBits": 1000}`},
			wire:   `"totalAllocation": -1`,
		},
		{
			name:   "101 streams",
			create: `{"bandwidthMbps": 100, "faultModel": "loss:p=1e-3", "streams": [` + plant.String() + `]}`,
			adds:   []string{`{"name": "n99", "periodMs": 7, "lengthBits": 4096}`, `{"name": "n100", "periodMs": 25, "lengthBits": 2048}`},
		},
	}
	// Grow the first ring through the incremental path so the comparison
	// exercises edited state, not just the bulk-create path.
	for i := 0; i < 4; i++ {
		rings[0].adds = append(rings[0].adds, fmt.Sprintf(`{"name": "h%d", "periodMs": 6, "lengthBits": 16384}`, i))
	}
	return rings
}

// TestRingSnapshotMatchesAnalyze is the snapshot-consistency satellite:
// the verdicts a ring session reports at one version must be exactly the
// verdicts /v1/analyze computes for the same snapshot, and the ring's
// snapshotKey must be the analyze request's cache key.
func TestRingSnapshotMatchesAnalyze(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range agreementRings() {
		t.Run(tc.name, func(t *testing.T) {
			_, b := ringJSON(t, ts.URL, http.MethodPost, "/v1/rings", tc.create)
			ring := decodeJSON[wire.RingResponse](t, b)
			for i, add := range tc.adds {
				resp, eb := ringJSON(t, ts.URL, http.MethodPost, "/v1/rings/"+ring.ID+"/streams", `{"stream": `+add+`}`)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("add %d: %d %s", i, resp.StatusCode, eb)
				}
			}
			_, b = ringJSON(t, ts.URL, http.MethodGet, "/v1/rings/"+ring.ID, "")
			if !bytes.Contains(b, []byte(tc.wire)) {
				t.Fatalf("ring body lacks %s:\n%s", tc.wire, b)
			}
			ring = decodeJSON[wire.RingResponse](t, b)

			// Rebuild the equivalent stateless request from the ring snapshot.
			areq := AnalyzeRequest{
				Protocols:     ring.Protocols,
				BandwidthMbps: ring.BandwidthMbps,
				FaultModel:    ring.FaultModel,
				Detail:        true,
			}
			for _, st := range ring.Streams {
				areq.Streams = append(areq.Streams, StreamSpec{Name: st.Name, PeriodMs: st.PeriodMs, LengthBits: st.LengthBits})
			}
			body, err := json.Marshal(areq)
			if err != nil {
				t.Fatal(err)
			}
			resp, b := post(t, ts.URL+"/v1/analyze", string(body))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("analyze: %d %s", resp.StatusCode, b)
			}
			analyzed := decodeJSON[AnalyzeResponse](t, b)

			if ring.SnapshotKey == "" || ring.SnapshotKey != analyzed.CacheKey {
				t.Fatalf("snapshotKey %q != analyze cacheKey %q", ring.SnapshotKey, analyzed.CacheKey)
			}
			// The verdicts must be identical except for the ring-only stream IDs.
			stripped := ring.Verdicts
			for i := range stripped {
				for j := range stripped[i].Streams {
					stripped[i].Streams[j].ID = ""
				}
			}
			want, err := json.Marshal(analyzed.Verdicts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(stripped)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("ring verdicts diverge from /v1/analyze:\nring:    %s\nanalyze: %s", got, want)
			}
		})
	}
}

// TestRingCreateUnknownProtocolMatchesAnalyze: a ring create and
// /v1/analyze canonicalize protocol lists with one function, so both
// refuse an unknown slug with the same 400 body.
func TestRingCreateUnknownProtocolMatchesAnalyze(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	const body = `{"protocols":["token-bus"],"bandwidthMbps":16,"streams":[{"periodMs":10,"lengthBits":1024}]}`
	const want = `{"error":"service: unknown protocol: \"token-bus\" (valid: modified-802.5, standard-802.5, fddi)","code":"bad_request"}` + "\n"
	for _, path := range []string{"/v1/analyze", "/v1/rings"} {
		if w := serve(s.Handler(), path, body); w.Code != http.StatusBadRequest || w.Body.String() != want {
			t.Errorf("%s: %d %s, want 400 %s", path, w.Code, w.Body, want)
		}
	}
}

// TestRingsParallelEditors drives concurrent CAS editors through the
// HTTP surface: every round has exactly one winner, and losers learn the
// current version from the 409 body.
func TestRingsParallelEditors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, b := ringJSON(t, ts.URL, http.MethodPost, "/v1/rings", `{"bandwidthMbps": 16}`)
	ring := decodeJSON[wire.RingResponse](t, b)

	const editors, rounds = 4, 8
	// Versions start at 1 and every winning edit bumps it once, so the
	// highest reachable version is editors·rounds + 1.
	var wins [editors*rounds + 2]int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for e := 0; e < editors; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			version := uint64(1)
			for r := 0; r < rounds; r++ {
				body := fmt.Sprintf(`{"expectedVersion": %d, "stream": {"name": "e%d-%d", "periodMs": 100, "lengthBits": 1024}}`,
					version, e, r)
				resp, rb := ringJSON(t, ts.URL, http.MethodPost, "/v1/rings/"+ring.ID+"/streams", body)
				switch resp.StatusCode {
				case http.StatusOK:
					edit := decodeJSON[wire.RingEditResponse](t, rb)
					mu.Lock()
					wins[edit.Version]++
					mu.Unlock()
					version = edit.Version
				case http.StatusConflict:
					eb := decodeJSON[errorBody](t, rb)
					if eb.CurrentVersion == 0 {
						t.Errorf("conflict body missing currentVersion: %s", rb)
						return
					}
					version = eb.CurrentVersion
				default:
					t.Errorf("editor %d: unexpected status %d: %s", e, resp.StatusCode, rb)
					return
				}
			}
		}(e)
	}
	wg.Wait()
	total := 0
	for v, n := range wins {
		if n > 1 {
			t.Fatalf("version %d produced by %d edits, want at most 1", v, n)
		}
		total += int(n)
	}
	if total == 0 {
		t.Fatal("no editor ever won a round")
	}
}

// TestRingsLimits exercises the capacity guards on the wire.
func TestRingsLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRings: 1, MaxRingStreams: 2})
	resp, _ := ringJSON(t, ts.URL, http.MethodPost, "/v1/rings", `{"bandwidthMbps": 16}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	resp, b := ringJSON(t, ts.URL, http.MethodPost, "/v1/rings", `{"bandwidthMbps": 16}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second ring: %d %s, want 429", resp.StatusCode, b)
	}
	if eb := decodeJSON[errorBody](t, b); eb.Code != "overloaded" {
		t.Fatalf("second ring code %q, want overloaded", eb.Code)
	}

	add := `{"stream": {"periodMs": 10, "lengthBits": 1024}}`
	for i := 0; i < 2; i++ {
		resp, b = ringJSON(t, ts.URL, http.MethodPost, "/v1/rings/r1/streams", add)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("add %d: %d %s", i, resp.StatusCode, b)
		}
	}
	resp, b = ringJSON(t, ts.URL, http.MethodPost, "/v1/rings/r1/streams", add)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third stream: %d %s, want 429", resp.StatusCode, b)
	}

	// Bad requests stay 400 with bad_request.
	resp, b = ringJSON(t, ts.URL, http.MethodPost, "/v1/rings", `{"bandwidthMbps": -1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad create: %d %s, want 400", resp.StatusCode, b)
	}
}

// TestRingOverflowAnswersTyped400 holds /v1/rings to /v1/analyze's answer
// for magnitudes the analysis cannot represent: a create whose payload is
// at or past 2^72 bits, or whose cost overflows to +Inf on a near-zero
// bandwidth, answers 400 bad_request (it used to panic into a 500), and
// an add or modify carrying such a payload answers 400 and leaves the
// ring's version and verdicts as they were.
func TestRingOverflowAnswersTyped400(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	badRequest := func(what string, w interface {
		Result() *http.Response
	}, body []byte) {
		t.Helper()
		var e errorBody
		if code := w.Result().StatusCode; code != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Code != "bad_request" {
			t.Fatalf("%s: %d %s, want 400 code bad_request", what, code, body)
		}
	}
	for _, body := range []string{
		`{"bandwidthMbps":100,"streams":[{"periodMs":10,"lengthBits":1e308}]}`,
		`{"bandwidthMbps":1e-300,"streams":[{"periodMs":10,"lengthBits":1e18}]}`,
	} {
		w := serve(h, "/v1/rings", body)
		badRequest("create "+body, w, w.Body.Bytes())
	}

	w := serve(h, "/v1/rings", ringCreateBody)
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	ring := decodeJSON[wire.RingResponse](t, w.Body.Bytes())
	state := func() []byte {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/rings/"+ring.ID, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("get: %d %s", w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	before := state()
	edit := `{"expectedVersion": 1, "stream": {"name": "huge", "periodMs": 10, "lengthBits": 1e308}}`
	w = serve(h, "/v1/rings/"+ring.ID+"/streams", edit)
	badRequest("add", w, w.Body.Bytes())
	mod := httptest.NewRecorder()
	h.ServeHTTP(mod, httptest.NewRequest(http.MethodPut, "/v1/rings/"+ring.ID+"/streams/"+ring.Streams[0].ID, strings.NewReader(edit)))
	badRequest("modify", mod, mod.Body.Bytes())
	if after := state(); !bytes.Equal(after, before) {
		t.Fatalf("refused edits changed the ring:\n%s\nvs\n%s", after, before)
	}
}

// TestRingNonFiniteVerdictsAnswer400: a ring whose verdicts would hold a
// number JSON cannot carry (+Inf at a near-zero bandwidth) is refused
// with the 400 /v1/analyze gives the same set, byte for byte. A refused
// create stores no ring; a refused add or modify leaves the version,
// verdicts and audit trail as they were, and the ring still reads 200.
func TestRingNonFiniteVerdictsAnswer400(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	get := func(path string) []byte {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	send := func(method, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w
	}
	const refusal = `{"error":"service: bad request: analysis result out of range: json: unsupported value: +Inf","code":"bad_request"}` + "\n"
	for _, body := range []string{
		`{"protocols":["fddi"],"bandwidthMbps":1e-300,"streams":[{"periodMs":10,"lengthBits":1e18}]}`,
		`{"protocols":["modified-802.5"],"bandwidthMbps":1e-310,"streams":[{"periodMs":10,"lengthBits":1}]}`,
		// Finite everywhere but one response time, which the dense
		// stream's demand carries past 1e308 s.
		`{"protocols":["modified-802.5"],"bandwidthMbps":1,"streams":[{"periodMs":1e305,"lengthBits":1},{"periodMs":1,"lengthBits":1e10}]}`,
	} {
		analyze := serve(h, "/v1/analyze", strings.Replace(body, "{", `{"detail":true,`, 1))
		create := serve(h, "/v1/rings", body)
		if create.Code != http.StatusBadRequest || create.Body.String() != refusal ||
			analyze.Code != create.Code || analyze.Body.String() != create.Body.String() {
			t.Fatalf("%s: create %d %s, analyze %d %s", body, create.Code, create.Body, analyze.Code, analyze.Body)
		}
	}
	if list := decodeJSON[wire.RingListResponse](t, get("/v1/rings")); len(list.Rings) != 0 {
		t.Fatalf("refused creates left rings: %+v", list.Rings)
	}

	for _, tc := range []struct{ create, method, path string }{
		{`{"protocols":["fddi"],"bandwidthMbps":1e-300}`, http.MethodPost, "/streams"},
		{`{"protocols":["fddi"],"bandwidthMbps":1e-300,"streams":[{"periodMs":10,"lengthBits":1}]}`, http.MethodPut, "/streams/s1"},
	} {
		w := serve(h, "/v1/rings", tc.create)
		if w.Code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", tc.create, w.Code, w.Body)
		}
		id := decodeJSON[wire.RingResponse](t, w.Body.Bytes()).ID
		before, history := get("/v1/rings/"+id), get("/v1/rings/"+id+"/history")
		w = send(tc.method, "/v1/rings/"+id+tc.path, `{"expectedVersion":1,"stream":{"periodMs":10,"lengthBits":1e18}}`)
		if w.Code != http.StatusBadRequest || w.Body.String() != refusal {
			t.Fatalf("%s %s: %d %s, want %s", tc.method, tc.path, w.Code, w.Body, refusal)
		}
		if after := get("/v1/rings/" + id); !bytes.Equal(after, before) {
			t.Fatalf("refused %s changed the ring:\n%s\nvs\n%s", tc.method, after, before)
		}
		if after := get("/v1/rings/" + id + "/history"); !bytes.Equal(after, history) {
			t.Fatalf("refused %s changed the history:\n%s\nvs\n%s", tc.method, after, history)
		}
	}
}

// FuzzRingsHTTP drives /v1/rings at the HTTP boundary. Each input is a
// create body and two edit bodies, sent to one Server as a create (or,
// when it is refused, a create of a fixed ring), an add, a modify of the
// ring's first stream and a remove of it, and:
//   - every answer is a 2xx or a typed 4xx (a JSON error body with a
//     code), never a 5xx;
//   - every 2xx JSON body equals json.MarshalIndent plus '\n' of itself
//     decoded into its response type;
//   - a GET of the ring answers 200 after every step.
func FuzzRingsHTTP(f *testing.F) {
	for _, seed := range [][3]string{
		{ringCreateBody, `{"expectedVersion":1,"stream":{"name":"bulk","periodMs":500,"lengthBits":2048}}`,
			`{"stream":{"name":"gyro","periodMs":12,"lengthBits":4096}}`},
		{`{"protocols":["fddi"],"bandwidthMbps":1e-300,"streams":[{"periodMs":10,"lengthBits":1e18}]}`,
			`{"stream":{"periodMs":10,"lengthBits":1e18}}`, `{"stream":{"periodMs":10,"lengthBits":1e18}}`},
		{`{"protocols":["modified-802.5"],"bandwidthMbps":1e-310,"streams":[{"periodMs":10,"lengthBits":1}]}`,
			`{"stream":{"periodMs":10,"lengthBits":1}}`, `{"expectedVersion":2,"stream":{"periodMs":1e-300,"lengthBits":1e-300}}`},
		{`{"protocols":["fddi"],"bandwidthMbps":1e-300}`, `{"expectedVersion":1,"stream":{"periodMs":10,"lengthBits":1e18}}`,
			`{"stream":{"periodMs":10,"lengthBits":1}}`},
		{`{"bandwidthMbps":1e6,"streams":[{"periodMs":10,"lengthBits":4096}]}`,
			`{"stream":{"periodMs":1E+6,"lengthBits":1e6}}`, `{"expectedVersion":1e3,"stream":{"periodMs":10,"lengthBits":1}}`},
		{`{"bandwidthMbps":1E+6,"faultModel":"loss:p=1e-3","streams":[{"name":"<&>","periodMs":10,"lengthBits":4096}]}`,
			`{"stream":{"name":"gyró","periodMs":20,"lengthBits":2048}}`, `{"stream":{"name":"a\"bA\\","periodMs":5,"lengthBits":1e-300}}`},
		{`{"bandwidthMbps":1e-300,"scenario":"degraded","streams":[{"name":"<","periodMs":1e300,"lengthBits":4096}]}`,
			`{"stream":{"name":"é","periodMs":1e-300,"lengthBits":1}}`, `{"stream":{"periodMs":10,"lengthBits":1e308}}`},
		{`{"bandwidthMbps":100,"streams":[{"periodMs":10,"lengthBits":4096}]}`, `not json`, `{"expectedVersion":18446744073709551615}`},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	do := func(t *testing.T, method, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		if w.Code >= 200 && w.Code < 300 {
			return w
		}
		var e errorBody
		if w.Code >= 500 || w.Code < 400 || json.Unmarshal(w.Body.Bytes(), &e) != nil || e.Code == "" {
			t.Fatalf("%s %s %q: %d %s, want a 2xx or a typed 4xx", method, path, body, w.Code, w.Body)
		}
		return w
	}
	canonical := func(t *testing.T, w *httptest.ResponseRecorder, v any) {
		t.Helper()
		if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
			t.Fatalf("2xx body does not decode: %v\n%s", err, w.Body)
		}
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("2xx body is not MarshalIndent of itself:\n%s\nvs\n%s", w.Body, want)
		}
	}
	f.Fuzz(func(t *testing.T, create, add, modify string) {
		w := do(t, http.MethodPost, "/v1/rings", create)
		if w.Code != http.StatusCreated {
			w = do(t, http.MethodPost, "/v1/rings", ringCreateBody)
		}
		var ring wire.RingResponse
		canonical(t, w, &ring)
		base := "/v1/rings/" + ring.ID
		defer do(t, http.MethodDelete, base, "")
		check := func() {
			t.Helper()
			w := do(t, http.MethodGet, base, "")
			if w.Code != http.StatusOK {
				t.Fatalf("GET %s: %d %s", base, w.Code, w.Body)
			}
			canonical(t, w, &wire.RingResponse{})
		}
		check()
		if w := do(t, http.MethodPost, base+"/streams", add); w.Code == http.StatusOK {
			canonical(t, w, &wire.RingEditResponse{})
		}
		check()
		w = do(t, http.MethodGet, base, "")
		var now wire.RingResponse
		canonical(t, w, &now)
		if len(now.Streams) == 0 {
			return
		}
		sid := base + "/streams/" + now.Streams[0].ID
		if w := do(t, http.MethodPut, sid, modify); w.Code == http.StatusOK {
			canonical(t, w, &wire.RingEditResponse{})
		}
		check()
		if w := do(t, http.MethodDelete, sid, ""); w.Code == http.StatusOK {
			canonical(t, w, &wire.RingEditResponse{})
		}
		check()
	})
}
