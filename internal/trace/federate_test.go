package trace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func rec(traceID, spanID, parentID, name string, start int64, durUS float64) Record {
	return Record{
		TraceID:    traceID,
		SpanID:     spanID,
		ParentID:   parentID,
		Name:       name,
		Start:      time.Unix(0, start*int64(time.Millisecond)).UTC(),
		DurationUS: durUS,
	}
}

func TestQueryFilter(t *testing.T) {
	recs := []Record{
		rec("t1", "a", "", "http.analyze", 1, 5000),
		rec("t1", "b", "a", "kernel", 2, 40),
		rec("t2", "c", "", "http.analyze", 3, 900),
		rec("t2", "d", "c", "encode", 4, 10),
	}
	cases := []struct {
		name string
		q    Query
		want []string
	}{
		{"all", Query{}, []string{"a", "b", "c", "d"}},
		{"trace", Query{Trace: "t1"}, []string{"a", "b"}},
		{"name", Query{Name: "http.analyze"}, []string{"a", "c"}},
		{"minDur", Query{MinDurUS: 1000}, []string{"a"}},
		{"limit keeps newest", Query{Limit: 2}, []string{"c", "d"}},
		{"combined", Query{Name: "http.analyze", Limit: 1}, []string{"c"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Filter(recs, tc.q)
			var ids []string
			for _, r := range got {
				ids = append(ids, r.SpanID)
			}
			if fmt.Sprint(ids) != fmt.Sprint(tc.want) {
				t.Fatalf("Filter(%+v) = %v, want %v", tc.q, ids, tc.want)
			}
		})
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, params := range []map[string]string{
		{"limit": "x"},
		{"limit": "-1"},
		{"minDurMs": "nope"},
		{"minDurMs": "-2"},
	} {
		_, err := ParseQuery(func(k string) string { return params[k] })
		if err == nil {
			t.Errorf("ParseQuery(%v): want error", params)
		}
	}
	q, err := ParseQuery(func(k string) string {
		return map[string]string{"trace": "t", "name": "n", "limit": "7", "minDurMs": "1.5"}[k]
	})
	if err != nil {
		t.Fatal(err)
	}
	if q.Trace != "t" || q.Name != "n" || q.Limit != 7 || q.MinDurUS != 1500 {
		t.Fatalf("ParseQuery = %+v", q)
	}
}

func TestMergeDedupsAndOrders(t *testing.T) {
	local := []Record{rec("t", "a", "", "root", 5, 100)}
	local[0].Member = "self"
	peer1 := []Record{
		func() Record { r := rec("t", "a", "", "root", 5, 100); r.Member = "peer1"; return r }(),
		func() Record { r := rec("t", "b", "a", "child", 6, 50); r.Member = "peer1"; return r }(),
	}
	peer2 := []Record{
		func() Record { r := rec("t", "c", "a", "other", 4, 20); r.Member = "peer2"; return r }(),
	}
	got := Merge(local, peer1, peer2)
	if len(got) != 3 {
		t.Fatalf("Merge: %d records, want 3", len(got))
	}
	// Ordered by start: c(4), a(5), b(6); duplicate "a" keeps the local copy.
	if got[0].SpanID != "c" || got[1].SpanID != "a" || got[2].SpanID != "b" {
		t.Fatalf("Merge order = %s %s %s", got[0].SpanID, got[1].SpanID, got[2].SpanID)
	}
	if got[1].Member != "self" {
		t.Fatalf("dedup kept %q attribution, want earlier group (self)", got[1].Member)
	}
}

func TestAssembleTree(t *testing.T) {
	recs := []Record{
		rec("t", "child2", "root", "b", 3, 10),
		rec("t", "root", "", "r", 1, 100),
		rec("t", "child1", "root", "a", 2, 10),
		rec("t", "grand", "child1", "g", 2, 5),
		rec("t", "orphan", "gone", "o", 4, 1),
	}
	roots := Assemble(recs)
	if len(roots) != 2 {
		t.Fatalf("Assemble: %d roots, want 2 (root + orphan)", len(roots))
	}
	if roots[0].SpanID != "root" || roots[1].SpanID != "orphan" {
		t.Fatalf("roots = %s, %s", roots[0].SpanID, roots[1].SpanID)
	}
	r := roots[0]
	if len(r.Children) != 2 || r.Children[0].SpanID != "child1" || r.Children[1].SpanID != "child2" {
		t.Fatalf("children of root = %+v", r.Children)
	}
	if len(r.Children[0].Children) != 1 || r.Children[0].Children[0].SpanID != "grand" {
		t.Fatalf("grandchildren = %+v", r.Children[0].Children)
	}
}

func TestAssembleSelfParentAndDup(t *testing.T) {
	recs := []Record{
		rec("t", "x", "x", "self-loop", 1, 1),
		rec("t", "x", "x", "dup", 2, 1),
	}
	roots := Assemble(recs)
	if len(roots) != 1 || roots[0].Name != "self-loop" {
		t.Fatalf("Assemble self-parent = %+v", roots)
	}
}

func decodeTraces(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return m
}

func TestDebugServerLocal(t *testing.T) {
	ring := NewRing(16)
	ring.Export(rec("t1", "a", "", "http.analyze", 1, 100))
	ring.Export(rec("t1", "b", "a", "kernel", 2, 10))
	ring.Export(rec("t2", "c", "", "http.analyze", 3, 5))
	ds := &DebugServer{Ring: ring, Self: "m1"}

	srv := httptest.NewServer(ds)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/traces?trace=t1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var got struct {
		Total    uint64   `json:"total"`
		Retained int      `json:"retained"`
		Spans    []Record `json:"spans"`
		Tree     []*Node  `json:"tree"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Total != 3 || got.Retained != 2 || len(got.Spans) != 2 {
		t.Fatalf("got total=%d retained=%d spans=%d", got.Total, got.Retained, len(got.Spans))
	}
	for _, sp := range got.Spans {
		if sp.Member != "m1" {
			t.Fatalf("span %s member = %q, want m1", sp.SpanID, sp.Member)
		}
	}
	if len(got.Tree) != 1 || got.Tree[0].SpanID != "a" || len(got.Tree[0].Children) != 1 {
		t.Fatalf("tree = %+v", got.Tree)
	}
}

func TestDebugServerFilters(t *testing.T) {
	ring := NewRing(16)
	for i := 0; i < 5; i++ {
		ring.Export(rec("t", fmt.Sprintf("s%d", i), "", "op", int64(i), float64(i)*1000))
	}
	ds := &DebugServer{Ring: ring}
	srv := httptest.NewServer(ds)
	defer srv.Close()

	for _, tc := range []struct {
		query string
		want  int
	}{
		{"?name=op", 5},
		{"?name=other", 0},
		{"?limit=2", 2},
		{"?minDurMs=3", 2}, // 3ms and 4ms spans
	} {
		resp, err := http.Get(srv.URL + "/debug/traces" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Spans []Record `json:"spans"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Spans) != tc.want {
			t.Errorf("%s: %d spans, want %d", tc.query, len(got.Spans), tc.want)
		}
	}

	// Bad params are a JSON 400.
	resp, err := http.Get(srv.URL + "/debug/traces?limit=frog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit: status %d, want 400", resp.StatusCode)
	}
}

func TestDebugServerFederation(t *testing.T) {
	ring := NewRing(16)
	ring.Export(rec("t1", "a", "", "lb.analyze", 1, 500))

	peerRecs := map[string][]Record{
		"peer1:1": {rec("t1", "b", "a", "http.analyze", 2, 300)},
		"peer2:2": {rec("t1", "c", "b", "peer.fill", 3, 100)},
	}
	ds := &DebugServer{
		Ring: ring,
		Self: "lb",
		Peers: func() []string {
			return []string{"peer2:2", "peer1:1"}
		},
		Fetch: func(ctx context.Context, member, traceID string) ([]Record, error) {
			if traceID != "t1" {
				return nil, nil
			}
			if member == "peer-down" {
				return nil, errors.New("dial refused")
			}
			return peerRecs[member], nil
		},
	}
	srv := httptest.NewServer(ds)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/traces?trace=t1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Spans   []Record      `json:"spans"`
		Tree    []*Node       `json:"tree"`
		Members []MemberSpans `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("federated spans = %d, want 3", len(got.Spans))
	}
	byID := map[string]string{}
	for _, sp := range got.Spans {
		byID[sp.SpanID] = sp.Member
	}
	if byID["a"] != "lb" || byID["b"] != "peer1:1" || byID["c"] != "peer2:2" {
		t.Fatalf("member attribution = %v", byID)
	}
	if len(got.Members) != 3 || got.Members[0].Member != "lb" || got.Members[0].Spans != 1 {
		t.Fatalf("members = %+v", got.Members)
	}
	// One merged tree: a → b → c.
	if len(got.Tree) != 1 || got.Tree[0].SpanID != "a" ||
		len(got.Tree[0].Children) != 1 || got.Tree[0].Children[0].SpanID != "b" ||
		len(got.Tree[0].Children[0].Children) != 1 || got.Tree[0].Children[0].Children[0].SpanID != "c" {
		t.Fatalf("tree = %s", mustJSON(got.Tree))
	}
}

func TestDebugServerFederationPeerError(t *testing.T) {
	ring := NewRing(4)
	ring.Export(rec("t1", "a", "", "root", 1, 10))
	ds := &DebugServer{
		Ring:  ring,
		Self:  "self",
		Peers: func() []string { return []string{"down:1"} },
		Fetch: func(ctx context.Context, member, traceID string) ([]Record, error) {
			return nil, errors.New("dial refused")
		},
	}
	srv := httptest.NewServer(ds)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/traces?trace=t1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with a down peer, want 200", resp.StatusCode)
	}
	var got struct {
		Spans   []Record      `json:"spans"`
		Members []MemberSpans `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != 1 {
		t.Fatalf("spans = %d, want the local span only", len(got.Spans))
	}
	if len(got.Members) != 2 || !strings.Contains(got.Members[1].Error, "dial refused") {
		t.Fatalf("members = %+v", got.Members)
	}
}

func TestDebugServerLocalParamSuppressesScatter(t *testing.T) {
	ring := NewRing(4)
	ring.Export(rec("t1", "a", "", "root", 1, 10))
	calls := 0
	ds := &DebugServer{
		Ring:  ring,
		Self:  "self",
		Peers: func() []string { return []string{"p:1"} },
		Fetch: func(ctx context.Context, member, traceID string) ([]Record, error) {
			calls++
			return nil, nil
		},
	}
	srv := httptest.NewServer(ds)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/traces?trace=t1&local=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if calls != 0 {
		t.Fatalf("local=1 still scattered to %d peers", calls)
	}
	body := decodeTraces(t, fetchBody(t, srv.URL+"/debug/traces?trace=t1&local=1"))
	if _, ok := body["members"]; ok {
		t.Fatalf("local=1 response carries members: %v", body)
	}
}

func fetchBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := buf.WriteString(""); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 0, 4096)
	tmp := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(tmp)
		b = append(b, tmp[:n]...)
		if err != nil {
			break
		}
	}
	return b
}

func mustJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}
