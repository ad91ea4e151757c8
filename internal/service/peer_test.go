package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// testCluster is N in-process replicas listening on real loopback ports,
// each configured with the full member set. Real listeners (not httptest)
// because the advertise addresses must be known before service.New runs.
type testCluster struct {
	addrs   []string
	servers []*Server
}

func startTestCluster(t *testing.T, n int, tweak func(i int, cfg *Config)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	listeners := make([]net.Listener, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		tc.addrs = append(tc.addrs, ln.Addr().String())
	}
	for i, ln := range listeners {
		var peers []string
		for j, a := range tc.addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		cfg := Config{
			Advertise:       tc.addrs[i],
			Peers:           peers,
			PeerFillTimeout: 2 * time.Second,
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		srv := New(cfg)
		tc.servers = append(tc.servers, srv)
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
	}
	return tc
}

// analyzeOwnedBy searches bandwidths from minBW up until it finds an
// analyze request whose canonical key the given member owns, returning
// the request and its key.
func (tc *testCluster) analyzeOwnedBy(t *testing.T, srv *Server, member string, minBW int) (AnalyzeRequest, string) {
	t.Helper()
	for bw := minBW; bw < minBW+4096; bw++ {
		req := AnalyzeRequest{
			BandwidthMbps: float64(bw),
			Streams:       []StreamSpec{{Name: "s", PeriodMs: 10, LengthBits: 4096}},
		}
		canon, err := req.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		key := canon.CacheKey()
		if srv.clust.ring.Owner(key) == member {
			return req, key
		}
	}
	t.Fatal("no bandwidth found with the desired owner")
	return AnalyzeRequest{}, ""
}

// post sends req to addr's endpoint and returns the status, X-Cache
// header, and body.
func postJSON(t *testing.T, addr, path string, req any, hdr map[string]string) (int, string, []byte) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, "http://"+addr+path, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), body
}

func computes(s *Server, endpoint string) float64 {
	return s.computes.Value(labels("endpoint", endpoint))
}

func TestPeerFillMissThenHit(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	a, b := tc.servers[0], tc.servers[1]

	// A request B owns, posted to A: A must fill from B, which computes.
	req, _ := tc.analyzeOwnedBy(t, a, tc.addrs[1], 1)
	code, xc, body := postJSON(t, tc.addrs[0], "/v1/analyze", req, nil)
	if code != http.StatusOK || xc != "peer" {
		t.Fatalf("non-owner answered %d X-Cache=%q, want 200 peer", code, xc)
	}
	if !bytes.Contains(body, []byte("verdicts")) {
		t.Fatalf("peer-filled body looks wrong: %s", body)
	}
	if got := computes(a, "analyze"); got != 0 {
		t.Errorf("non-owner computed %v times, want 0", got)
	}
	if got := computes(b, "analyze"); got != 1 {
		t.Errorf("owner computed %v times, want 1", got)
	}
	if got := a.peerFill.Value(labels("result", "miss")); got != 1 {
		t.Errorf("peer_fill_total{result=miss} = %v, want 1", got)
	}

	// Same request again: now in A's local cache.
	if _, xc, _ := postJSON(t, tc.addrs[0], "/v1/analyze", req, nil); xc != "hit" {
		t.Errorf("second post X-Cache = %q, want hit", xc)
	}

	// A fresh B-owned request B has already cached: fill reports a hit.
	req2, _ := tc.analyzeOwnedBy(t, a, tc.addrs[1], int(req.BandwidthMbps)+1)
	if _, xc, _ := postJSON(t, tc.addrs[1], "/v1/analyze", req2, nil); xc != "miss" {
		t.Fatalf("owner warm-up X-Cache = %q, want miss", xc)
	}
	if _, xc, _ := postJSON(t, tc.addrs[0], "/v1/analyze", req2, nil); xc != "peer" {
		t.Fatalf("filled-from-cache X-Cache = %q, want peer", xc)
	}
	if got := a.peerFill.Value(labels("result", "hit")); got != 1 {
		t.Errorf("peer_fill_total{result=hit} = %v, want 1", got)
	}
}

func TestPeerFillSelfOwnedComputesLocally(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	a := tc.servers[0]
	req, _ := tc.analyzeOwnedBy(t, a, tc.addrs[0], 1)
	if _, xc, _ := postJSON(t, tc.addrs[0], "/v1/analyze", req, nil); xc != "miss" {
		t.Fatalf("self-owned X-Cache = %q, want miss", xc)
	}
	if got := computes(a, "analyze"); got != 1 {
		t.Errorf("owner computed %v times, want 1", got)
	}
	if got := a.peerFill.Value(labels("result", "miss")) + a.peerFill.Value(labels("result", "hit")); got != 0 {
		t.Errorf("self-owned request issued %v peer fills", got)
	}
}

// TestPeerFillHopGuard: a request already carrying the hop header is
// never forwarded again, even by a non-owner — the loop guard that keeps
// disagreeing ring configurations from bouncing a request forever.
func TestPeerFillHopGuard(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	a, b := tc.servers[0], tc.servers[1]
	req, _ := tc.analyzeOwnedBy(t, a, tc.addrs[1], 1)
	_, xc, _ := postJSON(t, tc.addrs[0], "/v1/analyze", req, map[string]string{peerHopHeader: "1"})
	if xc != "miss" {
		t.Fatalf("hopped request X-Cache = %q, want miss (computed locally)", xc)
	}
	if got := computes(a, "analyze"); got != 1 {
		t.Errorf("non-owner computed %v times, want 1 (local fallback)", got)
	}
	if got := computes(b, "analyze"); got != 0 {
		t.Errorf("owner computed %v times, want 0", got)
	}
}

// TestPeerFillOwnerDownFallsBack: a dead owner degrades the cluster to
// per-process caching, not to errors. The "owner" here is a port that
// was briefly bound and then released, so the fill fails fast with a
// connection refused.
func TestPeerFillOwnerDownFallsBack(t *testing.T) {
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	tc := startTestCluster(t, 1, func(i int, cfg *Config) {
		cfg.Peers = []string{deadAddr}
		cfg.PeerFillTimeout = 300 * time.Millisecond
	})
	a := tc.servers[0]
	req, _ := tc.analyzeOwnedBy(t, a, deadAddr, 1)
	code, xc, _ := postJSON(t, tc.addrs[0], "/v1/analyze", req, nil)
	if code != http.StatusOK || xc != "miss" {
		t.Fatalf("dead-owner request answered %d X-Cache=%q, want 200 miss (local fallback)", code, xc)
	}
	if got := a.peerFill.Value(labels("result", "error")); got != 1 {
		t.Errorf("peer_fill_total{result=error} = %v, want 1", got)
	}
	if got := computes(a, "analyze"); got != 1 {
		t.Errorf("fallback computed %v times, want 1", got)
	}
}

// TestPeerFillOversizedEnvelopeFallsBack: a body within MaxBodyBytes can
// re-marshal past it (encoding/json writes each '<' of a name as six
// bytes), and the owner refuses that fill envelope with its 413, as any
// door refuses such a body; the requester computes locally, as after any
// failed fill.
func TestPeerFillOversizedEnvelopeFallsBack(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	a, b := tc.servers[0], tc.servers[1]
	name := strings.Repeat("<", MaxBodyBytes/5)
	var body string
	for bw := 1; body == ""; bw++ {
		req := AnalyzeRequest{BandwidthMbps: float64(bw), Streams: []StreamSpec{{Name: name, PeriodMs: 10, LengthBits: 4096}}}
		canon, err := req.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		if a.clust.ring.Owner(canon.CacheKey()) == tc.addrs[1] {
			body = fmt.Sprintf(`{"bandwidthMbps":%d,"streams":[{"name":%q,"periodMs":10,"lengthBits":4096}]}`, bw, name)
		}
	}
	resp, err := http.Post("http://"+tc.addrs[0]+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if xc := resp.Header.Get("X-Cache"); resp.StatusCode != http.StatusOK || xc != "miss" {
		t.Fatalf("oversized-envelope request answered %d X-Cache=%q, want 200 miss (local fallback)", resp.StatusCode, xc)
	}
	if got := a.peerFill.Value(labels("result", "error")); got != 1 {
		t.Errorf("peer_fill_total{result=error} = %v, want 1", got)
	}
	if ga, gb := computes(a, "analyze"), computes(b, "analyze"); ga != 1 || gb != 0 {
		t.Errorf("requester computed %v times and owner %v, want 1 and 0", ga, gb)
	}
}

// TestPeerFillClusterWideCoalescing is the tentpole invariant: an
// identical burst hitting EVERY replica concurrently still costs exactly
// one computation cluster-wide. Non-owners coalesce their local callers
// onto one outbound fill; the owner coalesces the fills and its own
// callers onto one kernel run.
func TestPeerFillClusterWideCoalescing(t *testing.T) {
	tc := startTestCluster(t, 3, nil)
	req, _ := tc.analyzeOwnedBy(t, tc.servers[0], tc.addrs[2], 1)

	const perReplica = 4
	var wg sync.WaitGroup
	errs := make(chan error, perReplica*len(tc.addrs))
	for _, addr := range tc.addrs {
		for i := 0; i < perReplica; i++ {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				code, _, _ := postJSON(t, addr, "/v1/analyze", req, nil)
				if code != http.StatusOK {
					errs <- fmt.Errorf("%s answered %d", addr, code)
				}
			}(addr)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var total float64
	for _, s := range tc.servers {
		total += computes(s, "analyze")
	}
	if total != 1 {
		t.Errorf("cluster computed %v times for one identical burst, want exactly 1", total)
	}
}

// TestPeerFillTracePropagation: the trace ID a client sends to a
// non-owner must appear in the owner's span ring too, stitched through
// the peer-fill hop.
func TestPeerFillTracePropagation(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	a := tc.servers[0]
	req, _ := tc.analyzeOwnedBy(t, a, tc.addrs[1], 1)

	traceID := "00112233445566778899aabbccddeeff"
	_, xc, _ := postJSON(t, tc.addrs[0], "/v1/analyze", req, map[string]string{"X-Ringsched-Trace": traceID})
	if xc != "peer" {
		t.Fatalf("X-Cache = %q, want peer", xc)
	}
	for i, addr := range tc.addrs {
		resp, err := http.Get("http://" + addr + "/debug/traces?trace=" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), traceID) {
			t.Errorf("replica %d has no spans for trace %s: %s", i, traceID, body)
		}
	}
}

// TestPeerFillEndpointRejectsGarbage pins the wire validation.
func TestPeerFillEndpointRejectsGarbage(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	code, _, body := postJSON(t, tc.addrs[0], "/v1/peer/fill",
		map[string]any{"endpoint": "nonsense", "request": map[string]any{}}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown fill endpoint answered %d: %s", code, body)
	}
	code, _, _ = postJSON(t, tc.addrs[0], "/v1/peer/fill",
		map[string]any{"endpoint": "analyze", "request": map[string]any{"bogus": true}}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("malformed inner request answered %d", code)
	}
}

// TestSingleProcessModeUnchanged: without Advertise the cluster layer is
// absent — no peer endpoint, no ring, identical single-node behavior.
func TestSingleProcessModeUnchanged(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	if srv.clust != nil || srv.Members() != nil {
		t.Fatal("cluster state exists without Advertise")
	}
	r, _ := http.NewRequest(http.MethodPost, "/v1/peer/fill", bytes.NewReader([]byte("{}")))
	_, pattern := srv.mux.Handler(r)
	if pattern == "/v1/peer/fill" {
		t.Error("/v1/peer/fill registered in single-process mode")
	}
}
