package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"

	"ringsched/internal/service"
)

func startMember(t *testing.T) string {
	t.Helper()
	ln := listen(t)
	serveMember(t, ln, service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	return ln.Addr().String()
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// serveMember serves a member built from cfg on ln until the test ends.
func serveMember(t *testing.T, ln net.Listener, cfg service.Config) {
	srv := service.New(cfg)
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
}

// postAnalyze posts an analyze body at bandwidth bw to addr and returns
// its X-Cache header.
func postAnalyze(t *testing.T, addr string, bw int) string {
	t.Helper()
	body := fmt.Sprintf(`{"bandwidthMbps":%d,"streams":[{"name":"s","periodMs":10,"lengthBits":4096}]}`, bw)
	resp, err := http.Post("http://"+addr+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze at %s: %d", addr, resp.StatusCode)
	}
	return resp.Header.Get("X-Cache")
}

// TestRingtopPeerFills: a member's PEER% is the share of its cache
// lookups it answered from a peer (X-Cache: peer), whether the owner had
// the result cached or computed it for the fill.
func TestRingtopPeerFills(t *testing.T) {
	lnA, lnB := listen(t), listen(t)
	a, b := lnA.Addr().String(), lnB.Addr().String()
	serveMember(t, lnA, service.Config{Advertise: a, Peers: []string{b}})
	serveMember(t, lnB, service.Config{Advertise: b, Peers: []string{a}})

	// A's cache lookups and fills, kept as A counts them.
	var lookups, fills int
	// Each loop below tries at most maxBodies bodies, so broken fills fail
	// the test instead of spinning until its timeout. B owns about half of
	// all keys.
	const maxBodies = 64
	bw := 1
	// A fill the owner answers from its cache: each body goes to B first.
	// When A owns a body, B's post has A compute it for B's fill, and A's
	// own post is then a hit there: two lookups, no fill.
	for ; fills < 1; bw++ {
		if bw > maxBodies {
			t.Fatalf("no peer fill in %d bodies posted to B, then A: %d fills in %d lookups", maxBodies, fills, lookups)
		}
		postAnalyze(t, b, bw)
		lookups++
		if postAnalyze(t, a, bw) == "peer" {
			fills++
		} else {
			lookups++
		}
	}
	// A fill the owner computes: each body goes to A alone, one lookup.
	for start := bw; fills < 2; bw++ {
		if bw-start == maxBodies {
			t.Fatalf("no peer fill in %d bodies posted to A alone: %d fills in %d lookups", maxBodies, fills, lookups)
		}
		lookups++
		if postAnalyze(t, a, bw) == "peer" {
			fills++
		}
	}

	var out bytes.Buffer
	if err := run(context.Background(), []string{"-targets", a, "-count", "1"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%.1f", 100*float64(fills)/float64(lookups))
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 7 && f[0] == a {
			if f[7] != want {
				t.Fatalf("member %s PEER%% = %s, want %s (%d fills in %d lookups):\n%s", a, f[7], want, fills, lookups, out.String())
			}
			return
		}
	}
	t.Fatalf("no row for %s:\n%s", a, out.String())
}

func TestRingtopSnapshot(t *testing.T) {
	a, b := startMember(t), startMember(t)
	body := `{"bandwidthMbps":16,"streams":[{"name":"s","periodMs":10,"lengthBits":4096}]}`
	for _, addr := range []string{a, a, b} { // a: miss+hit, b: miss
		resp, err := http.Post("http://"+addr+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var out bytes.Buffer
	err := run(context.Background(),
		[]string{"-targets", a + "," + b, "-count", "1"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	frame := out.String()
	for _, want := range []string{"2 members", "MEMBER", "HIT%", a, b, "▁"} {
		if !strings.Contains(frame, want) {
			t.Fatalf("frame missing %q:\n%s", want, frame)
		}
	}
	// Member a served a hit and a miss: 50% cache hit rate on its row.
	for _, line := range strings.Split(frame, "\n") {
		if strings.HasPrefix(line, a) {
			if !strings.Contains(line, "50.0") {
				t.Fatalf("member %s row should show 50%% hit rate: %q", a, line)
			}
		}
	}
}

func TestRingtopDownMember(t *testing.T) {
	a := startMember(t)
	var out bytes.Buffer
	err := run(context.Background(),
		[]string{"-targets", a + ",127.0.0.1:1", "-count", "1", "-timeout", "300ms"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "DOWN") {
		t.Fatalf("unreachable member should render as DOWN:\n%s", out.String())
	}
}

func TestRingtopRequiresTargets(t *testing.T) {
	err := run(context.Background(), nil, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-targets") {
		t.Fatalf("want -targets error, got %v", err)
	}
}
