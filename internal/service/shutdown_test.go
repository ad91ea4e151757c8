package service

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutineLeakCheck snapshots the goroutines running this package's code
// and registers a cleanup that fails the test if any are still alive
// shortly after it ends. Stacks are filtered to "ringsched/" frames so
// runtime and net/http housekeeping goroutines don't flake the check.
func goroutineLeakCheck(t *testing.T) {
	t.Helper()
	before := ringschedGoroutines()
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		var after []string
		for deadline := time.Now().Add(3 * time.Second); ; {
			after = ringschedGoroutines()
			if len(after) <= len(before) {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d ringsched goroutines before, %d after:\n%s",
			len(before), len(after), strings.Join(after, "\n---\n"))
	})
}

// ringschedGoroutines returns the stacks of goroutines currently
// executing this module's code.
func ringschedGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	var out []string
	for _, st := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(st, "ringsched/") && !strings.Contains(st, "ringschedGoroutines") {
			out = append(out, st)
		}
	}
	return out
}

// TestDrainCompletesInflightSSEStream exercises the documented shutdown
// sequence — BeginDrain, let the listener drain, then Close — with a
// progress stream in flight: the stream must run to completion, new work
// must bounce with 503, and nothing may leak.
func TestDrainCompletesInflightSSEStream(t *testing.T) {
	goroutineLeakCheck(t)
	s := New(Config{Workers: 2, SampleEvery: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep",
		strings.NewReader(`{"bandwidthsMbps": [10, 50, 100], "streams": 8, "samples": 64, "seed": 11}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}

	// Drain as soon as the stream is confirmed open.
	s.BeginDrain()
	if resp, body := post(t, ts.URL+"/v1/analyze", analyzeBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining server accepted new work: %d %s", resp.StatusCode, body)
	}

	sawResult := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if sc.Text() == "event: result" {
			sawResult = true
			break
		}
	}
	if !sawResult {
		t.Errorf("in-flight stream was cut off by drain (scan err %v)", sc.Err())
	}
}

// TestCloseReapsStreamWithSlowReadingClient verifies the other half of
// shutdown: a client that opened a stream and stopped reading cannot pin
// the server. Close cancels the base context, the sweep aborts, and the
// handler goroutine exits even though the client never drains the body.
func TestCloseReapsStreamWithSlowReadingClient(t *testing.T) {
	goroutineLeakCheck(t)
	s := New(Config{Workers: 1, SampleEvery: 1, SSEKeepAlive: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A deliberately huge sweep, at the samples cap: it cannot finish
	// before Close.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep",
		strings.NewReader(`{"bandwidthsMbps": [10, 100], "streams": 12, "samples": 1000000, "seed": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read nothing: the client stalls right after the headers.
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	// Give the handler a moment to enter the computation, then pull the
	// plug the way main does after the listener drains.
	for deadline := time.Now().Add(2 * time.Second); ; {
		if _, running := s.flight.Depth(); running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never started")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()

	for deadline := time.Now().Add(3 * time.Second); ; {
		if s.InFlight() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handler still in flight after Close (inflight=%d)", s.InFlight())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainThenCloseUnderLoad drains while several concurrent cached and
// computing requests are in various stages, asserting the sequence never
// wedges and the pool empties.
func TestDrainThenCloseUnderLoad(t *testing.T) {
	goroutineLeakCheck(t)
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	done := make(chan int, 6)
	for i := 0; i < 6; i++ {
		go func(i int) {
			body := fmt.Sprintf(`{"bandwidthMbps": %d, "streams": [{"name": "s", "periodMs": 10, "lengthBits": 4096}]}`, 50+i)
			resp, _ := post(t, ts.URL+"/v1/analyze", body)
			done <- resp.StatusCode
		}(i)
	}
	for i := 0; i < 6; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("request %d finished %d", i, code)
		}
	}
	s.BeginDrain()
	s.Close()
	if q, r := s.flight.Depth(); q != 0 || r != 0 {
		t.Errorf("pool not empty after shutdown: queued=%d running=%d", q, r)
	}
}
