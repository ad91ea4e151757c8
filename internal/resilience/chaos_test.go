package resilience

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseChaosRoundTrip(t *testing.T) {
	cases := []struct {
		spec string
		want ChaosModel
	}{
		{"", ChaosModel{}},
		{"none", ChaosModel{}},
		{"latency", ChaosModel{LatencyProb: 0.1, Latency: 50 * time.Millisecond}},
		{"latency:p=0.2,ms=30", ChaosModel{LatencyProb: 0.2, Latency: 30 * time.Millisecond}},
		{"error:p=0.5,code=500", ChaosModel{ErrorProb: 0.5, ErrorStatus: 500}},
		// Code 0 is the 503 an active error process injects.
		{"error:code=0", ChaosModel{ErrorProb: 0.05, ErrorStatus: 503}},
		{"reset:p=0.02", ChaosModel{ResetProb: 0.02}},
		{"latency:p=0.2,ms=30+error:p=0.1,code=503+reset:p=0.02+seed:n=7",
			ChaosModel{Seed: 7, LatencyProb: 0.2, Latency: 30 * time.Millisecond,
				ErrorProb: 0.1, ErrorStatus: 503, ResetProb: 0.02}},
	}
	for _, tc := range cases {
		got, err := ParseChaos(tc.spec)
		if err != nil {
			t.Errorf("ParseChaos(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseChaos(%q) = %+v, want %+v", tc.spec, got, tc.want)
			continue
		}
		// Canonical round trip.
		again, err := ParseChaos(got.Spec())
		if err != nil || again != got {
			t.Errorf("round trip of %q via %q = %+v (%v)", tc.spec, got.Spec(), again, err)
		}
	}
}

// TestParseChaosReadsIntegersExactly: code and seed read a decimal
// integer exactly and any other number only when it is whole and in
// range, and a latency past time.Duration's range is refused naming ms.
func TestParseChaosReadsIntegersExactly(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want string // the canonical spec, or text the refusal holds
	}{
		{"seed:n=9007199254740993", "seed:n=9007199254740993"},
		{"seed:n=1e18", "seed:n=1000000000000000000"},
		{"seed:n=-9223372036854775808", "seed:n=-9223372036854775808"},
		{"error:code=5.03e2", "error:p=0.05,code=503"},
		{"seed:n=1.5", "n=1.5 is not an integer"},
		{"seed:n=1e30", "n=1e30 is not an integer"},
		{"seed:n=-1e30", "n=-1e30 is not an integer"},
		{"seed:n=9223372036854775808", "n=9223372036854775808 is not an integer"},
		{"seed:n=NaN", "n=NaN is not an integer"},
		{"error:code=502.5", "code=502.5 is not an integer in [0, 599]"},
		{"latency:p=0.1,ms=1e13", "ms=1e+13 is past time.Duration's range"},
		{"latency:p=0.1,ms=NaN", "ms=NaN is past time.Duration's range"},
	} {
		m, err := ParseChaos(tc.spec)
		got := m.Spec()
		if err != nil {
			got = err.Error()
		}
		if !strings.Contains(got, tc.want) || (err == nil) != (got == tc.want) {
			t.Errorf("ParseChaos(%q) = %q, want %q", tc.spec, got, tc.want)
		}
	}
}

func TestParseChaosRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"latency:p=2",         // probability out of range
		"latency:ms=-5,p=0.1", // negative duration
		"error:code=404",      // not a 5xx
		"error:code=502.5",    // not an integer
		"bogus:p=1",           // unknown kind
		"latency:frobnicate=1",
		"latency:p",         // not key=value
		"error:p=0.1,p=0.2", // duplicate key
		"latency:p=x",
	} {
		if _, err := ParseChaos(spec); !errors.Is(err, ErrBadChaosSpec) {
			t.Errorf("ParseChaos(%q) err = %v, want ErrBadChaosSpec", spec, err)
		}
	}
}

// TestParseChaosNamesLeastUnknownKey checks that a clause with several
// unknown keys is refused naming the least of them and the valid keys,
// with the same text on every parse.
func TestParseChaosNamesLeastUnknownKey(t *testing.T) {
	const spec = "latency:zz=1,aa=2,mm=3"
	const want = `resilience: bad chaos spec: unknown latency key "aa" (valid latency keys: p, ms)`
	for i := 0; i < 100; i++ {
		if _, err := ParseChaos(spec); err == nil || err.Error() != want {
			t.Fatalf("parse %d of %q: err = %v, want %s", i, spec, err, want)
		}
	}
}

func TestChaosDrawDeterministicAndIndependent(t *testing.T) {
	m := ChaosModel{Seed: 42, LatencyProb: 0.3, Latency: 10 * time.Millisecond, ErrorProb: 0.2, ResetProb: 0.1}
	h := EndpointHash("/v1/analyze")
	for seq := uint64(0); seq < 64; seq++ {
		if m.Draw(h, seq) != m.Draw(h, seq) {
			t.Fatalf("draw for seq %d is not deterministic", seq)
		}
	}
	// Disabling the error process must not change which requests see
	// latency — the substreams are independent, exactly like faults.
	latOnly := m
	latOnly.ErrorProb, latOnly.ResetProb = 0, 0
	for seq := uint64(0); seq < 512; seq++ {
		if (m.Draw(h, seq).Delay > 0) != (latOnly.Draw(h, seq).Delay > 0) {
			t.Fatalf("seq %d: latency sample path perturbed by other processes", seq)
		}
	}
	// Different endpoints draw different streams.
	h2 := EndpointHash("/v1/sweep")
	same := 0
	for seq := uint64(0); seq < 512; seq++ {
		a, b := m.Draw(h, seq), m.Draw(h2, seq)
		if a == b {
			same++
		}
	}
	if same == 512 {
		t.Error("endpoint substreams are identical")
	}
}

func TestChaosDrawRates(t *testing.T) {
	m := ChaosModel{Seed: 1, LatencyProb: 0.25, Latency: time.Millisecond, ErrorProb: 0.25, ResetProb: 0.25}
	h := EndpointHash("/v1/analyze")
	const n = 20000
	var delays, errors5xx, resets int
	for seq := uint64(0); seq < n; seq++ {
		d := m.Draw(h, seq)
		if d.Delay > 0 {
			delays++
		}
		if d.Status != 0 {
			errors5xx++
		}
		if d.Reset {
			resets++
		}
	}
	check := func(name string, got int, p float64) {
		t.Helper()
		want := p * n
		if float64(got) < 0.85*want || float64(got) > 1.15*want {
			t.Errorf("%s rate: %d of %d, want ≈%g", name, got, n, want)
		}
	}
	check("latency", delays, 0.25)
	// Reset wins over error, so errors appear on ~P(err)·(1-P(reset)).
	check("error", errors5xx, 0.25*0.75)
	check("reset", resets, 0.25)
}

func TestChaosMiddlewareInjectsDeterministically(t *testing.T) {
	model := ChaosModel{Seed: 3, ErrorProb: 0.5, ErrorStatus: 503}
	run := func() (string, int) {
		c := NewChaos(model)
		kinds := map[string]int{}
		c.OnInject = func(kind string) { kinds[kind]++ }
		inner := 0
		h := c.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			inner++
			w.WriteHeader(http.StatusOK)
		}))
		ts := httptest.NewServer(h)
		defer ts.Close()
		var pattern strings.Builder
		for i := 0; i < 32; i++ {
			resp, err := http.Get(ts.URL + "/v1/analyze")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				pattern.WriteByte('.')
			case http.StatusServiceUnavailable:
				pattern.WriteByte('E')
				if !strings.Contains(string(body), string(CodeInjected)) {
					t.Fatalf("injected error body missing typed code: %s", body)
				}
				if resp.Header.Get("Retry-After") == "" {
					t.Fatal("injected 503 missing Retry-After")
				}
			default:
				t.Fatalf("unexpected status %d", resp.StatusCode)
			}
		}
		return pattern.String(), inner
	}
	p1, inner1 := run()
	p2, inner2 := run()
	if p1 != p2 {
		t.Errorf("two identical runs injected different patterns:\n%s\n%s", p1, p2)
	}
	if inner1 != inner2 || !strings.Contains(p1, "E") || !strings.Contains(p1, ".") {
		t.Errorf("pattern %q (inner %d/%d) should mix successes and injections", p1, inner1, inner2)
	}
}

func TestChaosMiddlewareResetSeversConnection(t *testing.T) {
	c := NewChaos(ChaosModel{Seed: 1, ResetProb: 1})
	h := c.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler must not run on a reset request")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("want a transport error from the severed connection, got status %d", resp.StatusCode)
	}
}

// TestChaosDelayCancelRecordsClientClosed: when the client hangs up
// during an injected delay, the middleware must commit an explicit 499
// instead of letting net/http record an implicit 200 for a request that
// was never served.
func TestChaosDelayCancelRecordsClientClosed(t *testing.T) {
	c := NewChaos(ChaosModel{Seed: 1, LatencyProb: 1, Latency: time.Hour})
	h := c.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler must not run after the client hung up")
	}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	req := httptest.NewRequest(http.MethodGet, "/v1/analyze", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("recorded code = %d, want %d", rec.Code, StatusClientClosedRequest)
	}
}

func TestChaosWrapDisabledPassesThrough(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(204) })
	if got := NewChaos(ChaosModel{}).Wrap(inner); got == nil {
		t.Fatal("nil handler")
	}
	var nilChaos *Chaos
	ts := httptest.NewServer(nilChaos.Wrap(inner))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil || resp.StatusCode != 204 {
		t.Fatalf("pass-through: %v %v", resp, err)
	}
	resp.Body.Close()
}
