package resilience

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ringsched/internal/specnum"
)

// ErrBadChaosSpec reports an unparsable chaos specification.
var ErrBadChaosSpec = errors.New("resilience: bad chaos spec")

// StatusClientClosedRequest is the nginx-convention 499 recorded when
// the client hangs up before any response is written (net/http would
// otherwise commit an implicit 200 that instrumentation then logs for
// a request that was never served).
const StatusClientClosedRequest = 499

// ChaosModel configures the deterministic chaos middleware. Every
// injection decision for request number n on endpoint e is a pure
// function of (Seed, e, n) — the same substream design as
// internal/faults — so a chaos run is reproducible: re-running a test
// or a load replay injects the same faults at the same points, at any
// concurrency.
//
// The three processes compose: one request can be delayed and then
// reset, exactly as a real overloaded proxy might behave.
type ChaosModel struct {
	// Seed derives the per-(endpoint, request) decision streams.
	Seed int64
	// LatencyProb is the probability a request is delayed by Latency.
	LatencyProb float64
	// Latency is the injected delay.
	Latency time.Duration
	// ErrorProb is the probability a request is answered with
	// ErrorStatus before reaching the handler.
	ErrorProb float64
	// ErrorStatus is the injected status (0 selects 503).
	ErrorStatus int
	// ResetProb is the probability the connection is severed
	// mid-request with no response at all.
	ResetProb float64
}

// Enabled reports whether any injection process is active.
func (m ChaosModel) Enabled() bool {
	return m.LatencyProb > 0 || m.ErrorProb > 0 || m.ResetProb > 0
}

// Validate checks probabilities and durations.
func (m ChaosModel) Validate() error {
	for _, p := range []float64{m.LatencyProb, m.ErrorProb, m.ResetProb} {
		if p < 0 || p > 1 || p != p {
			return fmt.Errorf("%w: probability %g outside [0, 1]", ErrBadChaosSpec, p)
		}
	}
	if m.Latency < 0 {
		return fmt.Errorf("%w: negative latency", ErrBadChaosSpec)
	}
	if m.ErrorStatus != 0 && (m.ErrorStatus < 500 || m.ErrorStatus > 599) {
		return fmt.Errorf("%w: error status %d is not a 5xx", ErrBadChaosSpec, m.ErrorStatus)
	}
	return nil
}

// ParseChaos parses the compact chaos specification used by the
// ringschedd -chaos flag, in the clause grammar of internal/specnum that
// fault-model and topology specs share:
//
//	spec    := "none" | clause { "+" clause }
//	clause  := kind [ ":" key "=" value { "," key "=" value } ]
//	kind    := "latency" | "error" | "reset" | "seed"
//
// Keys per kind (a bare kind takes the defaults in parentheses):
//
//	latency: p (0.1), ms (50)
//	error:   p (0.05), code (503; 0 reads as 503)
//	reset:   p (0.01)
//	seed:    n (1)
//
// Example: "latency:p=0.2,ms=30+error:p=0.1,code=503+reset:p=0.02+seed:n=7".
func ParseChaos(spec string) (ChaosModel, error) {
	var m ChaosModel
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return m, nil
	}
	if err := specnum.Clauses(spec, ErrBadChaosSpec, func(c *specnum.Clause) error {
		return parseChaosClause(&m, c)
	}); err != nil {
		return ChaosModel{}, err
	}
	if err := m.Validate(); err != nil {
		return ChaosModel{}, err
	}
	// Normalize: a zero-probability process carries no parameters, and an
	// active error process's code 0 is the 503 it injects, so
	// ParseChaos(m.Spec()) == m holds exactly (the fuzz target's
	// round-trip invariant).
	if m.LatencyProb == 0 {
		m.Latency = 0
	}
	if m.ErrorProb == 0 {
		m.ErrorStatus = 0
	} else if m.ErrorStatus == 0 {
		m.ErrorStatus = 503
	}
	return m, nil
}

func parseChaosClause(m *ChaosModel, c *specnum.Clause) error {
	var err error
	switch c.Kind {
	case "latency":
		if m.LatencyProb, err = c.Num("p", 0.1, false); err != nil {
			return err
		}
		ms, err := c.Num("ms", 50, false)
		if err != nil {
			return err
		}
		ns := ms * float64(time.Millisecond)
		if !(ns > -(1<<63) && ns < 1<<63) {
			return fmt.Errorf("%w: ms=%g is past time.Duration's range", ErrBadChaosSpec, ms)
		}
		m.Latency = time.Duration(ns)
	case "error":
		if m.ErrorProb, err = c.Num("p", 0.05, false); err != nil {
			return err
		}
		code, err := c.Int("code", 503, 0, 599)
		if err != nil {
			return err
		}
		m.ErrorStatus = int(code)
	case "reset":
		if m.ResetProb, err = c.Num("p", 0.01, false); err != nil {
			return err
		}
	case "seed":
		if m.Seed, err = c.Int("n", 1, math.MinInt64, math.MaxInt64); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: unknown clause kind %q (valid kinds: error, latency, reset, seed; or \"none\")",
			ErrBadChaosSpec, c.Kind)
	}
	return c.Done(chaosKeys[c.Kind])
}

// chaosKeys lists the accepted keys per clause kind, for error messages.
var chaosKeys = map[string]string{
	"latency": "p, ms",
	"error":   "p, code",
	"reset":   "p",
	"seed":    "n",
}

// Spec renders the model in the canonical form ParseChaos accepts;
// ParseChaos(m.Spec()) reproduces m exactly.
func (m ChaosModel) Spec() string {
	var parts []string
	if m.LatencyProb > 0 {
		parts = append(parts, fmt.Sprintf("latency:p=%s,ms=%s",
			specnum.Format(m.LatencyProb), specnum.Format(float64(m.Latency)/float64(time.Millisecond))))
	}
	if m.ErrorProb > 0 {
		code := m.ErrorStatus
		if code == 0 {
			code = 503
		}
		parts = append(parts, fmt.Sprintf("error:p=%s,code=%d", specnum.Format(m.ErrorProb), code))
	}
	if m.ResetProb > 0 {
		parts = append(parts, "reset:p="+specnum.Format(m.ResetProb))
	}
	if m.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed:n=%d", m.Seed))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Decision is one request's injected faults.
type Decision struct {
	// Delay is the injected latency (0 = none).
	Delay time.Duration
	// Status, when non-zero, answers the request with this 5xx after
	// the delay, without reaching the handler.
	Status int
	// Reset, when true, severs the connection after the delay with no
	// response; it wins over Status.
	Reset bool
}

// Draw returns the deterministic decision for request number seq on
// endpoint. Each of the three processes uses its own derived draw, so
// enabling one never perturbs another's sample path — the same identity
// internal/faults guarantees for its fault processes. Draw allocates
// nothing.
func (m *ChaosModel) Draw(endpointHash uint64, seq uint64) Decision {
	var d Decision
	base := splitmix64(uint64(m.Seed) ^ splitmix64(endpointHash) ^ splitmix64(seq<<1|1))
	if m.LatencyProb > 0 && unitFloat(splitmix64(base^1)) < m.LatencyProb {
		d.Delay = m.Latency
	}
	if m.ResetProb > 0 && unitFloat(splitmix64(base^2)) < m.ResetProb {
		d.Reset = true
		return d
	}
	if m.ErrorProb > 0 && unitFloat(splitmix64(base^3)) < m.ErrorProb {
		d.Status = m.ErrorStatus
		if d.Status == 0 {
			d.Status = 503
		}
	}
	return d
}

// EndpointHash hashes an endpoint name for Draw.
func EndpointHash(endpoint string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(endpoint))
	return h.Sum64()
}

// Chaos is the HTTP middleware around a ChaosModel: it numbers requests
// per endpoint path, draws each one's Decision, and applies it — sleep,
// injected 5xx with a typed error body, or a severed connection
// (panic(http.ErrAbortHandler), which the net/http server turns into an
// abrupt close exactly like a crashed upstream).
type Chaos struct {
	// Model is the injection configuration.
	Model ChaosModel
	// OnInject, when non-nil, is called once per injected fault with
	// "latency", "error" or "reset" — the metrics hook.
	OnInject func(kind string)

	mu   sync.Mutex
	seqs map[string]*endpointSeq
}

type endpointSeq struct {
	hash uint64
	seq  atomic.Uint64
}

// NewChaos builds the middleware state for model.
func NewChaos(model ChaosModel) *Chaos {
	return &Chaos{Model: model, seqs: map[string]*endpointSeq{}}
}

// next returns the endpoint hash and this request's sequence number.
func (c *Chaos) next(path string) (uint64, uint64) {
	c.mu.Lock()
	es, ok := c.seqs[path]
	if !ok {
		es = &endpointSeq{hash: EndpointHash(path)}
		c.seqs[path] = es
	}
	c.mu.Unlock()
	return es.hash, es.seq.Add(1) - 1
}

// Wrap returns next wrapped with fault injection. A nil receiver or a
// disabled model returns next unchanged.
func (c *Chaos) Wrap(next http.Handler) http.Handler {
	if c == nil || !c.Model.Enabled() {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hash, seq := c.next(r.URL.Path)
		d := c.Model.Draw(hash, seq)
		if d.Delay > 0 {
			c.inject("latency")
			t := time.NewTimer(d.Delay)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
				// The client is gone and nothing was written; record an
				// explicit status so metrics and logs don't report an
				// implicit 200 for a request that was never served.
				w.WriteHeader(StatusClientClosedRequest)
				return
			}
		}
		if d.Reset {
			c.inject("reset")
			panic(http.ErrAbortHandler)
		}
		if d.Status != 0 {
			c.inject("error")
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(d.Status)
			body, _ := json.Marshal(map[string]string{
				"error": "resilience: chaos-injected failure",
				"code":  string(CodeInjected),
			})
			w.Write(append(body, '\n'))
			return
		}
		next.ServeHTTP(w, r)
	})
}

func (c *Chaos) inject(kind string) {
	if c.OnInject != nil {
		c.OnInject(kind)
	}
}
