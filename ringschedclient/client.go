// Package ringschedclient is the official Go client for the ringschedd
// HTTP API. It wraps the wire protocol with the failure handling a
// well-behaved client of an overload-protected server needs:
//
//   - capped exponential backoff with full jitter between retries, so a
//     shared failure does not resynchronize every client into a retry
//     storm,
//   - a retry budget bounding how much load retries may add — when the
//     server is failing everything, retries dry up instead of
//     multiplying the overload,
//   - Retry-After honoring: a server hint always stretches (never
//     shortens) the computed backoff,
//   - a circuit breaker that stops hammering a consistently failing
//     server and probes it back to health, and
//   - optional hedged requests for latency smoothing: every ringschedd
//     endpoint is deterministic and cached, so issuing a duplicate after
//     a hedge delay is always safe.
//
// All failures surface as *APIError (typed server rejections, carrying
// the wire code and Retry-After hint) or transport errors; callers can
// switch on APIError.Code using the taxonomy in internal/resilience.
package ringschedclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ringsched/internal/resilience"
	"ringsched/internal/trace"
)

// Options tunes a Client. The zero value is a sensible production
// configuration: 3 retries, 50ms..5s full-jitter backoff, a 10%% retry
// budget, a 5-failure breaker with a 5s cooldown, and no hedging.
type Options struct {
	// HTTPClient is the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// MaxRetries bounds retries per call; total attempts are
	// MaxRetries+1. Negative disables retries entirely; 0 selects 3.
	MaxRetries int
	// Backoff computes the delay before each retry. The zero value
	// selects the package defaults (50ms base, 5s cap, seeded jitter).
	Backoff resilience.Backoff
	// RetryBudgetRatio is the retry-budget earn rate per first attempt
	// (default 0.1); RetryBudgetBurst caps the banked balance
	// (default 10).
	RetryBudgetRatio float64
	RetryBudgetBurst float64
	// Breaker configures the circuit breaker (zero value: threshold 5,
	// cooldown 5s).
	Breaker resilience.BreakerConfig
	// Hedge, when positive, issues a duplicate request if the first has
	// not answered within this delay, returning whichever finishes
	// first. Safe for every ringschedd endpoint (deterministic, cached).
	Hedge time.Duration
	// Deadline, when positive, bounds each call and is propagated to the
	// server via X-Ringsched-Deadline-Ms so admission control can shed
	// requests it cannot serve in time. A tighter context deadline wins.
	Deadline time.Duration
	// ClientID is sent as X-Ringsched-Client, the server's rate-limit
	// key.
	ClientID string
	// Headers are static extra headers set on every request (e.g. the
	// cluster peer-fill hop guard). They are applied before the standard
	// headers and cannot override Content-Type, X-Ringsched-Client, or
	// X-Ringsched-Deadline-Ms.
	Headers map[string]string

	// sleep replaces the interruptible retry sleep in tests.
	sleep func(context.Context, time.Duration) error
}

// Counters are the client's lifetime resilience statistics.
type Counters struct {
	Attempts          int64 // HTTP round trips issued (hedges included)
	Retries           int64 // retry sleeps taken
	Hedges            int64 // hedged duplicates launched
	BreakerRejections int64 // calls refused locally by the open breaker
	BudgetExhausted   int64 // retries refused by the retry budget
}

// Client is a ringschedd API client. It is safe for concurrent use.
type Client struct {
	base    string
	opts    Options
	hc      *http.Client
	breaker *resilience.Breaker
	budget  *resilience.RetryBudget
	sleep   func(context.Context, time.Duration) error

	attempts  atomic.Int64
	retries   atomic.Int64
	hedges    atomic.Int64
	rejected  atomic.Int64
	exhausted atomic.Int64
}

// New builds a client for the ringschedd instance at baseURL.
func New(baseURL string, opts Options) *Client {
	if opts.HTTPClient == nil {
		opts.HTTPClient = http.DefaultClient
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 3
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	c := &Client{
		base:    strings.TrimSuffix(baseURL, "/"),
		opts:    opts,
		hc:      opts.HTTPClient,
		breaker: resilience.NewBreaker(opts.Breaker),
		budget:  resilience.NewRetryBudget(opts.RetryBudgetRatio, opts.RetryBudgetBurst),
		sleep:   opts.sleep,
	}
	if c.sleep == nil {
		c.sleep = sleepCtx
	}
	return c
}

// Counters returns a snapshot of the client's resilience statistics.
func (c *Client) Counters() Counters {
	return Counters{
		Attempts:          c.attempts.Load(),
		Retries:           c.retries.Load(),
		Hedges:            c.hedges.Load(),
		BreakerRejections: c.rejected.Load(),
		BudgetExhausted:   c.exhausted.Load(),
	}
}

// BreakerState exposes the circuit breaker state for monitoring.
func (c *Client) BreakerState() resilience.BreakerState { return c.breaker.State() }

// APIError is a non-2xx server response: the HTTP status, the stable
// taxonomy code from the structured error body, the human-readable
// message, and the server's Retry-After hint (zero when absent).
type APIError struct {
	Status     int
	Code       resilience.Code
	Message    string
	RetryAfter time.Duration
	// CurrentVersion rides along on ring CAS conflicts (409): the ring's
	// actual version at rejection time, so the caller can rebase its edit
	// without an extra GET.
	CurrentVersion uint64
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("ringschedd: %d %s: %s", e.Status, e.Code, e.Message)
}

// Temporary reports whether retrying the identical request could
// succeed: rate limiting and server-side failures are temporary, other
// 4xx rejections are not.
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// Analyze posts req (any JSON-marshalable value mirroring the
// /v1/analyze request schema) and returns the raw response body.
func (c *Client) Analyze(ctx context.Context, req any) (json.RawMessage, error) {
	return c.Call(ctx, http.MethodPost, "/v1/analyze", req)
}

// Sweep posts req to /v1/sweep (non-streaming) and returns the body.
func (c *Client) Sweep(ctx context.Context, req any) (json.RawMessage, error) {
	return c.Call(ctx, http.MethodPost, "/v1/sweep", req)
}

// Topology posts req to /v1/topology/analyze and returns the body.
func (c *Client) Topology(ctx context.Context, req any) (json.RawMessage, error) {
	return c.Call(ctx, http.MethodPost, "/v1/topology/analyze", req)
}

// Spans returns the spans the server holds for one trace, from its
// /debug/traces. local asks for the server's own spans only; without it
// a clustered server adds the spans it gathers from its peers.
func (c *Client) Spans(ctx context.Context, traceID string, local bool) ([]trace.Record, error) {
	path := "/debug/traces?trace=" + url.QueryEscape(traceID)
	if local {
		path += "&local=1"
	}
	body, err := c.Call(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Spans []trace.Record `json:"spans"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("ringschedclient: bad trace response from %s: %v", c.base, err)
	}
	return resp.Spans, nil
}

// Health checks /healthz; a draining or dead server returns an error.
func (c *Client) Health(ctx context.Context) error {
	_, err := c.Call(ctx, http.MethodGet, "/healthz", nil)
	return err
}

// Call issues one API call with the full resilience stack: breaker gate,
// hedging, typed error decoding, budgeted retries with jittered backoff
// stretched by any server Retry-After hint.
func (c *Client) Call(ctx context.Context, method, path string, req any) (json.RawMessage, error) {
	body, _, err := c.CallHeader(ctx, method, path, req, nil)
	return body, err
}

// CallHeader is Call with the cluster-facing extensions: extra request
// headers applied per call (nil is fine; the front door uses this to
// pass the original client identity through to the backend), and the
// response headers of the winning attempt returned so proxies can read
// routing metadata (X-Cache, trace IDs) off proxied responses.
func (c *Client) CallHeader(ctx context.Context, method, path string, req any, extra http.Header) (json.RawMessage, http.Header, error) {
	var payload []byte
	switch req := req.(type) {
	case nil:
	case json.RawMessage:
		// Sent as is, valid JSON or not, for the server to judge; copied,
		// since the transport may read a body after the call returns.
		payload = append([]byte{}, req...)
	default:
		var err error
		if payload, err = json.Marshal(req); err != nil {
			return nil, nil, fmt.Errorf("ringschedclient: encode request: %w", err)
		}
	}
	c.budget.Deposit()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := c.breaker.Allow(); err != nil {
			c.rejected.Add(1)
			if lastErr != nil {
				return nil, nil, fmt.Errorf("%w (last attempt: %w)", err, lastErr)
			}
			return nil, nil, err
		}
		resp, err := c.roundTrip(ctx, method, path, payload, extra)
		if err == nil {
			c.breaker.Success()
			return resp.body, resp.header, nil
		}
		lastErr = err
		// Every Allow admission is matched with a verdict, or the
		// half-open probe slot leaks and the breaker wedges open.
		if isBreakerFailure(err) {
			c.breaker.Failure()
		} else if ae := apiErrorOf(err); ae != nil && ae.Status == http.StatusTooManyRequests {
			// 429 means the server is healthy and protecting itself;
			// it must not push the breaker toward open.
			c.breaker.Success()
		} else {
			// No health verdict — our own context expired mid-flight,
			// or a non-429 4xx blamed the request rather than the
			// server. Release the admission without a diagnosis.
			c.breaker.Cancel()
		}
		if !isRetryable(err) || attempt >= c.opts.MaxRetries || ctx.Err() != nil {
			return nil, nil, lastErr
		}
		if !c.budget.Withdraw() {
			c.exhausted.Add(1)
			return nil, nil, fmt.Errorf("ringschedclient: retry budget exhausted: %w", lastErr)
		}
		delay := c.opts.Backoff.Delay(attempt)
		if ae := apiErrorOf(err); ae != nil && ae.RetryAfter > delay {
			delay = ae.RetryAfter
		}
		c.retries.Add(1)
		if err := c.sleep(ctx, delay); err != nil {
			return nil, nil, lastErr
		}
	}
}

// response is one successful attempt's body and headers.
type response struct {
	body   json.RawMessage
	header http.Header
}

// roundTrip performs one logical attempt, hedged when configured.
func (c *Client) roundTrip(ctx context.Context, method, path string, payload []byte, extra http.Header) (response, error) {
	if c.opts.Hedge <= 0 {
		return c.once(ctx, method, path, payload, extra)
	}
	type result struct {
		resp response
		err  error
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel() // the losing duplicate is cancelled, not leaked
	results := make(chan result, 2)
	launch := func() {
		r, err := c.once(rctx, method, path, payload, extra)
		results <- result{r, err}
	}
	go launch()
	outstanding, hedged := 1, false
	timer := time.NewTimer(c.opts.Hedge)
	defer timer.Stop()
	var firstErr error
	for {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				outstanding++
				c.hedges.Add(1)
				go launch()
			}
		case r := <-results:
			if r.err == nil {
				return r.resp, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding--; outstanding == 0 {
				return response{}, firstErr
			}
		case <-ctx.Done():
			return response{}, ctx.Err()
		}
	}
}

// once performs exactly one HTTP round trip.
func (c *Client) once(ctx context.Context, method, path string, payload []byte, extra http.Header) (response, error) {
	if c.opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.Deadline)
		defer cancel()
	}
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return response{}, err
	}
	for k, v := range c.opts.Headers {
		req.Header.Set(k, v)
	}
	for k, vs := range extra {
		req.Header.Del(k)
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	// An active span in the caller's context propagates its trace ID so
	// peer fills and lb hops stitch into one end-to-end trace.
	if sp := trace.SpanFromContext(ctx); sp != nil && !sp.TraceID().IsZero() {
		req.Header.Set("X-Ringsched-Trace", sp.TraceID().String())
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.opts.ClientID != "" {
		req.Header.Set("X-Ringsched-Client", c.opts.ClientID)
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set("X-Ringsched-Deadline-Ms", strconv.FormatInt(ms, 10))
		}
	}
	c.attempts.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return response{}, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return response{body: raw, header: resp.Header}, nil
	}
	return response{}, decodeAPIError(resp, raw)
}

// decodeAPIError turns a non-2xx response into a typed *APIError,
// preferring the structured body and falling back to headers and status
// for servers (or proxies) that answer with something else.
func decodeAPIError(resp *http.Response, raw []byte) *APIError {
	ae := &APIError{Status: resp.StatusCode, Code: resilience.CodeInternal}
	var wire struct {
		Error          string `json:"error"`
		Code           string `json:"code"`
		RetryAfterMs   int64  `json:"retryAfterMs"`
		CurrentVersion uint64 `json:"currentVersion"`
	}
	if err := json.Unmarshal(raw, &wire); err == nil && wire.Error != "" {
		ae.Message = wire.Error
		if wire.Code != "" {
			ae.Code = resilience.Code(wire.Code)
		}
		ae.RetryAfter = time.Duration(wire.RetryAfterMs) * time.Millisecond
		ae.CurrentVersion = wire.CurrentVersion
	} else {
		ae.Message = strings.TrimSpace(string(raw))
		if ae.Message == "" {
			ae.Message = resp.Status
		}
	}
	if ae.RetryAfter == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// apiErrorOf extracts a typed server rejection from an error chain.
func apiErrorOf(err error) *APIError {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae
	}
	return nil
}

// isRetryable reports whether the identical request is worth retrying:
// transport failures and temporary server rejections are, context
// expirations and other 4xx are not.
func isRetryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if ae := apiErrorOf(err); ae != nil {
		return ae.Temporary()
	}
	return true // transport-level failure
}

// isBreakerFailure reports whether the error is evidence the server is
// unhealthy. 429s and the caller's own context expiry are not.
func isBreakerFailure(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if ae := apiErrorOf(err); ae != nil {
		return ae.Status >= 500
	}
	return true // connection refused, reset, etc.
}

// sleepCtx sleeps for d unless ctx fires first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
