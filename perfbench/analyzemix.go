package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"ringsched"
)

// analyze-mix: POST /v1/analyze with four hits to every miss. Hits come
// from a fixed hot set warmed during set-up, misses are sets never seen
// before, so p50 is a hit (decode, canonicalize, hash, cache, middleware)
// and p90 a miss (the core → rma kernel plus encode).

const (
	hotSetSize = 48
	mixGroup   = 5 // one miss in every group of five ops
)

// faultSpecs are the fault models a minority of requests carry.
var faultSpecs = []string{"loss:p=1e-3", "loss:p=1e-4+gilbert:burst=16", "loss:p=1e-3+crash:rate=0.2"}

type analyzeReq struct {
	req  ringsched.AnalyzeRequest
	body []byte
	want []byte // expected response body; computed after the op for misses
}

type mixOp struct {
	hot  int         // index into the hot set, or -1 for a miss
	miss *analyzeReq // miss only
	http *http.Request
}

type analyzeMix struct {
	e   *env
	svc *ringsched.Service
	rec *recorder
	hot []analyzeReq
	ops []mixOp
	bws []float64 // Mbps
}

func newAnalyzeMix(e *env) (workload, error) {
	a := &analyzeMix{e: e, rec: newRecorder()}
	for _, bw := range ringsched.PaperBandwidths(3) {
		a.bws = append(a.bws, bw/1e6)
	}
	rng := e.rand(0)
	for i := 0; i < hotSetSize; i++ {
		r, err := a.randomRequest(rng, hotShape(i))
		if err != nil {
			return nil, err
		}
		resp, err := ringsched.Analyze(context.Background(), r.req)
		if err != nil {
			return nil, err
		}
		if r.want, err = ringsched.EncodeResponse(resp); err != nil {
			return nil, err
		}
		a.hot = append(a.hot, r)
	}
	if e.corrupt {
		a.hot[0].want[len(a.hot[0].want)/2] ^= 1
	}
	return a, nil
}

// reqShape fixes the parts of a request that set its cost: the stream
// count and which minority options it carries.
type reqShape struct {
	streams               int
	fault, scales, detail bool
}

// randomShape draws a miss's shape: 10–100 streams, and each option on one
// request in ten.
func randomShape(rng *rand.Rand) reqShape {
	return reqShape{streams: 10 + rng.Intn(91), fault: rng.Float64() < 0.1, scales: rng.Float64() < 0.1, detail: rng.Float64() < 0.1}
}

// hotShape spreads the hot set evenly over the same shapes, so the cost
// of a hit does not depend on which shapes a seed happened to draw.
func hotShape(i int) reqShape {
	return reqShape{streams: 10 + i*90/(hotSetSize-1), fault: i%10 == 3, scales: i%10 == 6, detail: i%10 == 9}
}

// randomRequest draws one analyze request of the given shape:
// paper-generator streams at a Figure 1 grid bandwidth (1 Mbps to 1 Gbps,
// so both Theorem 4.1 regimes occur) and the default three protocols.
func (a *analyzeMix) randomRequest(rng *rand.Rand, shape reqShape) (analyzeReq, error) {
	gen := ringsched.PaperGenerator()
	gen.Streams = shape.streams
	set, err := gen.Draw(rng)
	if err != nil {
		return analyzeReq{}, err
	}
	bw := a.bws[rng.Intn(len(a.bws))]
	if set, err = set.ScaleToUtilization(0.05+0.85*rng.Float64(), ringsched.Mbps(bw)); err != nil {
		return analyzeReq{}, err
	}
	req := ringsched.AnalyzeRequest{BandwidthMbps: bw}
	for _, s := range set {
		req.Streams = append(req.Streams, ringsched.ServiceStreamSpec{Name: s.Name, PeriodMs: s.Period * 1e3, LengthBits: s.LengthBits})
	}
	if shape.fault {
		req.FaultModel = faultSpecs[rng.Intn(len(faultSpecs))]
	}
	if shape.scales {
		req.PayloadScales = []float64{0.5, 0.9, 1.1, 1.5, 2}
	}
	req.Detail = shape.detail
	body, err := json.Marshal(req)
	if err != nil {
		return analyzeReq{}, err
	}
	return analyzeReq{req: req, body: body}, nil
}

// setup builds the service and warms the hot keys.
func (a *analyzeMix) setup() error {
	if a.svc != nil {
		a.svc.Close()
	}
	a.svc = ringsched.NewService(ringsched.ServiceConfig{})
	h := a.svc.Handler()
	for i := range a.hot {
		a.rec.reset()
		h.ServeHTTP(a.rec, newRequest(http.MethodPost, "/v1/analyze", a.hot[i].body))
		if a.rec.code != http.StatusOK {
			return fmt.Errorf("warming hot key %d: status %d", i, a.rec.code)
		}
	}
	return nil
}

func (a *analyzeMix) prepare(b int) {
	rng := a.e.blockRand(b)
	a.ops = a.ops[:0]
	for g := 0; g < a.e.perBlock; g += mixGroup {
		miss := rng.Intn(mixGroup)
		for k := 0; k < mixGroup && g+k < a.e.perBlock; k++ {
			op := mixOp{hot: rng.Intn(len(a.hot))}
			body := a.hot[op.hot].body
			if k == miss {
				r, err := a.randomRequest(rng, randomShape(rng))
				if err != nil {
					panic(err) // the generator's parameters are fixed and valid
				}
				op.hot, op.miss, body = -1, &r, r.body
			}
			if b == 0 {
				a.e.led.inputBytes(body)
			}
			op.http = newRequest(http.MethodPost, "/v1/analyze", body)
			a.ops = append(a.ops, op)
		}
	}
}

func (a *analyzeMix) op(j int, c *clock) error {
	op := &a.ops[j]
	tr := a.e.tr
	a.rec.reset()
	m0 := tr.mallocs()
	h := a.svc.Handler()
	c.start()
	s := tr.begin("service.handler")
	h.ServeHTTP(a.rec, op.http)
	d := tr.end(s)
	c.stop()
	hit := a.rec.h.Get("X-Cache") == "hit"
	if tr != nil {
		allocs := float64(tr.mallocs() - m0)
		if hit {
			tr.time("service.handler_hit_us", d, 1e3)
			tr.mean("service.allocs_per_hit", allocs)
		} else {
			tr.time("service.handler_miss_us", d, 1e3)
			tr.mean("service.allocs_per_miss", allocs)
		}
		tr.mean("service.hit_ratio", b2f(hit))
	}
	if a.rec.code != http.StatusOK {
		return fmt.Errorf("status %d: %s", a.rec.code, bytes.TrimSpace(a.rec.body.Bytes()))
	}
	body := a.rec.body.Bytes()
	a.e.led.note(uint64(len(body)))
	a.e.led.note(uint64(b2f(hit)))

	req, want := &a.hot[0], []byte(nil)
	if op.hot >= 0 {
		req = &a.hot[op.hot]
		want = req.want
	} else {
		req = op.miss
	}
	if tr != nil {
		w, err := a.replay(req, d, hit)
		if err != nil {
			return err
		}
		if want == nil {
			want = w
		}
	}
	if want == nil {
		resp, err := ringsched.Analyze(context.Background(), req.req)
		if err != nil {
			return err
		}
		if want, err = ringsched.EncodeResponse(resp); err != nil {
			return err
		}
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("response body differs from EncodeResponse(Analyze(req)) (%d vs %d bytes)", len(body), len(want))
	}
	return nil
}

// replay re-runs the request path step by step through the facade, next
// to the handler span, so the handler's own cost is its span minus these
// steps. For a miss it returns the expected body it encoded.
func (a *analyzeMix) replay(r *analyzeReq, handler time.Duration, hit bool) ([]byte, error) {
	tr := a.e.tr
	s := tr.begin("replay.decode")
	var req ringsched.AnalyzeRequest
	err := json.Unmarshal(r.body, &req)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("service.canonicalize")
	canon, err := req.Canonicalize()
	dCanon := tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("service.cache_key")
	sinkString = canon.CacheKey()
	dKey := tr.end(s)
	tr.time("service.canonicalize_us", dCanon, 1e3)
	tr.time("service.cache_key_us", dKey, 1e3)
	if hit {
		tr.time("service.self_hit_us", handler-dCanon-dKey, 1e3)
		return nil, nil
	}

	set := make(ringsched.MessageSet, len(canon.Streams))
	for i, st := range canon.Streams {
		set[i] = ringsched.Stream{Name: st.Name, Period: st.PeriodMs / 1e3, LengthBits: st.LengthBits}
	}
	bw := ringsched.Mbps(canon.BandwidthMbps)
	for _, proto := range canon.Protocols {
		var an ringsched.Analyzer
		if proto == "fddi" {
			t := ringsched.NewTTP(bw)
			s = tr.begin("core.report_ttp")
			_, err = t.Report(set)
			tr.time("core.report_ttp_us", tr.end(s), 1e3)
			an = t
		} else {
			p := ringsched.NewStandardPDP(bw)
			if proto == "modified-802.5" {
				p = ringsched.NewModifiedPDP(bw)
			}
			s = tr.begin("core.report_pdp")
			_, err = p.Report(set)
			tr.time("core.report_pdp_us", tr.end(s), 1e3)
			if err != nil {
				return nil, err
			}
			tasks := p.Tasks(set)
			s = tr.begin("rma.rta")
			_, err = ringsched.ResponseTimeAnalysis(tasks, p.Blocking())
			tr.time("rma.rta_us", tr.end(s), 1e3)
			an = p
		}
		if err != nil {
			return nil, err
		}
		if len(canon.PayloadScales) > 0 {
			s = tr.begin("core.batch")
			_, err = ringsched.AnalyzeBatch(an, set, canon.PayloadScales)
			tr.time("core.batch_us", tr.end(s), 1e3)
			if err != nil {
				return nil, err
			}
		}
	}
	resp, err := ringsched.Analyze(context.Background(), r.req)
	if err != nil {
		return nil, err
	}
	s = tr.begin("service.encode")
	want, err := ringsched.EncodeResponse(resp)
	tr.time("service.encode_us", tr.end(s), 1e3)
	return want, err
}

func (a *analyzeMix) finish() []error {
	a.svc.Close()
	return nil
}

// sinkString keeps a result the compiler could otherwise drop.
var sinkString string

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
