package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"ringsched"
)

// ring-admit: CAS edits on resident /v1/rings sessions. It uses the same
// core/rma layers as analyze-mix, but as writes (incremental suffix
// re-probe, O(1) TTP update), so a kernel change that helps one use and
// costs the other shows.

// The benchmark's own wire structs for /v1/rings.
type streamSpec struct {
	Name       string  `json:"name,omitempty"`
	PeriodMs   float64 `json:"periodMs"`
	LengthBits float64 `json:"lengthBits"`
}

type ringCreate struct {
	BandwidthMbps float64      `json:"bandwidthMbps"`
	FaultModel    string       `json:"faultModel,omitempty"`
	Streams       []streamSpec `json:"streams"`
}

type ringEdit struct {
	ExpectedVersion uint64     `json:"expectedVersion"`
	Stream          streamSpec `json:"stream"`
}

type ringState struct {
	ID            string   `json:"id"`
	Version       uint64   `json:"version"`
	Protocols     []string `json:"protocols"`
	BandwidthMbps float64  `json:"bandwidthMbps"`
	FaultModel    string   `json:"faultModel"`
	SnapshotKey   string   `json:"snapshotKey"`
	Streams       []struct {
		ID string `json:"id"`
		streamSpec
	} `json:"streams"`
	Verdicts []ringsched.AnalyzeVerdict `json:"verdicts"`
}

type ringEditResult struct {
	Version  uint64 `json:"version"`
	Op       string `json:"op"`
	StreamID string `json:"streamId"`
	Reprobed int    `json:"reprobed"`
	Deltas   []struct {
		Reprobed int `json:"reprobed"`
	} `json:"deltas"`
}

const (
	ringSize       = 32 // streams per resident ring at the start
	ringBandLow    = 26 // below this an edit always adds
	ringBandHigh   = 38 // above this an edit always removes
	ringUtil       = 0.4
	periodMinMs    = 200.0 / 11 // the paper generator's range: mean 100 ms, ratio 10
	periodMaxMs    = 2000.0 / 11
	opAdd          = "add"
	opModify       = "modify"
	opRemove       = "remove"
	ringFaultModel = "loss:p=1e-3"
)

// ringConfigs are the resident rings: one per bandwidth, and one with a
// fault model.
var ringConfigs = []ringCreate{
	{BandwidthMbps: 4}, {BandwidthMbps: 16}, {BandwidthMbps: 100}, {BandwidthMbps: 16, FaultModel: ringFaultModel},
}

var editMetric = map[string]string{
	opAdd: "service.ring_add_us", opModify: "service.ring_modify_us", opRemove: "service.ring_remove_us",
}

type editOp struct {
	ring int
	kind string
	name string
	spec streamSpec
}

// ringModel is the harness's view of one ring of the kept service.
type ringModel struct {
	id      string
	version uint64
	sid     map[string]string // stream name → server stream ID
	spec    map[string]streamSpec
}

type ringAdmit struct {
	e      *env
	svc    *ringsched.Service
	rec    *recorder
	init   []ringCreate
	rings  []*ringModel
	shadow [][]string // prepare's view of each ring's resident names
	next   []int      // next stream number per ring
	ops    []editOp
}

func newRingAdmit(e *env) (workload, error) {
	a := &ringAdmit{e: e, rec: newRecorder()}
	rng := e.rand(0)
	for r, cfg := range ringConfigs {
		var names []string
		for k := 0; k < ringSize; k++ {
			name := fmt.Sprintf("r%d-%d", r, k)
			cfg.Streams = append(cfg.Streams, randomStream(rng, cfg.BandwidthMbps, name))
			names = append(names, name)
		}
		a.init = append(a.init, cfg)
		a.shadow = append(a.shadow, names)
		a.next = append(a.next, ringSize)
	}
	return a, nil
}

// randomStream draws one stream with a paper-generator period and about
// ringUtil/ringSize of the ring's bandwidth.
func randomStream(rng *rand.Rand, mbps float64, name string) streamSpec {
	p := periodMinMs + rng.Float64()*(periodMaxMs-periodMinMs)
	u := ringUtil / ringSize * 2 * (1 - rng.Float64())
	return streamSpec{Name: name, PeriodMs: p, LengthBits: math.Ceil(u * mbps * 1e6 * p / 1e3)}
}

// setup creates the resident rings on a fresh service.
func (a *ringAdmit) setup() error {
	if a.svc != nil {
		a.svc.Close()
	}
	a.svc = ringsched.NewService(ringsched.ServiceConfig{})
	h := a.svc.Handler()
	a.rings = a.rings[:0]
	for i, cfg := range a.init {
		body, err := json.Marshal(cfg)
		if err != nil {
			return err
		}
		a.rec.reset()
		h.ServeHTTP(a.rec, newRequest(http.MethodPost, "/v1/rings", body))
		if a.rec.code != http.StatusCreated {
			return fmt.Errorf("creating ring %d: status %d", i, a.rec.code)
		}
		var st ringState
		if err := json.Unmarshal(a.rec.body.Bytes(), &st); err != nil {
			return err
		}
		m := &ringModel{id: st.ID, version: st.Version, sid: map[string]string{}, spec: map[string]streamSpec{}}
		for _, s := range st.Streams {
			m.sid[s.Name] = s.ID
		}
		for _, s := range cfg.Streams {
			m.spec[s.Name] = s
		}
		a.rings = append(a.rings, m)
	}
	return nil
}

// prepare writes block b's edit script. Sizes stay inside the band, so
// the working set at the end of a run is the one it started with.
func (a *ringAdmit) prepare(b int) {
	rng := a.e.blockRand(b)
	a.ops = a.ops[:0]
	for j := 0; j < a.e.perBlock; j++ {
		r := rng.Intn(len(a.shadow))
		names := a.shadow[r]
		kind := opModify
		switch x := rng.Float64(); {
		case len(names) <= ringBandLow:
			kind = opAdd
		case len(names) >= ringBandHigh:
			kind = opRemove
		case x < 0.3:
			kind = opAdd
		case x >= 0.7:
			kind = opRemove
		}
		op := editOp{ring: r, kind: kind}
		switch kind {
		case opAdd:
			op.name = fmt.Sprintf("r%d-%d", r, a.next[r])
			a.next[r]++
			a.shadow[r] = append(names, op.name)
		case opModify:
			op.name = names[rng.Intn(len(names))]
		case opRemove:
			k := rng.Intn(len(names))
			op.name = names[k]
			names[k] = names[len(names)-1]
			a.shadow[r] = names[:len(names)-1]
		}
		if kind != opRemove {
			op.spec = randomStream(rng, ringConfigs[r].BandwidthMbps, op.name)
		}
		if b == 0 {
			a.e.led.input(uint64(r))
			a.e.led.input(math.Float64bits(op.spec.PeriodMs))
			a.e.led.input(math.Float64bits(op.spec.LengthBits))
		}
		a.ops = append(a.ops, op)
	}
}

func (a *ringAdmit) op(j int, c *clock) error {
	op := &a.ops[j]
	m := a.rings[op.ring]
	tr := a.e.tr
	sid := m.sid[op.name]
	base := "/v1/rings/" + m.id + "/streams"
	var req *http.Request
	switch op.kind {
	case opAdd, opModify:
		body, err := json.Marshal(ringEdit{ExpectedVersion: m.version, Stream: op.spec})
		if err != nil {
			return err
		}
		if op.kind == opAdd {
			req = newRequest(http.MethodPost, base, body)
		} else {
			req = newRequest(http.MethodPut, base+"/"+sid, body)
		}
	case opRemove:
		req = newRequest(http.MethodDelete, base+"/"+sid+"?expectedVersion="+strconv.FormatUint(m.version, 10), nil)
	}
	a.rec.reset()
	m0 := tr.mallocs()
	h := a.svc.Handler()
	c.start()
	s := tr.begin("service.ring_edit")
	h.ServeHTTP(a.rec, req)
	d := tr.end(s)
	c.stop()
	if tr != nil {
		tr.mean("service.allocs_per_edit", float64(tr.mallocs()-m0))
		tr.time(editMetric[op.kind], d, 1e3)
	}
	if a.rec.code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", op.kind, op.name, a.rec.code, bytes.TrimSpace(a.rec.body.Bytes()))
	}
	var res ringEditResult
	if err := json.Unmarshal(a.rec.body.Bytes(), &res); err != nil {
		return err
	}
	a.e.led.note(uint64(res.Reprobed))
	a.e.led.note(uint64(a.rec.body.Len()))
	if res.Version != m.version+1 || res.Op != op.kind || (op.kind != opAdd && res.StreamID != sid) {
		return fmt.Errorf("%s %s: got version %d op %q stream %q, want version %d op %q stream %q",
			op.kind, op.name, res.Version, res.Op, res.StreamID, m.version+1, op.kind, sid)
	}
	m.version = res.Version
	switch op.kind {
	case opAdd:
		m.sid[op.name] = res.StreamID
		m.spec[op.name] = op.spec
	case opModify:
		m.spec[op.name] = op.spec
	case opRemove:
		delete(m.sid, op.name)
		delete(m.spec, op.name)
	}
	if tr != nil {
		a.traceEdit(m, op, res, d)
	}
	return nil
}

// traceEdit records the edit's re-probe counts and its speed-up over
// analyzing the post-edit snapshot from scratch.
func (a *ringAdmit) traceEdit(m *ringModel, op *editOp, res ringEditResult, edit time.Duration) {
	tr := a.e.tr
	tr.mean("ringstate.reprobed_per_edit", float64(res.Reprobed))
	passes := 1
	if ringConfigs[op.ring].FaultModel != "" {
		passes = 2 // clean and degraded
	}
	full := false
	for _, d := range res.Deltas {
		full = full || (len(m.spec) > 0 && d.Reprobed >= passes*len(m.spec))
	}
	tr.mean("ringstate.full_reprobe_share", b2f(full))
	if len(m.spec) == 0 || edit <= 0 {
		return
	}
	req := a.snapshotRequest(op.ring, m)
	s := tr.begin("replay.analyze_snapshot")
	_, err := ringsched.Analyze(context.Background(), req)
	full0 := tr.end(s)
	if err == nil {
		tr.value("ringstate.speedup_vs_full", float64(full0)/float64(edit))
	}
}

// snapshotRequest is the /v1/analyze request equivalent to a ring
// snapshot (detail on, the shape ring verdicts carry).
func (a *ringAdmit) snapshotRequest(r int, m *ringModel) ringsched.AnalyzeRequest {
	req := ringsched.AnalyzeRequest{BandwidthMbps: ringConfigs[r].BandwidthMbps, FaultModel: ringConfigs[r].FaultModel, Detail: true}
	for _, s := range m.spec {
		req.Streams = append(req.Streams, ringsched.ServiceStreamSpec{Name: s.Name, PeriodMs: s.PeriodMs, LengthBits: s.LengthBits})
	}
	return req
}

// finish checks the rings' snapshot-consistency invariant: every ring's
// verdicts equal /v1/analyze of its snapshot.
func (a *ringAdmit) finish() []error {
	defer a.svc.Close()
	var errs []error
	for r, m := range a.rings {
		if err := a.checkRing(r, m); err != nil {
			errs = append(errs, fmt.Errorf("ring %d: %w", r, err))
		}
	}
	return errs
}

func (a *ringAdmit) checkRing(r int, m *ringModel) error {
	a.rec.reset()
	a.svc.Handler().ServeHTTP(a.rec, newRequest(http.MethodGet, "/v1/rings/"+m.id, nil))
	if a.rec.code != http.StatusOK {
		return fmt.Errorf("GET: status %d", a.rec.code)
	}
	var st ringState
	if err := json.Unmarshal(a.rec.body.Bytes(), &st); err != nil {
		return err
	}
	if st.Version != m.version || len(st.Streams) != len(m.sid) {
		return fmt.Errorf("version %d with %d streams, want %d with %d", st.Version, len(st.Streams), m.version, len(m.sid))
	}
	req := ringsched.AnalyzeRequest{Protocols: st.Protocols, BandwidthMbps: st.BandwidthMbps, FaultModel: st.FaultModel, Detail: true}
	for _, s := range st.Streams {
		if m.sid[s.Name] != s.ID || m.spec[s.Name] != s.streamSpec {
			return fmt.Errorf("stream %s (%s) differs from the edits applied", s.Name, s.ID)
		}
		req.Streams = append(req.Streams, ringsched.ServiceStreamSpec{Name: s.Name, PeriodMs: s.PeriodMs, LengthBits: s.LengthBits})
	}
	resp, err := ringsched.Analyze(context.Background(), req)
	if err != nil {
		return err
	}
	if resp.CacheKey != st.SnapshotKey {
		return fmt.Errorf("snapshotKey %q, /v1/analyze key %q", st.SnapshotKey, resp.CacheKey)
	}
	if a.e.corrupt && r == 0 && len(resp.Verdicts) > 0 {
		resp.Verdicts[0].Schedulable = !resp.Verdicts[0].Schedulable
	}
	for i := range st.Verdicts {
		for k := range st.Verdicts[i].Streams {
			st.Verdicts[i].Streams[k].ID = "" // stateless verdicts carry no stream handles
		}
	}
	got, err := ringsched.EncodeResponse(st.Verdicts)
	if err != nil {
		return err
	}
	want, err := ringsched.EncodeResponse(resp.Verdicts)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("verdicts differ from /v1/analyze of the snapshot")
	}
	return nil
}
