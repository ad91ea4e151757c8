package topology

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"ringsched/internal/specnum"
)

// ErrBadSpec reports an unparsable topology specification.
var ErrBadSpec = errors.New("topology: bad topology spec")

// Parse parses the compact topology specification used by the -topology
// CLI flags and the /v1/topology/analyze endpoint. The grammar mirrors the
// fault-model spec of internal/faults:
//
//	spec    := clause { "+" clause }
//	clause  := kind ":" key "=" value { "," key "=" value }
//	kind    := "ring" | "bridge" | "flow"
//
// Keys per kind (defaults in parentheses):
//
//	ring:   name, proto (fddi), bw (100e6), n, spacing, delay, token, prop
//	bridge: a, b, latency (0), rate (0 ⇒ min ring bandwidth), buffer (0 ⇒ unlimited)
//	flow:   name (auto), src, dst (src), period, bits
//
// A ring's plant parameters default to the canonical preset for its
// protocol (ring.IEEE8025 for 8025/8025mod, ring.FDDI for fddi) at the
// given bandwidth; n, spacing, delay, token and prop override individual
// plant fields. Rates and sizes are plain numbers (bits per second, bits);
// latency and period accept Go duration syntax ("2ms") or a float in
// seconds. Example:
//
//	ring:name=shop,proto=8025mod,bw=4e6 + ring:name=office,proto=fddi +
//	bridge:a=shop,b=office,latency=1ms + flow:src=shop,dst=office,period=50ms,bits=4096
//
// The result is canonicalized and validated; Parse(t.Spec()) reproduces t
// exactly for any canonical t.
func Parse(spec string) (Topology, error) {
	var t Topology
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Topology{}, fmt.Errorf("%w: empty spec", ErrBadSpec)
	}
	for _, clause := range strings.Split(spec, "+") {
		if err := parseClause(&t, clause); err != nil {
			return Topology{}, err
		}
	}
	t = t.Canonicalize()
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

func parseClause(t *Topology, clause string) error {
	kind, params, _ := strings.Cut(strings.TrimSpace(clause), ":")
	kv, err := parseParams(params)
	if err != nil {
		return err
	}
	p := clauseParams{kind: kind, kv: kv}
	switch kind {
	case "ring":
		err = parseRing(t, p)
	case "bridge":
		err = parseBridge(t, p)
	case "flow":
		err = parseFlow(t, p)
	default:
		return fmt.Errorf("%w: unknown clause kind %q (valid kinds: bridge, flow, ring)",
			ErrBadSpec, kind)
	}
	if err != nil {
		return err
	}
	return p.leftover()
}

func parseRing(t *Topology, p clauseParams) error {
	name, err := p.requireStr("name")
	if err != nil {
		return err
	}
	proto := Protocol(p.takeStr("proto", string(FDDI)))
	if !proto.Valid() {
		return fmt.Errorf("%w: proto=%q (valid: 8025, 8025mod, fddi)", ErrBadSpec, proto)
	}
	bw, err := p.take("bw", 100e6, false)
	if err != nil {
		return err
	}
	base := proto.PlantPreset().New(bw)
	cfg := base
	n, err := p.take("n", float64(base.Stations), false)
	if err != nil {
		return err
	}
	if !(n >= 1 && n <= MaxStations) || n != float64(int(n)) {
		return fmt.Errorf("%w: n=%g is not an integer in [1, %d]", ErrBadSpec, n, MaxStations)
	}
	cfg.Stations = int(n)
	if cfg.SpacingMeters, err = p.take("spacing", base.SpacingMeters, false); err != nil {
		return err
	}
	if cfg.BitDelayPerStation, err = p.take("delay", base.BitDelayPerStation, false); err != nil {
		return err
	}
	if cfg.TokenBits, err = p.take("token", base.TokenBits, false); err != nil {
		return err
	}
	if cfg.PropagationFraction, err = p.take("prop", base.PropagationFraction, false); err != nil {
		return err
	}
	t.Nodes = append(t.Nodes, Node{Name: name, Protocol: proto, Ring: cfg})
	return nil
}

func parseBridge(t *Topology, p clauseParams) error {
	a, err := p.requireStr("a")
	if err != nil {
		return err
	}
	b, err := p.requireStr("b")
	if err != nil {
		return err
	}
	br := Bridge{A: a, B: b}
	if br.Latency, err = p.take("latency", 0, true); err != nil {
		return err
	}
	if br.RateBPS, err = p.take("rate", 0, false); err != nil {
		return err
	}
	if br.BufferBits, err = p.take("buffer", 0, false); err != nil {
		return err
	}
	t.Bridges = append(t.Bridges, br)
	return nil
}

func parseFlow(t *Topology, p clauseParams) error {
	src, err := p.requireStr("src")
	if err != nil {
		return err
	}
	f := Flow{
		Name: p.takeStr("name", ""),
		Src:  src,
		Dst:  p.takeStr("dst", src),
	}
	if f.Period, err = p.require("period", true); err != nil {
		return err
	}
	if f.LengthBits, err = p.require("bits", false); err != nil {
		return err
	}
	t.Flows = append(t.Flows, f)
	return nil
}

// clauseParams wraps one clause's key/value pairs; taken keys are removed
// so leftover can flag unknown keys.
type clauseParams struct {
	kind string
	kv   map[string]string
}

func (p clauseParams) takeStr(key, def string) string {
	raw, ok := p.kv[key]
	if !ok {
		return def
	}
	delete(p.kv, key)
	return raw
}

func (p clauseParams) requireStr(key string) (string, error) {
	raw, ok := p.kv[key]
	if !ok {
		return "", fmt.Errorf("%w: %s clause needs %s=", ErrBadSpec, p.kind, key)
	}
	delete(p.kv, key)
	return raw, nil
}

func (p clauseParams) take(key string, def float64, duration bool) (float64, error) {
	raw, ok := p.kv[key]
	if !ok {
		return def, nil
	}
	delete(p.kv, key)
	if duration {
		if d, derr := time.ParseDuration(raw); derr == nil {
			return d.Seconds(), nil
		}
	}
	v, perr := strconv.ParseFloat(raw, 64)
	if perr != nil {
		return 0, fmt.Errorf("%w: %s=%q", ErrBadSpec, key, raw)
	}
	return v, nil
}

func (p clauseParams) require(key string, duration bool) (float64, error) {
	if _, ok := p.kv[key]; !ok {
		return 0, fmt.Errorf("%w: %s clause needs %s=", ErrBadSpec, p.kind, key)
	}
	return p.take(key, 0, duration)
}

func (p clauseParams) leftover() error {
	for key := range p.kv {
		return fmt.Errorf("%w: unknown %s key %q (valid %s keys: %s)",
			ErrBadSpec, p.kind, key, p.kind, clauseKeys[p.kind])
	}
	return nil
}

// clauseKeys lists the accepted keys per clause kind, for error messages.
var clauseKeys = map[string]string{
	"ring":   "name, proto, bw, n, spacing, delay, token, prop",
	"bridge": "a, b, latency, rate, buffer",
	"flow":   "name, src, dst, period, bits",
}

func parseParams(params string) (map[string]string, error) {
	kv := map[string]string{}
	if strings.TrimSpace(params) == "" {
		return kv, nil
	}
	for _, pair := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(pair, "=")
		key = strings.TrimSpace(key)
		if !ok || key == "" {
			return nil, fmt.Errorf("%w: want key=value, got %q", ErrBadSpec, pair)
		}
		if _, dup := kv[key]; dup {
			return nil, fmt.Errorf("%w: duplicate key %q", ErrBadSpec, key)
		}
		kv[key] = strings.TrimSpace(val)
	}
	return kv, nil
}

// Spec renders the topology in the canonical form Parse accepts: rings,
// then bridges, then flows, each in canonical order, with durations as
// float seconds and default-valued keys omitted. Parse(t.Spec()) reproduces
// a canonical t exactly.
func (t Topology) Spec() string {
	var parts []string
	for _, n := range t.Nodes {
		parts = append(parts, ringClause(n))
	}
	for _, b := range t.Bridges {
		s := fmt.Sprintf("bridge:a=%s,b=%s", b.A, b.B)
		if b.Latency != 0 {
			s += fmt.Sprintf(",latency=%s", specnum.Format(b.Latency))
		}
		if b.RateBPS != 0 {
			s += fmt.Sprintf(",rate=%s", specnum.Format(b.RateBPS))
		}
		if b.BufferBits != 0 {
			s += fmt.Sprintf(",buffer=%s", specnum.Format(b.BufferBits))
		}
		parts = append(parts, s)
	}
	for _, f := range t.Flows {
		s := fmt.Sprintf("flow:name=%s,src=%s", f.Name, f.Src)
		if f.Dst != f.Src {
			s += fmt.Sprintf(",dst=%s", f.Dst)
		}
		s += fmt.Sprintf(",period=%s,bits=%s", specnum.Format(f.Period), specnum.Format(f.LengthBits))
		parts = append(parts, s)
	}
	return strings.Join(parts, " + ")
}

func ringClause(n Node) string {
	s := fmt.Sprintf("ring:name=%s", n.Name)
	if n.Protocol != FDDI {
		s += fmt.Sprintf(",proto=%s", string(n.Protocol))
	}
	cfg := n.Ring
	if cfg.BandwidthBPS != 100e6 {
		s += fmt.Sprintf(",bw=%s", specnum.Format(cfg.BandwidthBPS))
	}
	base := n.Protocol.PlantPreset().New(cfg.BandwidthBPS)
	if cfg.Stations != base.Stations {
		s += fmt.Sprintf(",n=%d", cfg.Stations)
	}
	if cfg.SpacingMeters != base.SpacingMeters {
		s += fmt.Sprintf(",spacing=%s", specnum.Format(cfg.SpacingMeters))
	}
	if cfg.BitDelayPerStation != base.BitDelayPerStation {
		s += fmt.Sprintf(",delay=%s", specnum.Format(cfg.BitDelayPerStation))
	}
	if cfg.TokenBits != base.TokenBits {
		s += fmt.Sprintf(",token=%s", specnum.Format(cfg.TokenBits))
	}
	if cfg.PropagationFraction != base.PropagationFraction {
		s += fmt.Sprintf(",prop=%s", specnum.Format(cfg.PropagationFraction))
	}
	return s
}
