package topology

import (
	"errors"
	"fmt"
	"strings"

	"ringsched/internal/specnum"
)

// ErrBadSpec reports an unparsable topology specification.
var ErrBadSpec = errors.New("topology: bad topology spec")

// Parse parses the compact topology specification used by the -topology
// CLI flags and the /v1/topology/analyze endpoint, in the clause grammar of
// internal/specnum that fault-model and chaos specs share:
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
	if err := specnum.Clauses(spec, ErrBadSpec, func(c *specnum.Clause) error {
		return parseClause(&t, c)
	}); err != nil {
		return Topology{}, err
	}
	t = t.Canonicalize()
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

func parseClause(t *Topology, c *specnum.Clause) error {
	var err error
	switch c.Kind {
	case "ring":
		err = parseRing(t, c)
	case "bridge":
		err = parseBridge(t, c)
	case "flow":
		err = parseFlow(t, c)
	default:
		return fmt.Errorf("%w: unknown clause kind %q (valid kinds: bridge, flow, ring)",
			ErrBadSpec, c.Kind)
	}
	if err != nil {
		return err
	}
	return c.Done(clauseKeys[c.Kind])
}

func parseRing(t *Topology, c *specnum.Clause) error {
	name, err := c.NeedStr("name")
	if err != nil {
		return err
	}
	proto := Protocol(c.Str("proto", string(FDDI)))
	if !proto.Valid() {
		return fmt.Errorf("%w: proto=%q (valid: 8025, 8025mod, fddi)", ErrBadSpec, proto)
	}
	bw, err := c.Num("bw", 100e6, false)
	if err != nil {
		return err
	}
	base := proto.PlantPreset().New(bw)
	cfg := base
	n, err := c.Int("n", int64(base.Stations), 1, MaxStations)
	if err != nil {
		return err
	}
	cfg.Stations = int(n)
	if cfg.SpacingMeters, err = c.Num("spacing", base.SpacingMeters, false); err != nil {
		return err
	}
	if cfg.BitDelayPerStation, err = c.Num("delay", base.BitDelayPerStation, false); err != nil {
		return err
	}
	if cfg.TokenBits, err = c.Num("token", base.TokenBits, false); err != nil {
		return err
	}
	if cfg.PropagationFraction, err = c.Num("prop", base.PropagationFraction, false); err != nil {
		return err
	}
	t.Nodes = append(t.Nodes, Node{Name: name, Protocol: proto, Ring: cfg})
	return nil
}

func parseBridge(t *Topology, c *specnum.Clause) error {
	a, err := c.NeedStr("a")
	if err != nil {
		return err
	}
	b, err := c.NeedStr("b")
	if err != nil {
		return err
	}
	br := Bridge{A: a, B: b}
	if br.Latency, err = c.Num("latency", 0, true); err != nil {
		return err
	}
	if br.RateBPS, err = c.Num("rate", 0, false); err != nil {
		return err
	}
	if br.BufferBits, err = c.Num("buffer", 0, false); err != nil {
		return err
	}
	t.Bridges = append(t.Bridges, br)
	return nil
}

func parseFlow(t *Topology, c *specnum.Clause) error {
	src, err := c.NeedStr("src")
	if err != nil {
		return err
	}
	f := Flow{
		Name: c.Str("name", ""),
		Src:  src,
		Dst:  c.Str("dst", src),
	}
	if f.Period, err = c.Need("period", true); err != nil {
		return err
	}
	if f.LengthBits, err = c.Need("bits", false); err != nil {
		return err
	}
	t.Flows = append(t.Flows, f)
	return nil
}

// clauseKeys lists the accepted keys per clause kind, for error messages.
var clauseKeys = map[string]string{
	"ring":   "name, proto, bw, n, spacing, delay, token, prop",
	"bridge": "a, b, latency, rate, buffer",
	"flow":   "name, src, dst, period, bits",
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
