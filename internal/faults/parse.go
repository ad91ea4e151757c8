package faults

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"ringsched/internal/specnum"
)

// ErrBadSpec reports an unparsable fault-model specification.
var ErrBadSpec = errors.New("faults: bad fault-model spec")

// ErrUnknownScenario reports an unregistered scenario name.
var ErrUnknownScenario = errors.New("faults: unknown scenario")

// ParseModel parses the compact fault-model specification used by the CLI
// -fault-model flags, in the clause grammar of internal/specnum that
// topology and chaos specs share:
//
//	spec    := "none" | clause { "+" clause }
//	clause  := kind [ ":" key "=" value { "," key "=" value } ]
//	kind    := "loss" | "corrupt" | "gilbert" | "crash"
//
// Keys per kind (a bare kind takes the defaults in parentheses):
//
//	loss:    p (1e-3), detect, rounds, fixed
//	corrupt: p (1e-3)                             — Bernoulli channel
//	gilbert: pgood (0), pbad (0.5), burst (8), gap (1000)
//	crash:   rate (0.1), down (50ms), bypass (2ms)
//
// Probabilities, rates and counts are plain numbers; durations accept Go
// duration syntax ("2ms") or a float in seconds. Examples:
//
//	loss:p=1e-3,detect=1ms,rounds=2
//	gilbert:pbad=0.3,burst=16+crash:rate=0.05
func ParseModel(spec string) (Model, error) {
	var m Model
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return m, nil
	}
	if err := specnum.Clauses(spec, ErrBadSpec, func(c *specnum.Clause) error {
		return parseClause(&m, c)
	}); err != nil {
		return Model{}, err
	}
	if err := m.Validate(); err != nil {
		return Model{}, err
	}
	return m, nil
}

func parseClause(m *Model, c *specnum.Clause) error {
	var err error
	switch c.Kind {
	case "loss":
		if m.TokenLossProb, err = c.Num("p", 1e-3, false); err != nil {
			return err
		}
		if m.Recovery.Detect, err = c.Num("detect", 0, true); err != nil {
			return err
		}
		rounds, err := c.Int("rounds", 0, 0, math.MaxInt)
		if err != nil {
			return err
		}
		m.Recovery.ClaimRounds = int(rounds)
		if m.Recovery.Fixed, err = c.Num("fixed", 0, true); err != nil {
			return err
		}
	case "corrupt":
		m.Channel.Kind = ChannelBernoulli
		if m.Channel.CorruptProb, err = c.Num("p", 1e-3, false); err != nil {
			return err
		}
	case "gilbert":
		m.Channel.Kind = ChannelGilbertElliott
		if m.Channel.CorruptProb, err = c.Num("pgood", 0, false); err != nil {
			return err
		}
		if m.Channel.BurstCorruptProb, err = c.Num("pbad", 0.5, false); err != nil {
			return err
		}
		if m.Channel.MeanBurst, err = c.Num("burst", 8, false); err != nil {
			return err
		}
		if m.Channel.MeanGap, err = c.Num("gap", 1000, false); err != nil {
			return err
		}
	case "crash":
		if m.Crash.Rate, err = c.Num("rate", 0.1, false); err != nil {
			return err
		}
		if m.Crash.MeanDowntime, err = c.Num("down", 50e-3, true); err != nil {
			return err
		}
		if m.Crash.Bypass, err = c.Num("bypass", 2e-3, true); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: unknown clause kind %q (valid kinds: corrupt, crash, gilbert, loss; or \"none\")",
			ErrBadSpec, c.Kind)
	}
	return c.Done(clauseKeys[c.Kind])
}

// clauseKeys lists the accepted keys per clause kind, for error messages.
var clauseKeys = map[string]string{
	"loss":    "p, detect, rounds, fixed",
	"corrupt": "p",
	"gilbert": "pgood, pbad, burst, gap",
	"crash":   "rate, down, bypass",
}

// Spec renders the model in the canonical form ParseModel accepts, with
// durations printed as float seconds; ParseModel(m.Spec()) reproduces m
// exactly (Seed excepted — it is carried out of band by the CLI flags).
func (m Model) Spec() string {
	num := specnum.Format
	var parts []string
	if m.TokenLossProb > 0 || m.Recovery != (Recovery{}) {
		s := "loss:p=" + num(m.TokenLossProb)
		if m.Recovery.Detect > 0 {
			s += ",detect=" + num(m.Recovery.Detect)
		}
		if m.Recovery.ClaimRounds > 0 {
			s += fmt.Sprintf(",rounds=%d", m.Recovery.ClaimRounds)
		}
		if m.Recovery.Fixed > 0 {
			s += ",fixed=" + num(m.Recovery.Fixed)
		}
		parts = append(parts, s)
	}
	switch m.Channel.Kind {
	case ChannelBernoulli:
		parts = append(parts, "corrupt:p="+num(m.Channel.CorruptProb))
	case ChannelGilbertElliott:
		parts = append(parts, fmt.Sprintf("gilbert:pgood=%s,pbad=%s,burst=%s,gap=%s",
			num(m.Channel.CorruptProb), num(m.Channel.BurstCorruptProb),
			num(m.Channel.MeanBurst), num(m.Channel.MeanGap)))
	}
	if m.Crash != (Crash{}) {
		parts = append(parts, fmt.Sprintf("crash:rate=%s,down=%s,bypass=%s",
			num(m.Crash.Rate), num(m.Crash.MeanDowntime), num(m.Crash.Bypass)))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Scenario is a named, documented fault configuration for CLI use.
type Scenario struct {
	// Name is the -scenario flag value.
	Name string
	// Note is a one-line description for help output.
	Note string
	// Model is the fault configuration.
	Model Model
}

// Scenarios returns the built-in named fault scenarios, mildest first.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "clean",
			Note: "healthy ring; baseline for comparisons",
		},
		{
			Name: "noisy-channel",
			Note: "bursty media errors (Gilbert–Elliott, ~1.6% frames corrupted in 8-frame bursts)",
			Model: Model{Channel: Channel{
				Kind: ChannelGilbertElliott, CorruptProb: 1e-4,
				BurstCorruptProb: 0.3, MeanBurst: 8, MeanGap: 500,
			}},
		},
		{
			Name: "lossy-token",
			Note: "token lost once per ~1000 services; claim recovery of 1ms + 2 rounds",
			Model: Model{
				TokenLossProb: 1e-3,
				Recovery:      Recovery{Detect: 1e-3, ClaimRounds: 2},
			},
		},
		{
			Name:  "flaky-stations",
			Note:  "stations crash ~every 5s for ~20ms, 1ms bypass reconfiguration",
			Model: Model{Crash: Crash{Rate: 0.2, MeanDowntime: 20e-3, Bypass: 1e-3}},
		},
		{
			Name: "degraded",
			Note: "all three processes at moderate severity",
			Model: Model{
				TokenLossProb: 5e-4,
				Recovery:      Recovery{Detect: 1e-3, ClaimRounds: 2},
				Channel: Channel{
					Kind: ChannelGilbertElliott, CorruptProb: 1e-4,
					BurstCorruptProb: 0.2, MeanBurst: 8, MeanGap: 1000,
				},
				Crash: Crash{Rate: 0.05, MeanDowntime: 20e-3, Bypass: 1e-3},
			},
		},
	}
}

// ScenarioByName looks up one built-in scenario. The error of an unknown
// name matches ErrUnknownScenario (errors.Is) and lists every valid name.
func ScenarioByName(name string) (Scenario, error) {
	scenarios := Scenarios()
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		if s.Name == name {
			return s, nil
		}
		names[i] = s.Name
	}
	return Scenario{}, fmt.Errorf("%w: %q (valid scenarios: %s)",
		ErrUnknownScenario, name, strings.Join(names, ", "))
}
