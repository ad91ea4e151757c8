package cli

import (
	"math/rand"
	"os"

	"ringsched/internal/message"
)

// LoadSet returns the message set a tool's workload flags name: the
// built-in preset when preset is set, else the JSON set file at path when
// path is set, else streams streams drawn from the paper's generator with
// rng and scaled to utilization at bw bits/s.
func LoadSet(path, preset string, streams int, utilization, bw float64, rng *rand.Rand) (message.Set, error) {
	if preset != "" {
		p, err := message.PresetByName(preset)
		if err != nil {
			return nil, err
		}
		return p.Set, nil
	}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return message.ReadJSON(f)
	}
	gen := message.PaperGenerator()
	gen.Streams = streams
	set, err := gen.Draw(rng)
	if err != nil {
		return nil, err
	}
	return set.ScaleToUtilization(utilization, bw)
}
