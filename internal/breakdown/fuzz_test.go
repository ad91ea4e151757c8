package breakdown

import (
	"math/rand"
	"testing"

	"ringsched/internal/core"
	"ringsched/internal/message"
)

// FuzzSaturateParity holds the whole saturation search to its reference on
// fuzzer-chosen inputs: a seeded set of 1–120 streams at any bandwidth,
// under modified 802.5, IEEE 802.5, ideal RM or FDDI. The pooled-probe
// search must give saturateReference's error, or its feasibility, probe
// count, scale and utilization bits and saturated payloads.
func FuzzSaturateParity(f *testing.F) {
	f.Add(int64(1), uint8(100), 4e6, uint8(0))
	f.Add(int64(1), uint8(100), 4e6, uint8(1))
	f.Add(int64(7), uint8(12), 1e6, uint8(2))
	f.Add(int64(29), uint8(60), 100e6, uint8(3))
	f.Add(int64(3), uint8(120), 16e6, uint8(1))
	f.Add(int64(5), uint8(1), 1e9, uint8(0))
	f.Add(int64(2), uint8(40), -1.0, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, streams uint8, bw float64, analyzer uint8) {
		if streams == 0 || streams > 120 {
			return
		}
		var a core.Analyzer
		switch analyzer % 4 {
		case 0:
			a = core.NewModifiedPDP(bw)
		case 1:
			a = core.NewStandardPDP(bw)
		case 2:
			a = core.IdealRM{}
		default:
			a = core.NewTTP(bw)
		}
		gen := message.Generator{Streams: int(streams), MeanPeriod: 100e-3, PeriodRatio: 10}
		set, err := gen.Draw(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("Draw: %v", err)
		}
		fast, err1 := Saturate(set, a, bw, SaturateOptions{})
		ref, err2 := saturateReference(set, a, bw, SaturateOptions{})
		if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("%s: fast err %v, reference err %v", a.Name(), err1, err2)
		}
		if err1 != nil {
			return
		}
		if fast.Probes != ref.Probes {
			t.Fatalf("%s: %d probes, reference %d", a.Name(), fast.Probes, ref.Probes)
		}
		sameSaturation(t, a.Name(), fast, ref)
	})
}
