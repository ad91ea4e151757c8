package expt

import (
	"context"
	"fmt"
	"strings"

	"ringsched/internal/breakdown"
	"ringsched/internal/core"
	"ringsched/internal/frame"
	"ringsched/internal/message"
	"ringsched/internal/progress"
	"ringsched/internal/ring"
	"ringsched/internal/ttpalloc"
	"ringsched/internal/wire"
)

// ablationBandwidths is the small grid used by the "results were similar"
// ablations: one low-speed point where PDP leads, one high-speed point
// where TTP leads.
var _ablationBandwidths = []float64{4e6, 100e6}

func ablationPeriods() Experiment {
	return Experiment{
		ID:    "ABL-PERIOD",
		Title: "Sensitivity to mean period and max/min period ratio (paper: \"results were similar\")",
		Run: func(ctx context.Context, cfg Config, obs progress.Progress) (Report, error) {
			cfg = cfg.withDefaults()
			means := []float64{20e-3, 100e-3, 500e-3}
			ratios := []float64{2, 10, 100}
			if cfg.Quick {
				means = []float64{100e-3}
				ratios = []float64{2, 10}
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%10s %8s %10s %16s %16s %16s\n",
				"mean (ms)", "ratio", "BW (Mbps)", "Modified 802.5", "IEEE 802.5", "FDDI")
			rep := Report{ID: "ABL-PERIOD", Title: "Period distribution ablation", Pass: true}
			for _, mean := range means {
				for _, ratio := range ratios {
					for _, bw := range _ablationBandwidths {
						est := cfg.estimator(breakdown.Estimator{
							Generator: message.Generator{Streams: 100, MeanPeriod: mean, PeriodRatio: ratio},
							Samples:   cfg.Samples,
							Seed:      cfg.Seed,
						}, obs)
						var row [3]float64
						for i, slug := range wire.AllProtocols() {
							e, err := est.EstimateContext(ctx, breakdown.Protocol(slug, ring.PaperStations)(bw), bw)
							if err != nil {
								return Report{}, err
							}
							row[i] = e.Mean
						}
						fmt.Fprintf(&b, "%10.0f %8.0f %10.0f %16.4f %16.4f %16.4f\n",
							mean*1e3, ratio, bw/1e6, row[0], row[1], row[2])
						key := fmt.Sprintf("mean%gms_ratio%g_bw%gmbps", mean*1e3, ratio, bw/1e6)
						rep.addValue(key+"_pdp_mod", row[0])
						rep.addValue(key+"_fddi", row[2])
						// The qualitative ordering should persist: PDP
						// leads at 4 Mbps, FDDI at 100 Mbps (allowing the
						// degenerate all-zero low-bandwidth cases).
						if bw == 100e6 && row[2] <= row[0] {
							rep.Pass = false
							rep.notef("FDDI did not lead at 100 Mbps for mean=%g ms ratio=%g", mean*1e3, ratio)
						}
					}
				}
			}
			if rep.Pass {
				rep.notef("protocol ordering is stable across period distributions")
			}
			rep.Text = b.String()
			return rep, nil
		},
	}
}

func ablationFrameSize() Experiment {
	return Experiment{
		ID:    "ABL-FRAME",
		Title: "Frame size trade-off: responsiveness vs per-frame overhead (Section 4.2)",
		Run: func(ctx context.Context, cfg Config, obs progress.Progress) (Report, error) {
			cfg = cfg.withDefaults()
			payloads := []float64{128, 512, 2048, 8192} // bits: 16 B – 1 KiB
			if cfg.Quick {
				payloads = []float64{128, 512, 2048}
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%12s %10s %16s %16s %16s\n",
				"payload (B)", "BW (Mbps)", "Modified 802.5", "IEEE 802.5", "FDDI")
			rep := Report{ID: "ABL-FRAME", Title: "Frame size ablation", Pass: true}
			est := cfg.estimator(breakdown.PaperEstimator(cfg.Samples, cfg.Seed), obs)
			for _, info := range payloads {
				spec := frame.Spec{InfoBits: info, OvhdBits: frame.PaperOvhdBits}
				for _, bw := range _ablationBandwidths {
					mkPDP := func(v core.Variant) core.Analyzer {
						p := core.NewStandardPDP(bw)
						p.Frame = spec
						p.Variant = v
						return p
					}
					ttp := core.NewTTP(bw)
					ttp.SyncFrame = spec
					ttp.AsyncFrame = spec
					var row [3]float64
					for i, a := range []core.Analyzer{mkPDP(core.Modified8025), mkPDP(core.Standard8025), ttp} {
						e, err := est.EstimateContext(ctx, a, bw)
						if err != nil {
							return Report{}, err
						}
						row[i] = e.Mean
					}
					fmt.Fprintf(&b, "%12.0f %10.0f %16.4f %16.4f %16.4f\n",
						info/8, bw/1e6, row[0], row[1], row[2])
					key := fmt.Sprintf("info%gb_bw%gmbps", info, bw/1e6)
					rep.addValue(key+"_pdp_mod", row[0])
					rep.addValue(key+"_pdp_std", row[1])
					rep.addValue(key+"_fddi", row[2])
				}
			}
			rep.notef("larger frames amortize per-frame overhead but coarsen preemption; see the table for the trade-off")
			rep.Text = b.String()
			return rep, nil
		},
	}
}

func ablationStations() Experiment {
	return Experiment{
		ID:    "ABL-N",
		Title: "Sensitivity to station count",
		Run: func(ctx context.Context, cfg Config, obs progress.Progress) (Report, error) {
			cfg = cfg.withDefaults()
			counts := []int{10, 50, 100, 200}
			if cfg.Quick {
				counts = []int{10, 100}
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%6s %10s %16s %16s %16s\n",
				"n", "BW (Mbps)", "Modified 802.5", "IEEE 802.5", "FDDI")
			rep := Report{ID: "ABL-N", Title: "Station count ablation", Pass: true}
			for _, n := range counts {
				est := cfg.estimator(breakdown.Estimator{
					Generator: message.Generator{Streams: n, MeanPeriod: 100e-3, PeriodRatio: 10},
					Samples:   cfg.Samples,
					Seed:      cfg.Seed,
				}, obs)
				for _, bw := range _ablationBandwidths {
					var row [3]float64
					for i, slug := range wire.AllProtocols() {
						e, err := est.EstimateContext(ctx, breakdown.Protocol(slug, n)(bw), bw)
						if err != nil {
							return Report{}, err
						}
						row[i] = e.Mean
					}
					fmt.Fprintf(&b, "%6d %10.0f %16.4f %16.4f %16.4f\n",
						n, bw/1e6, row[0], row[1], row[2])
					key := fmt.Sprintf("n%d_bw%gmbps", n, bw/1e6)
					rep.addValue(key+"_pdp_mod", row[0])
					rep.addValue(key+"_fddi", row[2])
				}
			}
			rep.notef("per-message and per-station overheads grow with n; breakdown utilization falls accordingly")
			rep.Text = b.String()
			return rep, nil
		},
	}
}

func ablationAllocationSchemes() Experiment {
	return Experiment{
		ID:    "ABL-ALLOC",
		Title: "TTP synchronous bandwidth allocation schemes: local vs baselines",
		Run: func(ctx context.Context, cfg Config, obs progress.Progress) (Report, error) {
			cfg = cfg.withDefaults()
			schemes := []ttpalloc.Scheme{
				ttpalloc.Local{},
				ttpalloc.FullLength{},
				ttpalloc.Proportional{},
				ttpalloc.EqualPartition{},
				ttpalloc.NormalizedProportional{},
			}
			bws := []float64{10e6, 100e6, 1000e6}
			if cfg.Quick {
				bws = []float64{100e6}
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%10s", "BW (Mbps)")
			for _, s := range schemes {
				fmt.Fprintf(&b, " %24s", s.Name())
			}
			b.WriteByte('\n')
			rep := Report{ID: "ABL-ALLOC", Title: "Allocation scheme comparison", Pass: true}
			est := cfg.estimator(breakdown.PaperEstimator(cfg.Samples, cfg.Seed), obs)
			localBeatsAll := true
			for _, bw := range bws {
				fmt.Fprintf(&b, "%10.0f", bw/1e6)
				var localMean float64
				for si, s := range schemes {
					a := ttpalloc.Analyzer{TTP: core.NewTTP(bw), Scheme: s}
					e, err := est.EstimateContext(ctx, a, bw)
					if err != nil {
						return Report{}, err
					}
					fmt.Fprintf(&b, " %24.4f", e.Mean)
					rep.addValue(fmt.Sprintf("%s_bw%gmbps", s.Name(), bw/1e6), e.Mean)
					if si == 0 {
						localMean = e.Mean
					} else if e.Mean > localMean+0.01 {
						localBeatsAll = false
						rep.notef("%s beat local at %g Mbps (%.4f vs %.4f)", s.Name(), bw/1e6, e.Mean, localMean)
					}
				}
				b.WriteByte('\n')
			}
			if localBeatsAll {
				rep.notef("the local scheme matches or beats every baseline at every bandwidth")
			}
			rep.Pass = true // comparative table; no acceptance threshold
			rep.Text = b.String()
			return rep, nil
		},
	}
}
