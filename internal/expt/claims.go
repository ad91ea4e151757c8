package expt

import (
	"context"
	"fmt"
	"math"
	"strings"

	"ringsched/internal/breakdown"
	"ringsched/internal/core"
	"ringsched/internal/message"
	"ringsched/internal/progress"
)

// compareAt estimates all three protocols at the given bandwidths and
// formats the rows.
func compareAt(ctx context.Context, cfg Config, obs progress.Progress, bandwidths []float64) ([]breakdown.Series, string, error) {
	series, err := runFig1Sweep(ctx, cfg, obs, bandwidths)
	if err != nil {
		return nil, "", err
	}
	table, err := breakdown.FormatTable(series)
	if err != nil {
		return nil, "", err
	}
	return series, table, nil
}

func claimLowBandwidth() Experiment {
	return Experiment{
		ID:    "CLAIM-LOWBW",
		Title: "PDP outperforms TTP at low bandwidths (1–10 Mbps)",
		Run: func(ctx context.Context, cfg Config, obs progress.Progress) (Report, error) {
			cfg = cfg.withDefaults()
			bws := []float64{1e6, 2e6, 4e6, 10e6}
			series, text, err := compareAt(ctx, cfg, obs, bws)
			if err != nil {
				return Report{}, err
			}
			rep := Report{ID: "CLAIM-LOWBW", Title: "Low-bandwidth comparison", Text: text, Pass: true}
			mod, fddi := series[0], series[2]
			wins := 0
			for i := range bws {
				p, f := mod.Points[i].Estimate.Mean, fddi.Points[i].Estimate.Mean
				rep.addValue(fmt.Sprintf("pdp_minus_fddi_at_%gmbps", bws[i]/1e6), p-f)
				if p >= f {
					wins++
				}
			}
			// At 1 Mbps the paper's parameters leave both protocols near
			// zero; the claim is judged on the 2–10 Mbps points.
			if wins < 3 {
				rep.Pass = false
				rep.notef("PDP won only %d of %d low-bandwidth points", wins, len(bws))
			} else {
				rep.notef("PDP (modified) ≥ FDDI at %d of %d points in [%s] Mbps", wins, len(bws), fmtMbps(bws))
			}
			return rep, nil
		},
	}
}

func claimHighBandwidth() Experiment {
	return Experiment{
		ID:    "CLAIM-HIGHBW",
		Title: "TTP outperforms PDP at high bandwidths (≥ 100 Mbps)",
		Run: func(ctx context.Context, cfg Config, obs progress.Progress) (Report, error) {
			cfg = cfg.withDefaults()
			bws := []float64{100e6, 300e6, 1000e6}
			series, text, err := compareAt(ctx, cfg, obs, bws)
			if err != nil {
				return Report{}, err
			}
			rep := Report{ID: "CLAIM-HIGHBW", Title: "High-bandwidth comparison", Text: text, Pass: true}
			mod, fddi := series[0], series[2]
			for i := range bws {
				p, f := mod.Points[i].Estimate.Mean, fddi.Points[i].Estimate.Mean
				rep.addValue(fmt.Sprintf("fddi_minus_pdp_at_%gmbps", bws[i]/1e6), f-p)
				if f <= p {
					rep.Pass = false
					rep.notef("PDP beat FDDI at %g Mbps (%.3f vs %.3f)", bws[i]/1e6, p, f)
				}
			}
			if rep.Pass {
				rep.notef("FDDI > PDP at every point in [%s] Mbps", fmtMbps(bws))
			}
			return rep, nil
		},
	}
}

func claimModifiedDominates() Experiment {
	return Experiment{
		ID:    "CLAIM-MOD",
		Title: "Modified 802.5 outperforms the standard IEEE 802.5 implementation everywhere",
		Run: func(ctx context.Context, cfg Config, obs progress.Progress) (Report, error) {
			cfg = cfg.withDefaults()
			series, err := runFig1Sweep(ctx, cfg, obs, breakdown.PaperBandwidths(cfg.PointsPerDecade))
			if err != nil {
				return Report{}, err
			}
			table, err := breakdown.FormatTable(series[:2])
			if err != nil {
				return Report{}, err
			}
			rep := Report{
				ID:    "CLAIM-MOD",
				Title: "Modified vs standard 802.5",
				Text:  table,
				Pass:  true,
			}
			mod, std := series[0], series[1]
			minAdv, maxAdv := math.Inf(1), math.Inf(-1)
			for i := range mod.Points {
				adv := mod.Points[i].Estimate.Mean - std.Points[i].Estimate.Mean
				minAdv = math.Min(minAdv, adv)
				maxAdv = math.Max(maxAdv, adv)
				noise := mod.Points[i].Estimate.CI95 + std.Points[i].Estimate.CI95
				if adv < -noise {
					rep.Pass = false
					rep.notef("standard beat modified at %.3g Mbps by %.4f",
						mod.Points[i].BandwidthBPS/1e6, -adv)
				}
			}
			rep.addValue("min_advantage", minAdv)
			rep.addValue("max_advantage", maxAdv)
			if rep.Pass {
				rep.notef("modified ≥ standard at every bandwidth (advantage %.4f … %.4f)", minAdv, maxAdv)
			}
			return rep, nil
		},
	}
}

func claimTTRTSelection() Experiment {
	return Experiment{
		ID:    "CLAIM-TTRT",
		Title: "TTRT ≈ √(θ·P) maximizes breakdown utilization for equal periods; √(θ·Pmin) is a good general heuristic",
		Run: func(ctx context.Context, cfg Config, obs progress.Progress) (Report, error) {
			cfg = cfg.withDefaults()
			const (
				bw     = 100e6
				period = 100e-3
				n      = 100
			)
			probe := core.NewTTP(bw)
			probe.Net = probe.Net.WithStations(n)
			theta := probe.Overhead()
			optimal := math.Sqrt(theta * period)

			// Sweep TTRT across [2θ, P/2] on a log grid and find the
			// empirical optimum for the equal-period workload.
			var b strings.Builder
			fmt.Fprintf(&b, "equal periods P=%.0f ms, n=%d, bw=%.0f Mbps, θ=%.3g ms\n", period*1e3, n, bw/1e6, theta*1e3)
			fmt.Fprintf(&b, "%12s %12s\n", "TTRT (ms)", "breakdown U")
			lo, hi := 2*theta, period/2
			grid := 25
			if cfg.Quick {
				grid = 12
			}
			bestU, bestTTRT := -1.0, 0.0
			for i := 0; i <= grid; i++ {
				if err := ctx.Err(); err != nil {
					return Report{}, err
				}
				ttrt := lo * math.Pow(hi/lo, float64(i)/float64(grid))
				u, err := breakdown.EqualPeriodBreakdown(n, period, ttrt, bw)
				if err != nil {
					return Report{}, err
				}
				fmt.Fprintf(&b, "%12.4f %12.4f\n", ttrt*1e3, u)
				if u > bestU {
					bestU, bestTTRT = u, ttrt
				}
			}
			uAtSqrt, err := breakdown.EqualPeriodBreakdown(n, period, optimal, bw)
			if err != nil {
				return Report{}, err
			}
			uAtHalf, err := breakdown.EqualPeriodBreakdown(n, period, period/2, bw)
			if err != nil {
				return Report{}, err
			}

			// The paper's second assertion: the √(θ·Pmin) bid rule "is
			// found to give good results in the more general case of
			// unequal periods". Compare the two built-in rules on the
			// paper's random workload.
			fmt.Fprintf(&b, "\ngeneral (unequal periods, paper workload) at %.0f Mbps:\n", bw/1e6)
			est := cfg.estimator(breakdown.Estimator{
				Generator: message.PaperGenerator(),
				Samples:   cfg.Samples,
				Seed:      cfg.Seed,
			}, obs)
			generalRules := []struct {
				name string
				rule core.TTRTRule
			}{
				{"sqrt(theta*Pmin)", core.TTRTSqrtHeuristic},
				{"Pmin/2", core.TTRTHalfMinPeriod},
			}
			var generalSqrt, generalHalf float64
			for i, gr := range generalRules {
				t := core.NewTTP(bw)
				t.Rule = gr.rule
				e, err := est.EstimateContext(ctx, t, bw)
				if err != nil {
					return Report{}, err
				}
				fmt.Fprintf(&b, "  %-18s avg breakdown U = %.4f ±%.4f\n", gr.name, e.Mean, e.CI95)
				if i == 0 {
					generalSqrt = e.Mean
				} else {
					generalHalf = e.Mean
				}
			}

			rep := Report{ID: "CLAIM-TTRT", Title: "TTRT selection", Text: b.String(), Pass: true}
			rep.addValue("general_sqrt_rule", generalSqrt)
			rep.addValue("general_half_rule", generalHalf)
			if generalSqrt <= generalHalf {
				rep.Pass = false
				rep.notef("√(θ·Pmin) (%.4f) did not beat Pmin/2 (%.4f) on the general workload",
					generalSqrt, generalHalf)
			}
			rep.addValue("sqrt_rule_ttrt_ms", optimal*1e3)
			rep.addValue("empirical_best_ttrt_ms", bestTTRT*1e3)
			rep.addValue("breakdown_at_sqrt_rule", uAtSqrt)
			rep.addValue("breakdown_at_empirical_best", bestU)
			rep.addValue("breakdown_at_half_min_period", uAtHalf)

			// Accept when the √ rule achieves ≥ 97 % of the empirical
			// optimum and beats the naive Pmin/2 rule.
			if uAtSqrt < 0.97*bestU {
				rep.Pass = false
				rep.notef("√(θP) rule reached only %.4f vs empirical best %.4f", uAtSqrt, bestU)
			}
			if uAtSqrt <= uAtHalf {
				rep.Pass = false
				rep.notef("√(θP) rule (%.4f) did not beat Pmin/2 rule (%.4f)", uAtSqrt, uAtHalf)
			}
			rep.notef("√(θP)=%.3f ms achieves %.4f; empirical best %.4f at %.3f ms; Pmin/2 achieves %.4f",
				optimal*1e3, uAtSqrt, bestU, bestTTRT*1e3, uAtHalf)
			return rep, nil
		},
	}
}

func claimMinimumBreakdownTTP() Experiment {
	return Experiment{
		ID:    "CLAIM-33PCT",
		Title: "TTP with the local scheme guarantees ≈ 33 % utilization in the worst case",
		Run: func(ctx context.Context, cfg Config, obs progress.Progress) (Report, error) {
			cfg = cfg.withDefaults()
			// Adversarial construction: every period just below
			// (q+1)·TTRT keeps q_i = q token visits, so the local scheme
			// must reserve C_i/(q−1) while the message only contributes
			// C_i/P_i ≈ C_i/((q+1)·TTRT) to utilization. The ratio
			// (q−1)/(q+1) is worst at q = 2: breakdown → 1/3 as overheads
			// vanish.
			const (
				bw = 1000e6 // high bandwidth: overheads nearly vanish
				n  = 16
			)
			t := core.NewTTP(bw)
			t.Net = t.Net.WithStations(n)
			t.Rule = core.TTRTFixed

			var b strings.Builder
			fmt.Fprintf(&b, "adversarial equal-period sets, n=%d, bw=%.0f Mbps\n", n, bw/1e6)
			fmt.Fprintf(&b, "%6s %12s %12s %14s\n", "q", "P (ms)", "TTRT (ms)", "breakdown U")
			worst := math.Inf(1)
			for _, q := range []int{2, 3, 4, 6, 10} {
				if err := ctx.Err(); err != nil {
					return Report{}, err
				}
				const ttrt = 4e-3
				period := (float64(q+1) - 1e-6) * ttrt
				t.FixedTTRT = ttrt
				set := make(message.Set, n)
				for i := range set {
					set[i] = message.Stream{Period: period, LengthBits: 1}
				}
				sat, err := breakdown.Saturate(set, t, bw, breakdown.SaturateOptions{})
				if err != nil {
					return Report{}, err
				}
				u := 0.0
				if sat.Feasible {
					u = sat.Utilization
				}
				fmt.Fprintf(&b, "%6d %12.4f %12.4f %14.4f\n", q, period*1e3, ttrt*1e3, u)
				worst = math.Min(worst, u)
			}
			rep := Report{ID: "CLAIM-33PCT", Title: "TTP minimum breakdown utilization", Text: b.String(), Pass: true}
			rep.addValue("worst_breakdown", worst)
			// The worst case should sit near 1/3 (slightly above zero
			// overhead would give exactly (q−1)/(q+1) = 1/3 at q=2).
			if worst < 0.25 || worst > 0.40 {
				rep.Pass = false
				rep.notef("worst-case breakdown %.4f outside the ≈33%% band", worst)
			} else {
				rep.notef("worst-case breakdown utilization %.4f ≈ 1/3, matching the 33%% bound", worst)
			}
			return rep, nil
		},
	}
}

func baselineIdealRM() Experiment {
	return Experiment{
		ID:    "BASE-RM88",
		Title: "Ideal rate-monotonic average breakdown utilization ≈ 88 % (Lehoczky–Sha–Ding baseline)",
		Run: func(ctx context.Context, cfg Config, obs progress.Progress) (Report, error) {
			cfg = cfg.withDefaults()
			var b strings.Builder
			fmt.Fprintf(&b, "%6s %14s %12s\n", "n", "breakdown U", "±95%")
			rep := Report{ID: "BASE-RM88", Title: "Ideal RM baseline", Pass: true}
			for _, n := range []int{10, 30, 100} {
				// Lehoczky–Sha–Ding drew periods over a wide range (ratio
				// 100) with computation times independent of the periods;
				// that is the setting in which the ≈88 % figure holds.
				est := cfg.estimator(breakdown.Estimator{
					Generator: message.Generator{
						Streams:     n,
						MeanPeriod:  100e-3,
						PeriodRatio: 100,
						Lengths:     message.LengthsUniform,
					},
					Samples: cfg.Samples,
					Seed:    cfg.Seed,
				}, obs)
				// Bandwidth 1: LengthBits is the execution time (s).
				e, err := est.EstimateContext(ctx, core.IdealRM{}, 1)
				if err != nil {
					return Report{}, err
				}
				fmt.Fprintf(&b, "%6d %14.4f %12.4f\n", n, e.Mean, e.CI95)
				rep.addValue(fmt.Sprintf("breakdown_n%d", n), e.Mean)
				if n == 100 {
					if e.Mean < 0.84 || e.Mean > 0.93 {
						rep.Pass = false
						rep.notef("ideal RM breakdown at n=100 was %.4f, outside the ≈88%% band", e.Mean)
					} else {
						rep.notef("ideal RM breakdown at n=100 is %.4f ≈ 0.88, matching [10]", e.Mean)
					}
				}
			}
			rep.Text = b.String()
			return rep, nil
		},
	}
}
