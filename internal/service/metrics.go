package service

import (
	"io"

	"ringsched/internal/promtext"
	"ringsched/internal/trace"
)

// The Prometheus text-format primitives the service uses (labeled
// counters, labeled latency histograms, callback gauges) live in
// internal/promtext so ringsched-lb can share them; the aliases below
// keep this package's call sites terse.

type (
	counterVec   = promtext.CounterVec
	histogramVec = promtext.HistogramVec
	gaugeFunc    = promtext.GaugeFunc
)

var (
	newCounterVec   = promtext.NewCounterVec
	newHistogramVec = promtext.NewHistogramVec
	labels          = promtext.Labels
)

// buildInfo renders the ringschedd_build_info gauge.
func buildInfo(w io.Writer) { promtext.BuildInfo(w, "ringschedd") }

// StageSink derives a stage-latency histogram from finished spans, so it
// and /debug/traces can never disagree: a span named in stageOf observes
// its duration in h under its stage label, rendered once here. It feeds
// ringschedd_stage_seconds and ringschedlb_stage_seconds alike.
func StageSink(h *promtext.HistogramVec, stageOf map[string]string) trace.Sink {
	labelOf := make(map[string]string, len(stageOf))
	for span, stage := range stageOf {
		labelOf[span] = labels("stage", stage)
	}
	return trace.SinkFunc(func(f trace.Finished) {
		if l, ok := labelOf[f.Name]; ok {
			h.Observe(l, f.DurationUS()/1e6)
		}
	})
}
