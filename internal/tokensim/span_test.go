package tokensim

import (
	"context"
	"testing"

	"ringsched/internal/progress"
	"ringsched/internal/trace"
)

// TestSimulatorSpansCountEvents checks that every simulator's span carries
// the events its run fired, as the progress observer's final report counts
// them.
func TestSimulatorSpansCountEvents(t *testing.T) {
	cases := map[string]goldenCase{}
	for _, c := range goldenCases(t) {
		cases[c.name] = c
	}
	for _, tc := range []struct {
		span, golden string
	}{
		{"sim.pdp", "pdp/Modified 802.5/measured/async/random/loss+crash"},
		{"sim.ttp", "ttp/async/loss+crash"},
		{"sim.reservation", "reservation/8-levels/async/loss+crash"},
		{"sim.topology", "topology/line"},
	} {
		sink := trace.NewRing(4)
		ctx := trace.WithTracer(context.Background(), trace.New(sink))
		events := 0
		obs := progress.Funcs{OnSimulatorAdvanced: func(n int, _ float64) { events = n }}
		c, ok := cases[tc.golden]
		if !ok {
			t.Fatalf("no golden case %q", tc.golden)
		}
		if _, err := c.run(ctx, nil, obs); err != nil {
			t.Fatalf("%s: %v", tc.span, err)
		}
		spans := sink.Snapshot()
		if len(spans) != 1 || spans[0].Name != tc.span {
			t.Fatalf("spans %+v, want one %s", spans, tc.span)
		}
		if got := spans[0].Attrs["events"]; got != events || events == 0 {
			t.Errorf("%s: events attribute %v, want %d", tc.span, got, events)
		}
	}
}
