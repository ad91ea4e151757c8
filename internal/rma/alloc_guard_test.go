package rma

import (
	"context"
	"testing"

	"ringsched/internal/trace"
)

// TestKernelHotPathZeroAllocs pins the workspace probe loop at 0 allocs/op
// as a plain test, so the allocation property gates every `go test` run and
// not only the benchmark harness. The loop body is the saturation search's
// inner step — ScaleCosts + Schedulable — executed with tracing
// disabled, exactly as the Monte Carlo workers run it: trace.Start on a
// span-less context must stay on its nil-span fast path and add nothing.
func TestKernelHotPathZeroAllocs(t *testing.T) {
	ts := benchTaskSet(100, 0.88, 1)
	var ws Workspace
	if err := ws.Load(ts); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		_, sp := trace.Start(ctx, "kernel.probe")
		ws.ScaleCosts(benchScales[k%len(benchScales)])
		k++
		if _, err := ws.Schedulable(1e-4); err != nil {
			t.Fatal(err)
		}
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("kernel hot path with tracing disabled allocates: %v allocs/op", allocs)
	}
}

// TestWorkspaceCounters checks the kernel telemetry: counters reset on
// Load, tally the probes, and record every bracket inference the
// saturation search relies on.
func TestWorkspaceCounters(t *testing.T) {
	ts := benchTaskSet(40, 0.85, 7)
	var ws Workspace
	if err := ws.Load(ts); err != nil {
		t.Fatal(err)
	}
	if got := ws.Counters(); got != (Counters{}) {
		t.Fatalf("counters not zero after Load: %+v", got)
	}

	// The bench ladder, then a probe below its last pass (0.9).
	ladder := append(append([]float64(nil), benchScales...), 0.7)
	for _, scale := range ladder {
		ws.ScaleCosts(scale)
		if _, err := ws.Schedulable(1e-4); err != nil {
			t.Fatal(err)
		}
	}

	c := ws.Counters()
	if c.Schedulable != len(ladder) {
		t.Errorf("Schedulable = %d, want %d", c.Schedulable, len(ladder))
	}
	// Passes and failures alternate around the threshold, so every
	// inference must have fired: 0.7 sits below the last pass, 1.2 above
	// a failure, the probes between a pass and a failure skip the tasks
	// the failure proved and warm-start the rest.
	for name, n := range map[string]int{
		"DominancePasses": c.DominancePasses,
		"DominanceFails":  c.DominanceFails,
		"KnownSkips":      c.KnownSkips,
		"WarmStarts":      c.WarmStarts,
	} {
		if n == 0 {
			t.Errorf("%s never counted across the probe ladder: %+v", name, c)
		}
	}
	if c.TaskEvals == 0 || c.Iterations < c.WarmStarts {
		t.Errorf("TaskEvals=%d Iterations=%d WarmStarts=%d: evaluations not counted",
			c.TaskEvals, c.Iterations, c.WarmStarts)
	}

	if err := ws.Load(ts); err != nil {
		t.Fatal(err)
	}
	if got := ws.Counters(); got != (Counters{}) {
		t.Fatalf("counters survive reload: %+v", got)
	}
}
