package sim

import (
	"context"
	"errors"
	"testing"
)

// chain schedules a self-rescheduling event every dt seconds, so the run
// only stops when the horizon, the context, or the event budget says so.
func chain(t *testing.T, g *Engine, dt float64) {
	t.Helper()
	var tick func()
	tick = func() {
		if _, err := g.At(g.Now()+dt, tick); err != nil {
			t.Errorf("reschedule: %v", err)
		}
	}
	if _, err := g.At(g.Now()+dt, tick); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilContextPreCanceled(t *testing.T) {
	var g Engine
	chain(t, &g, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := g.RunUntilContext(ctx, 1000, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The context is polled before the very first event fires.
	if g.Fired() != 0 {
		t.Errorf("fired %d events under a pre-canceled context, want 0", g.Fired())
	}
}

func TestRunUntilContextCancelMidRun(t *testing.T) {
	var g Engine
	chain(t, &g, 1)
	ctx, cancel := context.WithCancel(context.Background())
	fired := 0
	err := g.RunUntilContext(ctx, 1e9, RunOptions{
		CheckEvery: 10,
		OnAdvance: func(n int, _ float64) {
			fired = n
			if n >= 50 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation is detected within one CheckEvery window.
	if fired > 70 {
		t.Errorf("ran %d events past cancellation, want detection within a poll window", fired)
	}
}

func TestRunUntilContextMaxEvents(t *testing.T) {
	var g Engine
	chain(t, &g, 1)
	err := g.RunUntilContext(context.Background(), 1e9, RunOptions{MaxEvents: 25})
	if !errors.Is(err, ErrMaxEvents) {
		t.Fatalf("err = %v, want ErrMaxEvents", err)
	}
	if g.Fired() != 25 {
		t.Errorf("fired %d events, want exactly the 25-event budget", g.Fired())
	}
}

func TestRunUntilContextOnAdvanceFinalReport(t *testing.T) {
	var g Engine
	chain(t, &g, 1)
	var lastFired int
	var lastNow float64
	calls := 0
	err := g.RunUntilContext(context.Background(), 10.5, RunOptions{
		CheckEvery: 4,
		OnAdvance: func(fired int, now float64) {
			calls++
			lastFired, lastNow = fired, now
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("OnAdvance never called")
	}
	// Final report carries the complete run: 10 events fired (t=1..10),
	// clock parked at the last fired event.
	if lastFired != 10 || lastNow != 10 {
		t.Errorf("final OnAdvance = (%d, %g), want (10, 10)", lastFired, lastNow)
	}
}

func TestRunUntilContextNoBudgetMatchesRunUntil(t *testing.T) {
	var a, b Engine
	chain(t, &a, 1)
	chain(t, &b, 1)
	a.RunUntil(100)
	if err := b.RunUntilContext(context.Background(), 100, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if a.Fired() != b.Fired() || a.Now() != b.Now() {
		t.Errorf("RunUntilContext (%d events, t=%g) diverges from RunUntil (%d events, t=%g)",
			b.Fired(), b.Now(), a.Fired(), a.Now())
	}
}
