package sim

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	var g Engine
	var fired []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, tm := range times {
		tm := tm
		if _, err := g.At(tm, func() { fired = append(fired, tm) }); err != nil {
			t.Fatal(err)
		}
	}
	g.RunUntil(10)
	want := []float64{1, 2, 3, 4, 5}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
	if g.Now() != 10 {
		t.Errorf("Now = %v, want 10 (queue drained, clock advances to horizon)", g.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var g Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := g.At(1, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	g.RunUntil(2)
	for i, got := range order {
		if got != i {
			t.Fatalf("tie order = %v, want FIFO", order)
		}
	}
}

func TestScheduleFromHandler(t *testing.T) {
	var g Engine
	var trace []float64
	if _, err := g.At(1, func() {
		trace = append(trace, g.Now())
		if _, err := g.At(g.Now()+2, func() { trace = append(trace, g.Now()) }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	g.RunUntil(10)
	if len(trace) != 2 || trace[0] != 1 || trace[1] != 3 {
		t.Fatalf("trace = %v, want [1 3]", trace)
	}
}

func TestCancel(t *testing.T) {
	var g Engine
	fired := false
	ev, err := g.At(1, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	g.Cancel(ev)
	if g.Pending() != 0 {
		t.Errorf("Pending = %d after Cancel, want 0", g.Pending())
	}
	g.RunUntil(5)
	if fired {
		t.Error("canceled event fired")
	}
	// Double-cancel and zero-handle cancel are no-ops.
	g.Cancel(ev)
	g.Cancel(Event{})
	if g.Fired() != 0 || g.Pending() != 0 {
		t.Errorf("Fired/Pending = %d/%d after repeated Cancel, want 0/0", g.Fired(), g.Pending())
	}
}

func TestCancelOneOfMany(t *testing.T) {
	var g Engine
	var fired []int
	var events []Event
	for i := 0; i < 5; i++ {
		i := i
		ev, err := g.At(float64(i+1), func() { fired = append(fired, i) })
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	g.Cancel(events[2])
	g.RunUntil(10)
	want := []int{0, 1, 3, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

// TestStaleHandleOfReusedSlot checks that a handle whose event fired or was
// canceled cannot cancel the later event that reuses its slot.
func TestStaleHandleOfReusedSlot(t *testing.T) {
	var g Engine
	first, err := g.At(1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	g.Cancel(first)
	fired := 0
	second, err := g.At(2, func() { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	if second.slot != first.slot {
		t.Fatalf("second event took slot %d, want the freed slot %d", second.slot, first.slot)
	}
	g.Cancel(first)
	g.RunUntil(3)
	if fired != 1 {
		t.Fatalf("event in a reused slot fired %d times after a stale cancel, want 1", fired)
	}
	// The slot is free again and reused once more; the fired handle is
	// stale too.
	if _, err := g.At(4, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	g.Cancel(second)
	if g.Pending() != 1 {
		t.Fatalf("Pending = %d after a stale cancel, want 1", g.Pending())
	}
}

// TestCancelAmongManyPending cancels every other event out of a large
// pending set in scrambled order and checks that the rest fire in (time,
// seq) order.
func TestCancelAmongManyPending(t *testing.T) {
	const n = 1000
	var g Engine
	var fired []int
	events := make([]Event, n)
	for i := range events {
		i := i
		ev, err := g.At(float64((i*7919)%n/4), func() { fired = append(fired, i) })
		if err != nil {
			t.Fatal(err)
		}
		events[i] = ev
	}
	for k := 0; k < n; k++ {
		if i := (k * 389) % n; i%2 == 1 {
			g.Cancel(events[i])
		}
	}
	if g.Pending() != n/2 {
		t.Fatalf("Pending = %d, want %d", g.Pending(), n/2)
	}
	g.RunUntil(n)
	if len(fired) != n/2 {
		t.Fatalf("%d events fired, want %d", len(fired), n/2)
	}
	for k, i := range fired {
		if i%2 == 1 {
			t.Fatalf("canceled event %d fired", i)
		}
		if k > 0 {
			p := fired[k-1]
			if ti, tp := events[i].Time(), events[p].Time(); ti < tp || (ti == tp && i < p) {
				t.Fatalf("event %d (t=%g) fired after event %d (t=%g)", i, ti, p, tp)
			}
		}
	}
}

func TestPastAndInvalidTimes(t *testing.T) {
	var g Engine
	if _, err := g.At(5, func() {}); err != nil {
		t.Fatal(err)
	}
	g.RunUntil(10)
	if _, err := g.At(1, func() {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("past event: %v, want ErrPastEvent", err)
	}
	if _, err := g.At(math.NaN(), func() {}); !errors.Is(err, ErrBadTime) {
		t.Errorf("NaN: %v, want ErrBadTime", err)
	}
	if _, err := g.At(math.Inf(1), func() {}); !errors.Is(err, ErrBadTime) {
		t.Errorf("Inf: %v, want ErrBadTime", err)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	var g Engine
	fired := 0
	for _, tm := range []float64{1, 2, 3, 10, 20} {
		if _, err := g.At(tm, func() { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	g.RunUntil(5)
	if fired != 3 {
		t.Errorf("fired = %d, want 3 (events past horizon stay queued)", fired)
	}
	if g.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", g.Pending())
	}
	// Resume to a later horizon.
	g.RunUntil(50)
	if fired != 5 {
		t.Errorf("fired = %d, want 5 after resuming", fired)
	}
}

func TestRunUntilAdvancesClockWhenDrained(t *testing.T) {
	var g Engine
	g.RunUntil(7)
	if g.Now() != 7 {
		t.Errorf("Now = %v, want 7 when queue drained", g.Now())
	}
}

func TestStep(t *testing.T) {
	var g Engine
	if g.Step() {
		t.Error("Step on empty queue should return false")
	}
	n := 0
	if _, err := g.At(1, func() { n++ }); err != nil {
		t.Fatal(err)
	}
	if !g.Step() {
		t.Error("Step should fire the event")
	}
	if n != 1 || g.Fired() != 1 {
		t.Errorf("n=%d Fired=%d, want 1/1", n, g.Fired())
	}
}

func TestRandomizedOrderProperty(t *testing.T) {
	// Whatever order events are scheduled in, they fire sorted by time.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		var g Engine
		var fired []float64
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			tm := rng.Float64() * 100
			if _, err := g.At(tm, func() { fired = append(fired, g.Now()) }); err != nil {
				t.Fatal(err)
			}
		}
		g.RunUntil(101)
		if len(fired) != n {
			t.Fatalf("fired %d of %d", len(fired), n)
		}
		if !sort.Float64sAreSorted(fired) {
			t.Fatal("events fired out of order")
		}
	}
}

func TestEventTime(t *testing.T) {
	var g Engine
	ev, err := g.At(3.5, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Time() != 3.5 {
		t.Errorf("Time = %v, want 3.5", ev.Time())
	}
}
