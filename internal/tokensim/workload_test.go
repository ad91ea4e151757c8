package tokensim

import (
	"errors"
	"math/rand"
	"testing"

	"ringsched/internal/message"
)

func smallSet() message.Set {
	return message.Set{
		{Name: "a", Period: 10e-3, LengthBits: 1000},
		{Name: "b", Period: 30e-3, LengthBits: 2000},
	}
}

func TestNewWorkloadSynchronized(t *testing.T) {
	w, err := NewWorkload(smallSet(), 4, PhasingSynchronized, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range w.Offsets {
		if off != 0 {
			t.Errorf("offset[%d] = %v, want 0", i, off)
		}
	}
	if len(w.Streams) != 2 {
		t.Errorf("streams = %d, want 2", len(w.Streams))
	}
}

func TestNewWorkloadRandomPhases(t *testing.T) {
	set := smallSet()
	w, err := NewWorkload(set, 4, PhasingRandom, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range w.Offsets {
		if off < 0 || off >= set[i].Period {
			t.Errorf("offset[%d] = %v outside [0, %v)", i, off, set[i].Period)
		}
	}
	if _, err := NewWorkload(set, 4, PhasingRandom, nil); !errors.Is(err, ErrNilRandPhases) {
		t.Errorf("nil rng: %v, want ErrNilRandPhases", err)
	}
}

func TestNewWorkloadErrors(t *testing.T) {
	if _, err := NewWorkload(smallSet(), 1, PhasingSynchronized, nil); !errors.Is(err, ErrTooManyStreams) {
		t.Errorf("too many streams: %v, want ErrTooManyStreams", err)
	}
	if _, err := NewWorkload(nil, 4, PhasingSynchronized, nil); err == nil {
		t.Error("nil set accepted")
	}
}

func TestNewWorkloadClonesStreams(t *testing.T) {
	set := smallSet()
	w, err := NewWorkload(set, 4, PhasingSynchronized, nil)
	if err != nil {
		t.Fatal(err)
	}
	set[0].LengthBits = 999
	if w.Streams[0].LengthBits == 999 {
		t.Error("workload shares storage with the caller's set")
	}
}

func TestHopDistance(t *testing.T) {
	tests := []struct {
		a, b, n, want int
	}{
		{0, 0, 5, 0},
		{0, 3, 5, 3},
		{3, 0, 5, 2},
		{4, 0, 5, 1},
		{2, 2, 7, 0},
	}
	for _, tt := range tests {
		if got := hopDistance(tt.a, tt.b, tt.n); got != tt.want {
			t.Errorf("hopDistance(%d,%d,%d) = %d, want %d", tt.a, tt.b, tt.n, got, tt.want)
		}
	}
}

func TestStationStateReleaseAndFinish(t *testing.T) {
	st := &stationState{stream: message.Stream{Period: 10e-3, LengthBits: 100}}
	released := 0
	st.release(25e-3, func(pendingMessage) { released++ })
	if released != 3 {
		t.Errorf("onRelease called %d times, want 3", released)
	}
	if len(st.queue) != 3 {
		t.Fatalf("released %d messages by t=25ms, want 3 (t=0,10,20)", len(st.queue))
	}
	if st.queue[1].deadline != 20e-3 {
		t.Errorf("second deadline = %v, want 20ms", st.queue[1].deadline)
	}
	// Finish the first on time, the second late.
	st.finish(st.queue[0], 9e-3)
	st.finish(st.queue[1], 21e-3)
	if st.completed != 1 || st.missed != 1 {
		t.Errorf("completed/missed = %d/%d, want 1/1", st.completed, st.missed)
	}
	if diff := st.maxLateness - 1e-3; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("maxLateness = %v, want 1ms", st.maxLateness)
	}
}

func TestMaxQueueTracked(t *testing.T) {
	st := &stationState{stream: message.Stream{Period: 10e-3, LengthBits: 100}}
	st.release(35e-3, nil) // four instances pending at once
	if st.maxQueue != 4 {
		t.Errorf("maxQueue = %d, want 4", st.maxQueue)
	}
	st.finish(st.queue[0], 36e-3)
	st.queue = st.queue[1:]
	st.release(36e-3, nil)
	if st.maxQueue != 4 {
		t.Errorf("maxQueue = %d after draining, want 4 (high-water mark)", st.maxQueue)
	}
	results, _ := collectStations([]*stationState{st}, 1)
	if results[0].MaxQueue != 4 {
		t.Errorf("result MaxQueue = %d, want 4", results[0].MaxQueue)
	}
}

// TestStationQueueFIFO drives push and pop against a slice model through
// backlogs that grow and drain, and checks that a steady backlog reuses
// one backing array.
func TestStationQueueFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var st stationState
	var model []float64
	next := 0.0
	for step := 0; step < 20000; step++ {
		pushOdds := 1 // of 4; growing phases push three times in four
		if step/1000%2 == 0 {
			pushOdds = 3
		}
		if len(model) == 0 || rng.Intn(4) < pushOdds {
			st.push(pendingMessage{arrival: next})
			model = append(model, next)
			next++
		} else {
			if got := st.pop().arrival; got != model[0] {
				t.Fatalf("step %d: popped message %g, want %g", step, got, model[0])
			}
			model = model[1:]
		}
		if len(st.queue) != len(model) || (len(model) > 0 && st.queue[0].arrival != model[0]) {
			t.Fatalf("step %d: queue holds %d messages from %v, model %d", step, len(st.queue), st.queue, len(model))
		}
	}
	if st.maxQueue < 100 {
		t.Fatalf("maxQueue = %d: the backlog never grew", st.maxQueue)
	}

	st = stationState{}
	for i := 0; i < 3; i++ {
		st.push(pendingMessage{})
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			st.push(pendingMessage{})
			st.pop()
		}
	}); allocs != 0 {
		t.Errorf("a steady backlog of 3 allocated %.0f times per 100 messages", allocs)
	}
}

func TestHorizonFor(t *testing.T) {
	set := smallSet()
	if got := horizonFor(set, 20); got != 20*30e-3 {
		t.Errorf("horizonFor = %v, want 600ms", got)
	}
	// The 50×min floor dominates for tight ratios.
	tight := message.Set{{Period: 1e-3, LengthBits: 1}, {Period: 2e-3, LengthBits: 1}}
	if got := horizonFor(tight, 20); got != 50e-3 {
		t.Errorf("horizonFor = %v, want 50ms", got)
	}
}
