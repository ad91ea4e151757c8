package sim

import (
	"errors"
	"math"
	"testing"
)

// modelEvent is one event of the reference model.
type modelEvent struct {
	time  float64
	state int // modelPending, modelFired or modelCanceled
	// spawn and cancel are what the event's handler does when it fires:
	// schedule a child spawn seconds later (spawn ≥ 0), and cancel the
	// event with index cancel (cancel ≥ 0).
	spawn  float64
	cancel int
}

const (
	modelPending = iota
	modelFired
	modelCanceled
)

// engineModel is the naive reference: every event ever scheduled, in
// scheduling order, with the next one found by a linear scan for the
// minimum (time, scheduling order).
type engineModel struct {
	events []modelEvent
	now    float64
	fired  int
}

func (m *engineModel) next() int {
	best := -1
	for i, e := range m.events {
		if e.state == modelPending && (best < 0 || e.time < m.events[best].time) {
			best = i
		}
	}
	return best
}

func (m *engineModel) pending() int {
	n := 0
	for _, e := range m.events {
		if e.state == modelPending {
			n++
		}
	}
	return n
}

// FuzzEngineSchedule decodes bytes into a sequence of At calls (with
// repeated times, invalid times, and handlers that schedule or cancel
// further events), Cancel calls on live, fired, canceled, recycled and
// zero handles, Step and RunUntil, and checks after every step that the
// firing order, Now, Fired and Pending match the naive model.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{0, 2, 0, 2, 0, 2, 4, 0, 3, 0, 4, 0, 5, 15})
	f.Add([]byte{8, 1, 0, 3, 3, 0, 1, 0, 3, 1, 0, 5, 5, 4, 3, 0, 3, 2})
	f.Add([]byte{2, 0, 2, 1, 2, 2, 0, 7, 5, 3, 2, 0, 0, 1, 4, 4})
	f.Add([]byte{41, 2, 16, 0, 0, 0, 4, 1, 0, 1, 3, 1, 3, 3, 5, 9, 0, 0, 3, 0, 4, 0})
	// Found by the fuzzer: a handler cancels an event whose hole is
	// filled by an entry that must sift up, not down.
	f.Add([]byte("000101000000000000A0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Engine
		var m engineModel
		var handles []Event

		var schedule func(at float64, spawn float64, cancel int)
		fire := func(id int) Handler {
			return func() {
				if want := m.next(); want != id {
					t.Fatalf("fired event %d at %g, model fires %d", id, g.Now(), want)
				}
				if g.Now() != m.events[id].time {
					t.Fatalf("event %d fired with Now = %g, scheduled for %g", id, g.Now(), m.events[id].time)
				}
				m.events[id].state = modelFired
				m.now = m.events[id].time
				m.fired++
				if s := m.events[id].spawn; s >= 0 {
					schedule(g.Now()+s, -1, -1)
				}
				if k := m.events[id].cancel; k >= 0 {
					g.Cancel(handles[k])
					if m.events[k].state == modelPending {
						m.events[k].state = modelCanceled
					}
				}
			}
		}
		schedule = func(at float64, spawn float64, cancel int) {
			id := len(m.events)
			ev, err := g.At(at, fire(id))
			if err != nil {
				t.Fatalf("At(%g) at Now = %g: %v", at, g.Now(), err)
			}
			if ev.Time() != at {
				t.Fatalf("handle time %g, scheduled for %g", ev.Time(), at)
			}
			m.events = append(m.events, modelEvent{time: at, spawn: spawn, cancel: cancel})
			handles = append(handles, ev)
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 6 {
			case 0, 1:
				// At, possibly with a handler that spawns a child or
				// cancels an earlier event when it fires.
				spawn, cancel := -1.0, -1
				switch op >> 3 & 3 {
				case 1:
					spawn = float64(op>>5) / 2
				case 2:
					if len(handles) > 0 {
						cancel = int(op>>5) % len(handles)
					}
				}
				schedule(g.Now()+float64(arg%8)/2, spawn, cancel)
			case 2:
				// At with a time the engine must reject, leaving it as it was.
				bad := [...]float64{g.Now() - 1 - float64(arg>>2), math.NaN(), math.Inf(1)}[arg%3]
				want := ErrBadTime
				if arg%3 == 0 {
					want = ErrPastEvent
				}
				if _, err := g.At(bad, func() { t.Fatal("rejected event fired") }); !errors.Is(err, want) {
					t.Fatalf("At(%g) at Now = %g: err %v, want %v", bad, g.Now(), err, want)
				}
			case 3:
				// Cancel any handle ever issued — or the zero Event.
				k := int(arg) % (len(handles) + 1)
				if k == len(handles) {
					g.Cancel(Event{})
					break
				}
				g.Cancel(handles[k])
				if m.events[k].state == modelPending {
					m.events[k].state = modelCanceled
				}
			case 4:
				want := m.next() >= 0
				if got := g.Step(); got != want {
					t.Fatalf("Step = %v with %d model events pending", got, m.pending())
				}
			case 5:
				horizon := g.Now() + float64(arg%16)/4
				g.RunUntil(horizon)
				if n := m.next(); n >= 0 && m.events[n].time <= horizon {
					t.Fatalf("RunUntil(%g) left event %d at %g unfired", horizon, n, m.events[n].time)
				}
				if m.pending() == 0 && m.now < horizon {
					m.now = horizon
				}
			}
			if g.Now() != m.now || g.Fired() != m.fired || g.Pending() != m.pending() {
				t.Fatalf("after op %d: Now/Fired/Pending = %g/%d/%d, model %g/%d/%d",
					i/2, g.Now(), g.Fired(), g.Pending(), m.now, m.fired, m.pending())
			}
		}
	})
}
