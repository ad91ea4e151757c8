// Package sim is a minimal deterministic discrete-event simulation engine:
// a priority queue of timestamped events with stable FIFO ordering among
// simultaneous events, a simulation clock, and cancellation.
//
// The engine keeps events by value in its own (time, seq) binary heap, so
// scheduling and firing an event allocate nothing once the heap has grown
// to the run's peak of pending events. A caller that binds its handlers
// once and reschedules them runs the whole event loop without heap
// allocations.
//
// The token-ring simulators in internal/tokensim are built on it; they are
// the operational counterpart used to validate the analytical
// schedulability criteria.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Errors returned by the engine.
var (
	ErrPastEvent = errors.New("sim: cannot schedule an event in the past")
	ErrBadTime   = errors.New("sim: event time must be finite")
	// ErrMaxEvents reports that a run exhausted its event budget before the
	// horizon — the runaway guard for event loops that keep rescheduling
	// themselves.
	ErrMaxEvents = errors.New("sim: event budget exhausted")
)

// Handler is the code run when an event fires. It executes at the event's
// timestamp; Engine.Now() inside a handler returns that time.
type Handler func()

// Event is the cancel handle of one scheduled event, returned by
// Engine.At: a small value naming the engine slot that tracks the event
// while it is pending, plus the event's time and sequence number. A slot
// is reused once its event fires or is canceled, but sequence numbers are
// unique per engine and never reused, so a handle whose event fired or was
// canceled matches nothing, whatever the slot holds since. The zero Event
// names no event.
type Event struct {
	time float64
	seq  uint64
	slot uint32 // index into Engine.slots plus one; 0 in the zero Event
}

// Time returns the simulation time at which the event fires.
func (e Event) Time() float64 { return e.time }

// entry is one pending event in the heap.
type entry struct {
	time float64
	seq  uint64
	fn   Handler
	slot uint32
}

// before orders entries by (time, seq): earliest first, FIFO among ties.
func before(a, b *entry) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// slot tracks one pending event for Cancel: its sequence number (0 while
// the slot is free) and its current heap index.
type slot struct {
	seq uint64
	at  int
}

// Engine is the simulation core. The zero value is ready to use and starts
// at time 0.
type Engine struct {
	now   float64
	seq   uint64
	fired int
	// heap is a binary min-heap of pending events on (time, seq).
	heap []entry
	// slots holds one slot per pending event, kept at the event's heap
	// index as it moves; free lists the slots not in use.
	slots []slot
	free  []uint32
}

// Now returns the current simulation time.
func (g *Engine) Now() float64 { return g.now }

// Fired returns the number of events processed so far.
func (g *Engine) Fired() int { return g.fired }

// Pending returns the number of events currently scheduled.
func (g *Engine) Pending() int { return len(g.heap) }

// At schedules fn at absolute time t and returns its cancel handle.
// Events at equal times fire in the order they were scheduled.
func (g *Engine) At(t float64, fn Handler) (Event, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return Event{}, ErrBadTime
	}
	if t < g.now {
		return Event{}, ErrPastEvent
	}
	var s uint32
	if n := len(g.free); n > 0 {
		s = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		s = uint32(len(g.slots))
		g.slots = append(g.slots, slot{})
	}
	g.seq++
	g.slots[s].seq = g.seq
	g.heap = append(g.heap, entry{time: t, seq: g.seq, fn: fn, slot: s})
	g.up(len(g.heap) - 1)
	return Event{time: t, seq: g.seq, slot: s + 1}, nil
}

// Cancel removes a scheduled event in O(log n). Canceling the zero Event,
// or an event that already fired or was already canceled, is a no-op.
func (g *Engine) Cancel(ev Event) {
	if ev.slot == 0 || int(ev.slot) > len(g.slots) {
		return
	}
	if s := g.slots[ev.slot-1]; s.seq == ev.seq {
		g.remove(s.at)
	}
}

// Step fires the earliest pending event and returns true, or returns false
// if no events remain.
func (g *Engine) Step() bool {
	if len(g.heap) == 0 {
		return false
	}
	e := g.remove(0)
	g.now = e.time
	g.fired++
	e.fn()
	return true
}

// remove takes the entry at heap index i out of the heap and frees its
// slot. The entry moved into the hole may belong above or below it, so it
// is sifted both ways.
func (g *Engine) remove(i int) entry {
	e := g.heap[i]
	g.slots[e.slot].seq = 0
	g.free = append(g.free, e.slot)
	last := len(g.heap) - 1
	g.heap[i] = g.heap[last]
	g.heap[last] = entry{} // drop the handler reference
	g.heap = g.heap[:last]
	if i < last && !g.down(i) {
		g.up(i)
	}
	return e
}

// place puts e at heap index i and records the index in its slot.
func (g *Engine) place(i int, e entry) {
	g.heap[i] = e
	g.slots[e.slot].at = i
}

// up sifts the entry at index i towards the root.
func (g *Engine) up(i int) {
	e := g.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !before(&e, &g.heap[p]) {
			break
		}
		g.place(i, g.heap[p])
		i = p
	}
	g.place(i, e)
}

// down sifts the entry at index i towards the leaves and reports whether
// it moved.
func (g *Engine) down(i int) bool {
	e := g.heap[i]
	start := i
	for {
		c := 2*i + 1
		if c >= len(g.heap) {
			break
		}
		if r := c + 1; r < len(g.heap) && before(&g.heap[r], &g.heap[c]) {
			c = r
		}
		if !before(&g.heap[c], &e) {
			break
		}
		g.place(i, g.heap[c])
		i = c
	}
	g.place(i, e)
	return i > start
}

// RunUntil fires events in order until the queue drains or the next event
// would fire strictly after horizon. The clock is left at the last fired
// event (or horizon if that is later and the queue drained).
func (g *Engine) RunUntil(horizon float64) {
	// Uncancelable and unbounded, so no error can occur.
	_ = g.RunUntilContext(context.Background(), horizon, RunOptions{})
}

// RunOptions tunes a context-aware engine run.
type RunOptions struct {
	// CheckEvery is the number of fired events between context polls and
	// OnAdvance callbacks (default 1024). Smaller values cancel faster but
	// add per-event overhead.
	CheckEvery int
	// MaxEvents bounds the events fired by this call; 0 means unlimited.
	// Exceeding the budget aborts the run with ErrMaxEvents — the guard
	// against handler chains that reschedule themselves forever.
	MaxEvents int
	// OnAdvance, when non-nil, observes loop progress: it is called every
	// CheckEvery events and once when the run stops, with the events fired
	// by this call and the current simulation time.
	OnAdvance func(fired int, now float64)
}

// RunUntilContext is RunUntil with cancellation, an event budget, and a
// progress callback. It fires events in order until the queue drains, the
// next event would fire strictly after horizon, ctx is canceled (polled
// every CheckEvery events), or MaxEvents events have fired. It returns
// ctx.Err() on cancellation, ErrMaxEvents on budget exhaustion, and nil
// otherwise. The clock is left at the last fired event (or horizon if that
// is later and the queue drained).
func (g *Engine) RunUntilContext(ctx context.Context, horizon float64, opts RunOptions) error {
	every := opts.CheckEvery
	if every <= 0 {
		every = 1024
	}
	fired, poll := 0, 0 // poll is the fired count of the next context poll
	report := func() {
		if opts.OnAdvance != nil {
			opts.OnAdvance(fired, g.now)
		}
	}
	for {
		if len(g.heap) == 0 {
			if g.now < horizon {
				g.now = horizon
			}
			report()
			return nil
		}
		if g.heap[0].time > horizon {
			report()
			return nil
		}
		if fired == poll {
			poll += every
			if err := ctx.Err(); err != nil {
				report()
				return err
			}
			if fired > 0 {
				report()
			}
		}
		if opts.MaxEvents > 0 && fired >= opts.MaxEvents {
			report()
			return fmt.Errorf("%w: %d events fired before t=%g of horizon %g",
				ErrMaxEvents, fired, g.now, horizon)
		}
		g.Step()
		fired++
	}
}
