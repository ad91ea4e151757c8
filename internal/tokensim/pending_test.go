package tokensim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ringsched/internal/faults"
	"ringsched/internal/frame"
	"ringsched/internal/message"
	"ringsched/internal/ring"
)

// The station scans the simulators ran before the pending set and the
// arrival heap, kept as reference oracles.

// scanFirstUp is PDPSim's station scan: the station with the highest
// rate-monotonic priority pending frame — shortest period, ties by station
// index — that is not crashed, or -1.
func scanFirstUp(h *harness, now float64) int {
	best := -1
	for i, st := range h.syncs {
		if len(st.queue) == 0 || h.inj.Down(i, now) {
			continue
		}
		if best == -1 || st.stream.Period < h.syncs[best].stream.Period {
			best = i
		}
	}
	return best
}

// scanPending counts the stations with a queued message.
func scanPending(h *harness) int {
	n := 0
	for _, st := range h.syncs {
		if len(st.queue) > 0 {
			n++
		}
	}
	return n
}

// scanHighestPendingOnRing is the reservation MAC's scan for the highest
// pending priority across all stations.
func scanHighestPendingOnRing(r *resRun) int {
	best := noPending
	for i := range r.stations {
		if p := r.topPending(i); p > best {
			best = p
		}
	}
	return best
}

// scanReservations is the reservation MAC's loop that wrote the new
// token's reservation field after station idx's frame: every other
// station in index order, each raising the field traced as a bid.
func scanReservations(r *resRun, idx int, now float64) (int, []TraceEvent) {
	reserved := noPending
	var bids []TraceEvent
	for i := range r.stations {
		if i == idx {
			continue
		}
		if q := r.topPending(i); q > reserved {
			reserved = q
			bids = append(bids, TraceEvent{Time: now, Kind: TraceReserve, Station: i, Detail: float64(q)})
		}
	}
	return reserved, bids
}

// scanPriorities is the reservation MAC's level assignment: a stable
// insertion sort of the streams by period, partitioned into rate groups.
func scanPriorities(periods []float64, levels int) []int {
	order := make([]int, len(periods))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && periods[order[j]] < periods[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	if levels == 0 || levels > len(order) {
		levels = len(order)
	}
	perLevel := (len(order) + levels - 1) / levels
	prio := make([]int, len(order))
	for rank, i := range order {
		prio[i] = levels - rank/perLevel
	}
	return prio
}

// sweepArrivals returns the arrival events a release sweep over every
// station at now would trace, in order, without releasing anything.
func sweepArrivals(h *harness, now float64) []TraceEvent {
	var out []TraceEvent
	for i, st := range h.syncs {
		for at := st.nextArrival; at <= now; at += st.stream.Period {
			out = append(out, TraceEvent{Time: at, Kind: TraceArrival, Station: i})
		}
	}
	return out
}

// TestRankSetMatchesModel drives the set through random additions and
// removals at sizes on either side of every word and level boundary up
// to three levels, comparing membership, size and every next query with
// a plain array.
func TestRankSetMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 1000, 4095, 4096, 4097, 8193} {
		s := newRankSet(n)
		model := make([]bool, n)
		size := 0
		for op := 0; op < 4*n+64; op++ {
			r := rng.Intn(n)
			if op%3 == 0 {
				// Clustered at the ends and at a word boundary.
				r = []int{0, n - 1, min(64, n-1), min(4096, n-1)}[rng.Intn(4)]
			}
			if model[r] {
				s.remove(r)
				size--
			} else {
				s.add(r)
				size++
			}
			model[r] = !model[r]
			if s.size != size {
				t.Fatalf("n=%d: size %d, want %d", n, s.size, size)
			}
			q := rng.Intn(n + 2)
			want := -1
			for k := q; k < n; k++ {
				if model[k] {
					want = k
					break
				}
			}
			if got := s.next(q); got != want {
				t.Fatalf("n=%d after %d ops: next(%d) = %d, want %d", n, op+1, q, got, want)
			}
		}
		var members []int
		for k := s.next(0); k >= 0; k = s.next(k + 1) {
			members = append(members, k)
		}
		var want []int
		for k, in := range model {
			if in {
				want = append(want, k)
			}
		}
		if !slices.Equal(members, want) {
			t.Fatalf("n=%d: walk %v, want %v", n, members, want)
		}
	}
}

// FuzzPendingSet holds the pending set and the arrival heap to the station
// scans. One reservation run is built, never started, on 1..1100 stations
// with up to one stream each, drawn from few enough periods that ties are
// common, optionally with saturated asynchronous traffic and with crashes
// holding about a third of the stations down. The ops advance the clock
// and release what is due, inject messages, complete head-of-queue
// messages and ask for the new token's reservations; after each one,
// PDPSim's pick, the pending count and the highest pending priority must
// equal the scans' answers, every release must trace the sweep's arrival
// events in the sweep's order, and every reservation must return the
// scan's field and trace its bids.
func FuzzPendingSet(f *testing.F) {
	// stations, streams, distinct periods, levels, flags (bit 0: saturated
	// asynchronous traffic; bit 1: crashes), seed, ops.
	f.Add(uint16(20), uint16(12), uint8(6), uint8(8), uint8(1), int64(1), []byte("\x10\x03\x07\x0b\x01\x02\x03\x40\x03"))
	f.Add(uint16(1), uint16(1), uint8(1), uint8(0), uint8(0), int64(2), []byte("\x00\x04\x01\x03\x02\x03"))
	f.Add(uint16(65), uint16(65), uint8(1), uint8(0), uint8(3), int64(3), []byte("\x80\x03\x05\x09\x0d\x02\x06\x03\x04"))
	f.Add(uint16(64), uint16(40), uint8(3), uint8(3), uint8(2), int64(4), []byte("\xff\x03\x02\x02\x03\x01\x03"))
	f.Add(uint16(1099), uint16(1099), uint8(40), uint8(8), uint8(3), int64(5), []byte("\x00\x03\x02\x03\x02\x03\xfc\x03\x02\x03"))
	f.Add(uint16(1000), uint16(700), uint8(200), uint8(0), uint8(1), int64(6), []byte("\x40\x41\x42\x43\x03\x02\x03\x02\x03"))
	f.Add(uint16(300), uint16(300), uint8(8), uint8(4), uint8(2), int64(7),
		[]byte("\xfc\xfc\xfc\xfc\xfc\xfc\xfc\xfc\xfc\xfc\x02\x06\xfc\xfc\xfc\xfc\xfc\xfc\xfc\xfc\xfc\xfc\x03\x0a\x0e\x12"))
	f.Fuzz(func(t *testing.T, stations, streams uint16, periods, levels, flags uint8, seed int64, ops []byte) {
		n := 1 + int(stations)%1100
		m := 1 + int(streams)%n
		rng := rand.New(rand.NewSource(seed))
		set := make(message.Set, m)
		offsets := make([]float64, m)
		distinct := 1 + int(periods)%64
		for i := range set {
			p := float64(1+rng.Intn(distinct)) * 1e-3
			set[i] = message.Stream{Name: fmt.Sprintf("f%d", i), Period: p, LengthBits: 1000}
			offsets[i] = rng.Float64() * p
			if rng.Intn(16) == 0 {
				offsets[i] = math.Inf(1) // a transit stream: injected messages only
			}
		}
		cfg := ReservationSim{
			Net: ring.IEEE8025(16e6).WithStations(n), Frame: frame.PaperSpec(),
			Workload:       Workload{Streams: set, Offsets: offsets},
			PriorityLevels: int(levels) % (m + 2), AsyncSaturated: flags&1 != 0, Horizon: 0.2,
		}
		if flags&2 != 0 {
			cfg.Faults = &faults.Model{Seed: seed, Crash: faults.Crash{Rate: 200, MeanDowntime: 2e-3}}
		}
		r, err := newResRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var traced []TraceEvent
		r.tracer = TracerFunc(func(e TraceEvent) { traced = append(traced, e) })

		periodsOf := make([]float64, m)
		for i, s := range set {
			periodsOf[i] = s.Period
		}
		for i, want := range scanPriorities(periodsOf, cfg.PriorityLevels) {
			if got := r.stations[i].priority; got != want {
				t.Fatalf("station %d: priority %d, want %d", i, got, want)
			}
		}

		now := 0.0
		if len(ops) > 256 {
			ops = ops[:256]
		}
		for step, b := range ops {
			switch b % 4 {
			case 0: // advance the clock and release what is due
				now += float64(b/4) * 1e-5
				want := sweepArrivals(&r.harness, now)
				traced = traced[:0]
				r.releaseDue(now)
				if !slices.Equal(traced, want) {
					t.Fatalf("step %d: release at %g traced %v, want %v", step, now, traced, want)
				}
				next := math.Inf(1)
				for _, st := range r.syncs {
					next = math.Min(next, st.nextArrival)
				}
				if r.nextDue != next {
					t.Fatalf("step %d: nextDue %g, want %g", step, r.nextDue, next)
				}
			case 1: // a bridged hand-off
				i := int(b/4) % m
				r.inject(i, pendingMessage{arrival: now, deadline: now + set[i].Period, remainingBits: 1000})
			case 2: // complete a head-of-queue message
				i := int(b/4) % m
				for k := 0; k < m && len(r.syncs[i].queue) == 0; k++ {
					i = (i + 1) % m
				}
				if len(r.syncs[i].queue) > 0 {
					r.finishMessage(i, now)
				}
			case 3: // the new token after station idx's frame
				idx := (int(b/4)*131 + rng.Intn(n)) % n
				wantField, wantBids := scanReservations(r, idx, now)
				traced = traced[:0]
				if got := r.reservations(idx, now); got != wantField || !slices.Equal(traced, wantBids) {
					t.Fatalf("step %d: reservations after station %d's frame = %d bidding %v, want %d bidding %v",
						step, idx, got, traced, wantField, wantBids)
				}
			}
			if got, want := r.firstUp(now), scanFirstUp(&r.harness, now); got != want {
				t.Fatalf("step %d: PDP pick at %g = %d, want %d", step, now, got, want)
			}
			if got, want := r.pending.size, scanPending(&r.harness); got != want {
				t.Fatalf("step %d: %d pending, want %d", step, got, want)
			}
			if got, want := r.highestPendingOnRing(), scanHighestPendingOnRing(r); got != want {
				t.Fatalf("step %d: highest pending priority %d, want %d", step, got, want)
			}
		}
	})
}
