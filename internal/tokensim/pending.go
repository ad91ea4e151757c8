package tokensim

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// rankLevels bounds the depth of a rankSet: 64⁶ = 2³⁶ ranks, past any
// int32 rank.
const rankLevels = 6

// rankSet is a set of the ranks 0..n-1, kept as a 64-ary tree of bit
// words: level 0 holds one bit per rank, and each level above holds one
// bit per word of the level below that is not zero, up to a level of one
// word. Adding a rank, removing one and finding the least member at or
// past a rank each touch at most one word per level: ⌈log₆₄ n⌉ words, one
// up to 64 ranks and two up to 4096.
type rankSet struct {
	// words holds the levels, level 0 first; level l is
	// words[base[l]:base[l+1]].
	words  []uint64
	base   [rankLevels + 1]int
	levels int
	// size is the number of members.
	size int
}

// newRankSet returns an empty set of the ranks 0..n-1.
func newRankSet(n int) rankSet {
	var s rankSet
	for w := max(n, 1); ; {
		w = (w + 63) >> 6
		s.base[s.levels+1] = s.base[s.levels] + w
		s.levels++
		if w == 1 {
			break
		}
	}
	s.words = make([]uint64, s.base[s.levels])
	return s
}

// add inserts rank r, which must not be a member.
func (s *rankSet) add(r int) {
	s.size++
	for l := 0; l < s.levels; l++ {
		w := &s.words[s.base[l]+r>>6]
		was := *w
		*w |= 1 << (r & 63)
		if was != 0 {
			return
		}
		r >>= 6
	}
}

// remove deletes rank r, which must be a member.
func (s *rankSet) remove(r int) {
	s.size--
	for l := 0; l < s.levels; l++ {
		w := &s.words[s.base[l]+r>>6]
		*w &^= 1 << (r & 63)
		if *w != 0 {
			return
		}
		r >>= 6
	}
}

// next returns the least member at or past rank r, or -1 when there is
// none. It climbs from level 0 until a word holds a bit at or past r's
// position on that level, then descends along the least set bits.
func (s *rankSet) next(r int) int {
	l := 0
	for {
		i := s.base[l] + r>>6
		if i >= s.base[l+1] {
			return -1
		}
		if w := s.words[i] >> (r & 63); w != 0 {
			r += bits.TrailingZeros64(w)
			break
		}
		if l++; l == s.levels {
			return -1
		}
		r = r>>6 + 1
	}
	for ; l > 0; l-- {
		r = r<<6 + bits.TrailingZeros64(s.words[s.base[l-1]+r])
	}
	return r
}

// arrival is one station's entry in the arrival heap: the time of its
// next release as a key, the bits of the float64 with the sign cleared.
// Release times are never negative or NaN, and on such floats the keys
// order as the values do; they also lie far enough below 2⁶³ that the
// difference of two never overflows, so its sign bit compares them
// without a branch.
type arrival struct {
	at      int64
	station int32
}

func timeKey(t float64) int64 { return int64(math.Float64bits(t) &^ (1 << 63)) }

// heapDown restores the order of a, a 4-ary min-heap on release times
// (the children of a[i] are a[4i+1..4i+4]), after a[i] grew. Four
// children halve a binary heap's depth, and the least of them is found by
// comparisons that do not depend on each other.
func heapDown(a []arrival, i int) {
	e := a[i]
	for {
		c := 4*i + 1
		if c >= len(a) {
			break
		}
		m := c
		if c+3 < len(a) {
			kids := a[c : c+4 : c+4]
			// The lesser of each pair, then of the two, by the sign bits
			// of differences.
			dl, dr := kids[1].at-kids[0].at, kids[3].at-kids[2].at
			l, r := int(uint64(dl)>>63), 2+int(uint64(dr)>>63)
			lmin, rmin := kids[0].at+dl&(dl>>63), kids[2].at+dr&(dr>>63)
			m += l + (r-l)*int(uint64(rmin-lmin)>>63)
		} else {
			for j := c + 1; j < len(a); j++ {
				if a[j].at < a[m].at {
					m = j
				}
			}
		}
		if e.at <= a[m].at {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = e
}

// arbitrate builds the indexes of the MACs that pick among pending
// stations — PDP and the reservation MAC; TTP, which visits the stations
// in ring order, builds none. It ranks the stations rate-monotonically
// (by period, ties by station index), empties the pending set and heaps
// the first arrivals.
func (h *harness) arbitrate() {
	m := len(h.syncs)
	ranks := make([]int32, 3*m)
	h.rank, h.byRank, h.due = ranks[:m:m], ranks[m:2*m:2*m], ranks[2*m:2*m]
	h.pending, h.dueSet = newRankSet(m), newRankSet(m)
	// The heap's array first sorts the stations by period, whose keys
	// order as the periods do.
	a := make([]arrival, m)
	for i, st := range h.syncs {
		a[i] = arrival{at: timeKey(st.stream.Period), station: int32(i)}
	}
	slices.SortFunc(a, func(x, y arrival) int {
		if x.at != y.at {
			return cmp.Compare(x.at, y.at)
		}
		return int(x.station - y.station)
	})
	for r, e := range a {
		h.byRank[r], h.rank[e.station] = e.station, int32(r)
	}
	for i, st := range h.syncs {
		a[i] = arrival{at: timeKey(st.nextArrival), station: int32(i)}
	}
	h.arrivals = a
	for i := (m - 2) / 4; i >= 0; i-- {
		heapDown(h.arrivals, i)
	}
	h.nextDue = math.Float64frombits(uint64(h.arrivals[0].at))
}

// queued and drained keep the pending set as station idx's queue turns
// non-empty and empty. TTP ranks no stations and keeps no set.
func (h *harness) queued(idx int) {
	if h.rank != nil {
		h.pending.add(int(h.rank[idx]))
	}
}

func (h *harness) drained(idx int) {
	if h.rank != nil {
		h.pending.remove(int(h.rank[idx]))
	}
}

// releaseDue releases every station's messages due by now. Only release
// moves a station's next arrival, so while the clock is below nextDue,
// the earliest of them, nothing is due; the check inlines into the
// handlers.
func (h *harness) releaseDue(now float64) {
	if now >= h.nextDue {
		h.releaseArrivals(now)
	}
}

// releaseArrivals releases the stations due by now. Their heap entries
// form a subtree at the root, which a breadth-first walk lists in
// ascending heap position; the due set orders their stations, which are
// released in ascending station index, so that arrival trace events come
// in the order a sweep over the stations would give them. Each entry then
// takes its station's next arrival, a later time, and sinks into place,
// the deepest first.
func (h *harness) releaseArrivals(now float64) {
	a, key, due := h.arrivals, timeKey(now), h.due[:0]
	if a[0].at <= key {
		due = append(due, 0)
	}
	for j := 0; j < len(due); j++ {
		c := 4*int(due[j]) + 1
		for q := c; q < min(c+4, len(a)); q++ {
			if a[q].at <= key {
				due = append(due, int32(q))
			}
		}
	}
	for _, p := range due {
		h.dueSet.add(int(a[p].station))
	}
	for i := h.dueSet.next(0); i >= 0; i = h.dueSet.next(i + 1) {
		h.dueSet.remove(i)
		h.release(i, now)
	}
	for j := len(due) - 1; j >= 0; j-- {
		p := int(due[j])
		a[p].at = timeKey(h.syncs[a[p].station].nextArrival)
		heapDown(a, p)
	}
	h.due = due
	h.nextDue = math.Float64frombits(uint64(a[0].at))
}

// firstUp returns the pending station of least rank that the fault
// injector does not report down at now, or -1: the station whose frame
// the rate-monotonic order serves next. A crashed station's queue waits
// for its restart.
func (h *harness) firstUp(now float64) int {
	for k := h.pending.next(0); k >= 0; k = h.pending.next(k + 1) {
		if i := int(h.byRank[k]); h.inj == nil || !h.inj.Down(i, now) {
			return i
		}
	}
	return -1
}
