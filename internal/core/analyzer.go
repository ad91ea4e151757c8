// Package core implements the primary contribution of Kamat & Zhao (ICDCS
// 1993): exact schedulability criteria for hard-real-time synchronous
// message sets under the two token ring MAC protocols —
//
//   - the priority driven protocol (PDP) of IEEE 802.5 implementing
//     rate-monotonic scheduling, in both the standard and the modified
//     variant (Theorem 4.1), and
//   - the timed token protocol (TTP) of FDDI with the local synchronous
//     bandwidth allocation scheme and √(θ·Pmin) TTRT selection
//     (Theorem 5.1).
//
// Each analyzer answers "is this message set guaranteed?" for a fixed
// network plant, and produces a detailed per-stream report. Analyzers are
// pure: they never mutate the message set, and the same inputs always give
// the same answer.
package core

import "ringsched/internal/message"

// Analyzer decides whether a synchronous message set is schedulable — i.e.
// whether every message of every stream is guaranteed to finish before the
// end of the period it arrived in — under one protocol on one network
// plant.
//
// Implementations must be monotone in the message lengths: if a set is
// schedulable, any set obtained by shrinking payloads (same periods) must
// also be schedulable. The breakdown engine relies on this to binary-search
// the saturation point.
type Analyzer interface {
	// Name identifies the protocol/variant for reports ("IEEE 802.5",
	// "Modified 802.5", "FDDI").
	Name() string
	// Schedulable reports whether the message set is guaranteed. It
	// returns an error only for invalid inputs, never for "not
	// schedulable".
	Schedulable(m message.Set) (bool, error)
}

// Stations is the plant rule every single-ring verdict follows — the
// stateless analysis, the ring engine and each topology node alike: a
// plant of preset stations analyzing a set of n streams keeps its
// stations until the streams outnumber them, and then has one station
// per stream.
func Stations(preset, n int) int { return max(preset, n) }
