// Package message models synchronous real-time message streams and message
// sets per Section 3.2 of Kamat & Zhao (ICDCS 1993): each station carries
// one periodic stream whose deadline is the end of its period.
//
// All times are in seconds; payload lengths are carried both in bits and as
// transmission time at a given bandwidth.
package message

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Errors returned by validation.
var (
	ErrEmptySet       = errors.New("message: set is empty")
	ErrBadPeriod      = errors.New("message: period must be positive")
	ErrBadLength      = errors.New("message: length must be positive")
	ErrLengthExceeds  = errors.New("message: length exceeds period (utilization > 1 per stream)")
	ErrBadBandwidth   = errors.New("message: bandwidth must be positive")
	ErrBadUtilization = errors.New("message: target utilization must be positive")
)

// Stream is one periodic synchronous message stream S_i. Period is P_i in
// seconds; LengthBits is C_i^b, the payload size per message in bits.
type Stream struct {
	// Name optionally identifies the stream in reports ("S3", "gyro", ...).
	Name string
	// Period is the constant inter-arrival time P_i in seconds. The
	// deadline of each message is the end of the period it arrives in.
	Period float64
	// LengthBits is the payload size C_i^b in bits per message.
	LengthBits float64
}

// Length is C_i, the payload transmission time at the given bandwidth.
func (s Stream) Length(bandwidthBPS float64) float64 {
	return s.LengthBits / bandwidthBPS
}

// Utilization is the fraction of medium time the stream needs for payload
// alone at the given bandwidth: C_i / P_i.
func (s Stream) Utilization(bandwidthBPS float64) float64 {
	return s.Length(bandwidthBPS) / s.Period
}

// Validate reports the first violated stream constraint, or nil.
func (s Stream) Validate() error {
	switch {
	case s.Period <= 0 || math.IsNaN(s.Period) || math.IsInf(s.Period, 0):
		return fmt.Errorf("%w: %v", ErrBadPeriod, s.Period)
	case s.LengthBits <= 0 || math.IsNaN(s.LengthBits) || math.IsInf(s.LengthBits, 0):
		return fmt.Errorf("%w: %v bits", ErrBadLength, s.LengthBits)
	}
	return nil
}

// Set is a synchronous message set M = {S_1, ..., S_n}. Sets are treated as
// values: functions that transform a Set return a new one.
type Set []Stream

// Clone returns a deep copy of the set.
func (m Set) Clone() Set {
	out := make(Set, len(m))
	copy(out, m)
	return out
}

// Validate reports the first invalid stream (wrapped with its index), or
// ErrEmptySet for an empty set.
func (m Set) Validate() error {
	if len(m) == 0 {
		return ErrEmptySet
	}
	for i, s := range m {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("stream %d: %w", i, err)
		}
	}
	return nil
}

// Utilization is U(M) = Σ C_i/P_i at the given bandwidth: the fraction of
// time the network spends transmitting synchronous payload.
func (m Set) Utilization(bandwidthBPS float64) float64 {
	var u float64
	for _, s := range m {
		u += s.Utilization(bandwidthBPS)
	}
	return u
}

// TotalBitsPerSecond is Σ C_i^b/P_i, the aggregate synchronous payload rate.
// Utilization(bw) == TotalBitsPerSecond()/bw; sweeps use this form to avoid
// recomputing per-bandwidth.
func (m Set) TotalBitsPerSecond() float64 {
	var r float64
	for _, s := range m {
		r += s.LengthBits / s.Period
	}
	return r
}

// MinPeriod returns the smallest period in the set. It panics on an empty
// set; callers validate first.
func (m Set) MinPeriod() float64 {
	p := math.Inf(1)
	for _, s := range m {
		if s.Period < p {
			p = s.Period
		}
	}
	return p
}

// MaxPeriod returns the largest period in the set.
func (m Set) MaxPeriod() float64 {
	p := math.Inf(-1)
	for _, s := range m {
		if s.Period > p {
			p = s.Period
		}
	}
	return p
}

// SortRM returns a copy of the set in rate-monotonic order: shortest period
// (highest priority) first. Ties are broken by original position, keeping
// the sort stable and deterministic.
func (m Set) SortRM() Set {
	out := m.Clone()
	slices.SortStableFunc(out, func(a, b Stream) int {
		switch {
		case a.Period < b.Period:
			return -1
		case a.Period > b.Period:
			return 1
		default:
			return 0
		}
	})
	return out
}

// Scale returns a copy of the set with every payload length multiplied by
// factor. The breakdown engine uses this to walk a set toward saturation.
func (m Set) Scale(factor float64) Set {
	out := m.Clone()
	for i := range out {
		out[i].LengthBits *= factor
	}
	return out
}

// ScaleToUtilization returns a copy of the set whose utilization at the
// given bandwidth equals target, preserving the relative length mix.
func (m Set) ScaleToUtilization(target, bandwidthBPS float64) (Set, error) {
	if target <= 0 {
		return nil, ErrBadUtilization
	}
	if bandwidthBPS <= 0 {
		return nil, ErrBadBandwidth
	}
	u := m.Utilization(bandwidthBPS)
	if u == 0 {
		return nil, ErrEmptySet
	}
	return m.Scale(target / u), nil
}
