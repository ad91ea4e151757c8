// Package frame models the framing substrate of Section 4.2: messages are
// divided into frames of a fixed maximum size, each carrying Finfo payload
// bits plus Fovhd overhead bits. The priority driven protocol approximates
// preemption at frame granularity, so its schedulability analysis is
// parameterized by the frame counts L_i and K_i defined here.
package frame

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by Spec.Validate.
var (
	ErrBadInfoBits = errors.New("frame: payload capacity must be positive")
	ErrBadOvhdBits = errors.New("frame: overhead must be non-negative")
)

// Paper constants (Section 6.2): 64-byte payloads with 112 overhead bits.
const (
	// PaperInfoBits is the 64-byte frame payload used in Figure 1.
	PaperInfoBits = 512.0
	// PaperOvhdBits is F_ovhd^b = 112 bits.
	PaperOvhdBits = 112.0
	// MaxPayloadBits bounds a payload the analysis can represent: it
	// counts frames of PaperInfoBits (2⁹) bits in an int, so 2⁶³ frames
	// is 2⁷² bits. At or past it the frame count wraps negative and the
	// analysis fails inside the kernel. /v1/analyze and /v1/rings refuse
	// such payloads up front.
	MaxPayloadBits = PaperInfoBits * (1 << 63)
)

// Spec describes the fixed frame format: payload capacity Finfo^b and
// per-frame overhead Fovhd^b, both in bits.
type Spec struct {
	InfoBits float64
	OvhdBits float64
}

// PaperSpec returns the frame format used throughout the paper's
// comparison: 64-byte payload, 112-bit overhead.
func PaperSpec() Spec {
	return Spec{InfoBits: PaperInfoBits, OvhdBits: PaperOvhdBits}
}

// Validate reports the first invalid field, or nil.
func (s Spec) Validate() error {
	switch {
	case s.InfoBits <= 0:
		return ErrBadInfoBits
	case s.OvhdBits < 0:
		return ErrBadOvhdBits
	}
	return nil
}

// TotalBits is F^b, the full frame length in bits.
func (s Spec) TotalBits() float64 { return s.InfoBits + s.OvhdBits }

// Time is F, the time to transmit one full frame at the given bandwidth.
func (s Spec) Time(bandwidthBPS float64) float64 {
	return s.TotalBits() / bandwidthBPS
}

// InfoTime is Finfo, the time to transmit a full frame's payload.
func (s Spec) InfoTime(bandwidthBPS float64) float64 {
	return s.InfoBits / bandwidthBPS
}

// OvhdTime is Fovhd, the time to transmit a frame's overhead bits.
func (s Spec) OvhdTime(bandwidthBPS float64) float64 {
	return s.OvhdBits / bandwidthBPS
}

// OverheadFraction is the fraction of a full frame spent on overhead,
// Fovhd/(Finfo+Fovhd). It is independent of bandwidth.
func (s Spec) OverheadFraction() float64 {
	return s.OvhdBits / s.TotalBits()
}

// Split reports how a message of lengthBits payload bits divides into
// frames: L = floor(len/Finfo) full frames and K = ceil(len/Finfo) total
// frames. K == L when the payload is an exact multiple of the frame
// capacity (all frames full); K == L+1 when the last frame is short.
func (s Spec) Split(lengthBits float64) (fullFrames, totalFrames int) {
	ratio := lengthBits / s.InfoBits
	l := int(math.Floor(ratio))
	k := int(math.Ceil(ratio))
	if k == 0 { // zero-length degenerate message still occupies one frame slot
		k = 1
	}
	return l, k
}

// LastFrameBits is the payload carried by the final frame of a message:
// lengthBits - L*InfoBits when the last frame is short, or InfoBits when
// every frame is full.
func (s Spec) LastFrameBits(lengthBits float64) float64 {
	l, k := s.Split(lengthBits)
	if k == l {
		return s.InfoBits
	}
	return lengthBits - float64(l)*s.InfoBits
}

// String implements fmt.Stringer.
func (s Spec) String() string {
	return fmt.Sprintf("frame{info=%gb ovhd=%gb}", s.InfoBits, s.OvhdBits)
}
