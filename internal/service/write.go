package service

import (
	"math"
	"strconv"

	"ringsched/internal/wire"
)

// appendBody renders the three hot response types, AnalyzeResponse,
// RingResponse and RingEditResponse, without reflection. It is a fast
// path for Encode, not a second JSON encoder: whenever it accepts a value
// it appends exactly the bytes json.MarshalIndent(v, "", "  ") plus '\n'
// gives, and its grammar is the part of encoding/json's output it can
// write without escaping anything:
//
//   - strings of printable ASCII other than '"', '\\', '<', '>' and '&'
//     (encoding/json escapes the last three for HTML);
//   - finite floats, in encoding/json's form: 'f', or 'e' when |x| < 1e-6
//     or |x| ≥ 1e21, with a one-digit negative exponent unpadded (e-7);
//   - ints, uints and bools;
//   - omitempty exactly as the struct tags say: a float equal to 0 (−0
//     too), an empty string, a zero int, a nil pointer and an empty slice
//     are left out; a nil slice without omitempty renders null.
//
// Anything else (another type, a string outside the grammar, NaN or ±Inf)
// makes ok false, and Encode renders the whole value with encoding/json,
// whose result or error is the answer.
func appendBody(dst []byte, v any) (out []byte, ok bool) {
	w := bodyWriter{b: dst, ok: true}
	switch v := v.(type) {
	case AnalyzeResponse:
		w.analyzeResponse(&v)
	case wire.RingResponse:
		w.ringResponse(&v)
	case wire.RingEditResponse:
		w.ringEditResponse(&v)
	default:
		return dst, false
	}
	if !w.ok {
		return dst, false
	}
	return append(w.b, '\n'), true
}

// bodyWriter is appendBody's cursor. depth is the nesting of the value
// being written and empty says whether the innermost open object or array
// has no member yet; ok turns false at the first value outside the
// grammar, after which the output is discarded.
type bodyWriter struct {
	b     []byte
	depth int
	empty bool
	ok    bool
}

// open starts an object or array.
func (w *bodyWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

// close ends an object or array; an empty one stays on its line, as
// json.Indent leaves {} and [].
func (w *bodyWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// indent is a newline and the indentation of depth 8; the three types nest
// to depth 5 (a stream verdict's fields).
const indent = "\n                "

// newline starts a line indented to the current depth.
func (w *bodyWriter) newline() {
	w.b = append(w.b, indent[:1+2*w.depth]...)
}

// elem starts the next array element.
func (w *bodyWriter) elem() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.newline()
}

// key starts the member name, a constant json tag needing no escape.
func (w *bodyWriter) key(name string) {
	w.elem()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

func (w *bodyWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.ok = false
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// float writes f as encoding/json's float64 encoder does.
func (w *bodyWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json cleans it up.
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// The field helpers write one member; the Omit forms skip a zero value,
// as omitempty does.

func (w *bodyWriter) strField(name, v string) {
	w.key(name)
	w.str(v)
}

func (w *bodyWriter) strOmit(name, v string) {
	if v != "" {
		w.strField(name, v)
	}
}

func (w *bodyWriter) floatField(name string, v float64) {
	w.key(name)
	w.float(v)
}

func (w *bodyWriter) floatOmit(name string, v float64) {
	if v != 0 {
		w.floatField(name, v)
	}
}

func (w *bodyWriter) intField(name string, v int) {
	w.key(name)
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

func (w *bodyWriter) intOmit(name string, v int) {
	if v != 0 {
		w.intField(name, v)
	}
}

func (w *bodyWriter) uintField(name string, v uint64) {
	w.key(name)
	w.b = strconv.AppendUint(w.b, v, 10)
}

func (w *bodyWriter) boolField(name string, v bool) {
	w.key(name)
	w.b = strconv.AppendBool(w.b, v)
}

func (w *bodyWriter) boolPtrOmit(name string, v *bool) {
	if v != nil {
		w.boolField(name, *v)
	}
}

// array writes a slice member: null for a nil slice, as a field without
// omitempty renders it.
func array[T any](w *bodyWriter, name string, xs []T, each func(*T)) {
	w.key(name)
	if xs == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('[')
	for i := range xs {
		w.elem()
		each(&xs[i])
	}
	w.close(']')
}

// arrayOmit writes a slice member tagged omitempty.
func arrayOmit[T any](w *bodyWriter, name string, xs []T, each func(*T)) {
	if len(xs) > 0 {
		array(w, name, xs, each)
	}
}

func (w *bodyWriter) analyzeResponse(r *AnalyzeResponse) {
	w.open('{')
	w.strField("cacheKey", r.CacheKey)
	w.floatField("bandwidthMbps", r.BandwidthMbps)
	w.strOmit("faultModel", r.FaultModel)
	array(w, "verdicts", r.Verdicts, w.verdict)
	w.close('}')
}

// verdict is shared by the analyze and ring responses.
func (w *bodyWriter) verdict(v *Verdict) {
	w.open('{')
	w.strField("protocol", v.Protocol)
	w.boolField("schedulable", v.Schedulable)
	w.floatField("utilization", v.Utilization)
	w.floatOmit("augmentedUtilization", v.AugmentedUtilization)
	w.floatOmit("blocking", v.Blocking)
	w.floatOmit("theta", v.Theta)
	w.floatOmit("frameTime", v.FrameTime)
	w.floatOmit("ttrt", v.TTRT)
	w.floatOmit("overhead", v.Overhead)
	w.floatOmit("totalAllocation", v.TotalAllocation)
	w.floatOmit("capacity", v.Capacity)
	if d := v.Degraded; d != nil {
		w.key("degraded")
		w.open('{')
		w.boolField("schedulable", d.Schedulable)
		w.floatField("availability", d.Availability)
		w.floatOmit("losses", d.Losses)
		w.floatOmit("recovery", d.Recovery)
		w.floatOmit("blocking", d.Blocking)
		w.floatOmit("totalAllocation", d.TotalAllocation)
		w.floatOmit("capacity", d.Capacity)
		w.close('}')
	}
	arrayOmit(w, "streams", v.Streams, w.streamVerdict)
	arrayOmit(w, "scaleVerdicts", v.ScaleVerdicts, func(s *ScaleVerdict) {
		w.open('{')
		w.floatField("scale", s.Scale)
		w.boolField("schedulable", s.Schedulable)
		w.close('}')
	})
	w.close('}')
}

func (w *bodyWriter) streamVerdict(s *StreamVerdict) {
	w.open('{')
	w.strOmit("id", s.ID)
	w.strOmit("name", s.Name)
	w.floatField("periodMs", s.PeriodMs)
	w.intOmit("frames", s.Frames)
	w.intOmit("q", s.Q)
	w.floatField("augmentedLength", s.AugmentedLength)
	w.floatOmit("responseTime", s.ResponseTime)
	w.floatOmit("allocation", s.Allocation)
	w.floatOmit("worstCaseResponse", s.WorstCaseResponse)
	w.boolField("schedulable", s.Schedulable)
	w.close('}')
}

func (w *bodyWriter) ringResponse(r *wire.RingResponse) {
	w.open('{')
	w.strField("id", r.ID)
	w.uintField("version", r.Version)
	array(w, "protocols", r.Protocols, func(p *string) { w.str(*p) })
	w.floatField("bandwidthMbps", r.BandwidthMbps)
	w.strOmit("faultModel", r.FaultModel)
	w.strOmit("snapshotKey", r.SnapshotKey)
	array(w, "streams", r.Streams, func(s *wire.RingStream) {
		w.open('{')
		w.strField("id", s.ID)
		w.strOmit("name", s.Name)
		w.floatField("periodMs", s.PeriodMs)
		w.floatField("lengthBits", s.LengthBits)
		w.close('}')
	})
	array(w, "verdicts", r.Verdicts, w.verdict)
	w.close('}')
}

func (w *bodyWriter) ringEditResponse(r *wire.RingEditResponse) {
	w.open('{')
	w.strField("ringId", r.RingID)
	w.uintField("version", r.Version)
	w.strField("op", r.Op)
	w.strField("streamId", r.StreamID)
	w.intField("reprobed", r.Reprobed)
	array(w, "deltas", r.Deltas, func(d *wire.RingProtocolDelta) {
		w.open('{')
		w.strField("protocol", d.Protocol)
		w.intField("reprobed", d.Reprobed)
		w.boolField("wasSchedulable", d.WasSchedulable)
		w.boolField("schedulable", d.Schedulable)
		w.boolPtrOmit("degradedWasSchedulable", d.DegradedWasSchedulable)
		w.boolPtrOmit("degradedSchedulable", d.DegradedSchedulable)
		w.boolPtrOmit("editedSchedulable", d.EditedSchedulable)
		arrayOmit(w, "flipped", d.Flipped, func(f *wire.RingStreamFlip) {
			w.open('{')
			w.strField("id", f.ID)
			w.strOmit("name", f.Name)
			w.boolField("schedulable", f.Schedulable)
			w.close('}')
		})
		w.close('}')
	})
	w.close('}')
}
