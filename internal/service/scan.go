package service

import (
	"strconv"
	"strings"

	"ringsched/internal/wire"
)

// scanAnalyze decodes an /v1/analyze body in one pass over its bytes,
// without reflection. It is a fast path for the bodies clients send, not
// a second JSON decoder: its grammar is a strict subset of what
// decodeFrom accepts, chosen so that every body it accepts decodes to
// exactly the AnalyzeRequest decodeFrom builds (the same strings, every
// float bit-identical, [] as an empty non-nil slice). It accepts
//
//   - JSON whitespace around one top-level object whose keys are the
//     seven AnalyzeRequest json names, each at most once;
//   - streams elements that are objects keyed by name, periodMs and
//     lengthBits, each at most once;
//   - strings of printable ASCII with no backslash;
//   - numbers in the JSON grammar that strconv.ParseFloat(·, 64), the
//     conversion encoding/json makes, parses without error;
//   - true and false;
//   - arrays for protocols, streams and payloadScales.
//
// Anything else makes ok false: escapes, non-ASCII bytes, null, an
// unknown, repeated or case-variant key (encoding/json folds case and
// merges repeats into the elements already decoded), a type mismatch,
// and numbers such as 01, 1., .5, +1 or 1e400. The caller then decodes
// the body with decodeFrom, whose result or error is the answer. Bytes
// after the closing brace are ignored, as json.Decoder.Decode ignores
// them.
//
// The scan runs over one string copy of the body: the strings in the
// result are substrings of it, and numbers parse without a conversion.
func scanAnalyze(body []byte) (req AnalyzeRequest, ok bool) {
	s := scanner{src: string(body)}
	var seen uint8 // one bit per key, to decline a repeat
	ok = s.object(func(key string) bool {
		var bit uint8
		var ok bool
		switch key {
		case "protocols":
			bit = 1 << 0
			req.Protocols = []string{}
			ok = s.array(func() bool {
				v, ok := s.str()
				req.Protocols = append(req.Protocols, v)
				return ok
			})
		case "bandwidthMbps":
			bit = 1 << 1
			req.BandwidthMbps, ok = s.num()
		case "streams":
			bit = 1 << 2
			req.Streams, ok = s.streams()
		case "faultModel":
			bit = 1 << 3
			req.FaultModel, ok = s.str()
		case "scenario":
			bit = 1 << 4
			req.Scenario, ok = s.str()
		case "detail":
			bit = 1 << 5
			req.Detail, ok = s.boolean()
		case "payloadScales":
			bit = 1 << 6
			req.PayloadScales = []float64{}
			ok = s.array(func() bool {
				v, ok := s.num()
				req.PayloadScales = append(req.PayloadScales, v)
				return ok
			})
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
	if !ok {
		return AnalyzeRequest{}, false
	}
	return req, true
}

// scanRingEdit decodes a ring add or modify body the way scanAnalyze
// decodes an analyze body: one pass, no reflection, and a grammar that is
// a strict subset of decodeFrom's, so an accepted body decodes to exactly
// the RingEditRequest decodeFrom builds. It accepts one object keyed by
// expectedVersion and stream, each at most once; expectedVersion is a JSON
// integer 0|[1-9][0-9]* that strconv.ParseUint(·, 10, 64) accepts, and
// stream is scanAnalyze's stream object. Everything else (a fraction or an
// exponent such as 1e3, a sign, a value past 2⁶⁴−1, null, an unknown key)
// makes ok false, and the caller decodes with decodeFrom.
func scanRingEdit(body []byte) (req wire.RingEditRequest, ok bool) {
	s := scanner{src: string(body)}
	var seen uint8 // as in scanAnalyze
	ok = s.object(func(key string) bool {
		var bit uint8
		var ok bool
		switch key {
		case "expectedVersion":
			bit = 1 << 0
			req.ExpectedVersion, ok = s.uint()
		case "stream":
			bit = 1 << 1
			req.Stream, ok = s.stream()
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
	if !ok {
		return wire.RingEditRequest{}, false
	}
	return req, true
}

// scanner is the scanners' cursor: src[i:] is what is left to read.
type scanner struct {
	src string
	i   int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	i := s.i
	for i < len(s.src) && (s.src[i] == ' ' || s.src[i] == '\t' || s.src[i] == '\n' || s.src[i] == '\r') {
		i++
	}
	s.i = i
}

// eat consumes c after any whitespace, reporting whether it was there.
func (s *scanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.src) && s.src[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object scans an object, handing each key to member with the cursor
// before its value; member scans the value or returns false to decline.
func (s *scanner) object(member func(key string) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') || !member(key) {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// array scans an array, calling elem to scan each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.eat(']') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// streams scans the streams array. Elements gather in a stack buffer
// sized for the paper's n = 100 and are copied out once.
func (s *scanner) streams() ([]StreamSpec, bool) {
	var buf [100]StreamSpec
	out := buf[:0]
	ok := s.array(func() bool {
		st, ok := s.stream()
		out = append(out, st)
		return ok
	})
	return append([]StreamSpec{}, out...), ok
}

// stream scans one stream object keyed by name, periodMs and lengthBits,
// each at most once.
func (s *scanner) stream() (st StreamSpec, ok bool) {
	var seen uint8 // as in scanAnalyze
	ok = s.object(func(key string) bool {
		var bit uint8
		var ok bool
		switch key {
		case "name":
			bit = 1 << 0
			st.Name, ok = s.str()
		case "periodMs":
			bit = 1 << 1
			st.PeriodMs, ok = s.num()
		case "lengthBits":
			bit = 1 << 2
			st.LengthBits, ok = s.num()
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
	return st, ok
}

// str scans a string of printable ASCII with no backslash.
func (s *scanner) str() (string, bool) {
	if !s.eat('"') {
		return "", false
	}
	for i := s.i; i < len(s.src); i++ {
		switch c := s.src[i]; {
		case c == '"':
			v := s.src[s.i:i]
			s.i = i + 1
			return v, true
		case c < ' ' || c > '~' || c == '\\':
			return "", false
		}
	}
	return "", false
}

// num scans a number in the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and parses it as
// encoding/json parses a float64 field.
func (s *scanner) num() (float64, bool) {
	s.space()
	start := s.i
	if s.at('-') {
		s.i++
	}
	if s.at('0') {
		s.i++
	} else if !s.digits() {
		return 0, false
	}
	if s.at('.') {
		s.i++
		if !s.digits() {
			return 0, false
		}
	}
	if s.at('e') || s.at('E') {
		s.i++
		if s.at('+') || s.at('-') {
			s.i++
		}
		if !s.digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(s.src[start:s.i], 64)
	return f, err == nil
}

// uint scans a JSON integer 0|[1-9][0-9]* and parses it as encoding/json
// parses a uint64 field.
func (s *scanner) uint() (uint64, bool) {
	s.space()
	start := s.i
	if s.at('0') {
		s.i++
	} else if !s.digits() {
		return 0, false
	}
	if s.at('.') || s.at('e') || s.at('E') {
		return 0, false
	}
	v, err := strconv.ParseUint(s.src[start:s.i], 10, 64)
	return v, err == nil
}

// at reports whether the next byte is c.
func (s *scanner) at(c byte) bool { return s.i < len(s.src) && s.src[s.i] == c }

// digits consumes one or more decimal digits.
func (s *scanner) digits() bool {
	i := s.i
	for i < len(s.src) && '0' <= s.src[i] && s.src[i] <= '9' {
		i++
	}
	ok := i > s.i
	s.i = i
	return ok
}

// boolean scans true or false.
func (s *scanner) boolean() (v, ok bool) {
	s.space()
	switch rest := s.src[s.i:]; {
	case strings.HasPrefix(rest, "true"):
		s.i += len("true")
		return true, true
	case strings.HasPrefix(rest, "false"):
		s.i += len("false")
		return false, true
	}
	return false, false
}
