// Package specnum owns the clause grammar of the fault-model, topology
// and chaos specs, and renders their numbers:
//
//	spec    := clause { "+" clause }
//	clause  := kind [ ":" key "=" value { "," key "=" value } ]
//
// Clauses scans a spec and hands each clause to a callback, whose getters
// take its parameters one key at a time; Done refuses what is left. The
// callers keep their kinds, keys, defaults and range checks, and pass the
// sentinel error that every refusal wraps.
package specnum

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Format renders v in the shortest form that re-parses exactly, with the
// exponent's "+" stripped ("4e+06" → "4e06") so that the rendering never
// collides with the "+" clause separator. Apart from that strip it is
// fmt's %g.
func Format(v float64) string {
	return strings.Replace(strconv.FormatFloat(v, 'g', -1, 64), "e+", "e", 1)
}

// Clause is one clause of a spec: its kind and the key=value parameters
// that no getter has taken yet, keys and values trimmed of surrounding
// space.
type Clause struct {
	// Kind is the text before the first ":" of the trimmed clause.
	Kind string
	bad  error
	kv   map[string]string
}

// Clauses calls fn once per "+"-separated clause of spec, in order, and
// returns the first error. A clause's parameters are split before fn sees
// it: a pair without "=", an empty key or a repeated key is refused with
// bad, as are the getters' errors. fn's Clause is reused for the next
// clause, so fn must not keep it.
func Clauses(spec string, bad error, fn func(*Clause) error) error {
	c := &Clause{bad: bad, kv: map[string]string{}}
	for {
		clause, rest, more := strings.Cut(spec, "+")
		if err := c.split(clause); err != nil {
			return err
		}
		if err := fn(c); err != nil || !more {
			return err
		}
		spec = rest
	}
}

func (c *Clause) split(clause string) error {
	clear(c.kv)
	var params string
	c.Kind, params, _ = strings.Cut(strings.TrimSpace(clause), ":")
	if strings.TrimSpace(params) == "" {
		return nil
	}
	for {
		pair, rest, more := strings.Cut(params, ",")
		key, val, ok := strings.Cut(pair, "=")
		key = strings.TrimSpace(key)
		if !ok || key == "" {
			return fmt.Errorf("%w: want key=value, got %q", c.bad, pair)
		}
		if _, dup := c.kv[key]; dup {
			return fmt.Errorf("%w: duplicate key %q", c.bad, key)
		}
		c.kv[key] = strings.TrimSpace(val)
		if !more {
			return nil
		}
		params = rest
	}
}

// Str takes key's value, or def when the clause has no key.
func (c *Clause) Str(key, def string) string {
	raw, ok := c.kv[key]
	if !ok {
		return def
	}
	delete(c.kv, key)
	return raw
}

// NeedStr takes key's value; a clause without key is refused.
func (c *Clause) NeedStr(key string) (string, error) {
	if err := c.need(key); err != nil {
		return "", err
	}
	return c.Str(key, ""), nil
}

// Num takes key's value as a float, or def when the clause has no key. A
// duration also accepts Go duration syntax ("2ms"), read in seconds.
func (c *Clause) Num(key string, def float64, duration bool) (float64, error) {
	raw, ok := c.kv[key]
	if !ok {
		return def, nil
	}
	delete(c.kv, key)
	if duration {
		if d, err := time.ParseDuration(raw); err == nil {
			return d.Seconds(), nil
		}
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q", c.bad, key, raw)
	}
	return v, nil
}

// Int takes key's value as an integer in [lo, hi], or def when the
// clause has no key. A decimal integer is read exactly; any other number
// ("1e3", "5.03e2") must be whole. A value outside [lo, hi] is refused
// naming the key and the range.
func (c *Clause) Int(key string, def, lo, hi int64) (int64, error) {
	raw, ok := c.kv[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		f, ferr := c.Num(key, 0, false)
		if ferr != nil {
			return 0, ferr
		}
		// int64's range is [-2⁶³, 2⁶³), both ends exact as float64.
		if f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
			v, err = int64(f), nil
		}
	}
	delete(c.kv, key)
	if err != nil || v < lo || v > hi {
		return 0, fmt.Errorf("%w: %s=%s is not an integer in [%d, %d]", c.bad, key, raw, lo, hi)
	}
	return v, nil
}

// Need is Num for a key the clause must have.
func (c *Clause) Need(key string, duration bool) (float64, error) {
	if err := c.need(key); err != nil {
		return 0, err
	}
	return c.Num(key, 0, duration)
}

func (c *Clause) need(key string) error {
	if _, ok := c.kv[key]; ok {
		return nil
	}
	return fmt.Errorf("%w: %s clause needs %s=", c.bad, c.Kind, key)
}

// Done refuses the clause if a key is left that no getter took, naming
// the least such key so that a spec is always refused with the same text,
// and listing validKeys, the keys of the clause's kind.
func (c *Clause) Done(validKeys string) error {
	if len(c.kv) == 0 {
		return nil
	}
	var least string
	for key := range c.kv {
		if least == "" || key < least {
			least = key
		}
	}
	return fmt.Errorf("%w: unknown %s key %q (valid %s keys: %s)",
		c.bad, c.Kind, least, c.Kind, validKeys)
}
