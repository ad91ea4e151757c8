package specnum

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestFormat(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{0.5, "0.5"},
		{1e-3, "0.001"},
		{1e-5, "1e-05"},
		{100e-6, "0.0001"},
		{16e6, "1.6e07"},
		{1e6, "1e06"},
		{123456, "123456"},
		{1e21, "1e21"},
		{math.MaxFloat64, "1.7976931348623157e308"},
	} {
		if got := Format(tc.v); got != tc.want {
			t.Errorf("Format(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

// TestFormatIsPercentG checks that Format differs from %g only where %g
// writes an "e+" exponent, and that every rendering re-parses exactly and
// holds no "+".
func TestFormatIsPercentG(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		got, g := Format(v), fmt.Sprintf("%g", v)
		if !strings.Contains(g, "e+") && got != g {
			t.Fatalf("Format(%v) = %q, %%g gives %q", v, got, g)
		}
		if strings.Contains(got, "+") {
			t.Fatalf("Format(%v) = %q holds a '+'", v, got)
		}
		if back, err := strconv.ParseFloat(got, 64); err != nil || back != v {
			t.Fatalf("Format(%v) = %q re-parses as %v, %v", v, got, back, err)
		}
	}
}

var errBad = errors.New("bad spec")

// scan runs Clauses over spec with fn and returns its error text, or "".
func scan(spec string, fn func(*Clause) error) string {
	if err := Clauses(spec, errBad, fn); err != nil {
		if !errors.Is(err, errBad) {
			return "not wrapped: " + err.Error()
		}
		return err.Error()
	}
	return ""
}

func TestClausesSplitsKindsAndValues(t *testing.T) {
	var got []string
	err := scan(" a:x = 1 , y=two words + b + c: + d :z=", func(c *Clause) error {
		got = append(got, fmt.Sprintf("%q x=%q y=%q z=%q", c.Kind,
			c.Str("x", "-"), c.Str("y", "-"), c.Str("z", "-")))
		return c.Done("x, y, z")
	})
	want := []string{
		`"a" x="1" y="two words" z="-"`,
		`"b" x="-" y="-" z="-"`,
		`"c" x="-" y="-" z="-"`,
		`"d " x="-" y="-" z=""`,
	}
	if err != "" || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("clauses = %q, %s; want %q", got, err, want)
	}
}

func TestClausesRefusesMalformedPairs(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"a:x", `bad spec: want key=value, got "x"`},
		{"a:x=1,", `bad spec: want key=value, got ""`},
		{"a: =1", `bad spec: want key=value, got " =1"`},
		{"a:x=1, x =2", `bad spec: duplicate key "x"`},
	} {
		called := false
		got := scan(tc.spec, func(*Clause) error { called = true; return nil })
		if got != tc.want || called {
			t.Errorf("%q: err %q (callback ran: %v), want %q before the callback", tc.spec, got, called, tc.want)
		}
	}
}

// TestClausesErrorOrder checks that clauses are refused in order: a
// clause's own errors, its leftover keys included, come before anything
// wrong with a later clause, and a clause is split before its callback.
func TestClausesErrorOrder(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"a:zz=1 + b:x", `bad spec: unknown a key "zz" (valid a keys: k)`},
		{"a:k=1 + b:x + c:zz=1", `bad spec: want key=value, got "x"`},
		{"a:k=x + b:k=1,k=2", `bad spec: k="x"`},
		{"a:k=1 + b:k=1,k=2", `bad spec: duplicate key "k"`},
		{"a:k=1 + b:k=2", ""},
	} {
		if got := scan(tc.spec, func(c *Clause) error {
			if _, err := c.Num("k", 0, false); err != nil {
				return err
			}
			return c.Done("k")
		}); got != tc.want {
			t.Errorf("%q: err %q, want %q", tc.spec, got, tc.want)
		}
	}
	if got := scan("a:k=1 + b:k=2", func(*Clause) error { return nil }); got != "" {
		t.Errorf("keys left in clause a carried into clause b: %s", got)
	}
	var kinds []string
	scan("a+b:x+c", func(c *Clause) error { kinds = append(kinds, c.Kind); return nil })
	if fmt.Sprint(kinds) != "[a]" {
		t.Errorf("callback saw %v, want only a: b is refused before its callback", kinds)
	}
}

func TestClauseDoneNamesLeastKey(t *testing.T) {
	const want = `bad spec: unknown a key "aa" (valid a keys: k)`
	for i := 0; i < 100; i++ {
		if got := scan("a:zz=1,k=0,aa=2,mm=3", func(c *Clause) error {
			c.Str("k", "")
			return c.Done("k")
		}); got != want {
			t.Fatalf("parse %d: err %q, want %q", i, got, want)
		}
	}
}

func TestClauseGetters(t *testing.T) {
	for _, tc := range []struct {
		spec string
		get  func(*Clause) (any, error)
		want string
	}{
		{"a", func(c *Clause) (any, error) { return c.Str("s", "def"), nil }, "def"},
		{"a:s=v", func(c *Clause) (any, error) { return c.Str("s", "def"), nil }, "v"},
		{"a:s=v", func(c *Clause) (any, error) { return c.NeedStr("s") }, "v"},
		{"a", func(c *Clause) (any, error) { return c.NeedStr("s") }, `error: bad spec: a clause needs s=`},
		{"a", func(c *Clause) (any, error) { return c.Num("n", 7, false) }, "7"},
		{"a:n=1e3", func(c *Clause) (any, error) { return c.Num("n", 7, false) }, "1000"},
		{"a:n=2ms", func(c *Clause) (any, error) { return c.Num("n", 7, false) }, `error: bad spec: n="2ms"`},
		{"a:n=2ms", func(c *Clause) (any, error) { return c.Num("n", 7, true) }, "0.002"},
		{"a:n=0.5", func(c *Clause) (any, error) { return c.Num("n", 7, true) }, "0.5"},
		{"a:n=x", func(c *Clause) (any, error) { return c.Num("n", 7, true) }, `error: bad spec: n="x"`},
		{"a", func(c *Clause) (any, error) { return c.Need("n", false) }, `error: bad spec: a clause needs n=`},
		{"a:n=3", func(c *Clause) (any, error) { return c.Need("n", false) }, "3"},
		{"a:n=1m", func(c *Clause) (any, error) { return c.Need("n", true) }, "60"},
		{"a:n=", func(c *Clause) (any, error) { return c.Need("n", false) }, `error: bad spec: n=""`},
		{"a", func(c *Clause) (any, error) { return c.Int("n", 7, 0, 9) }, "7"},
		{"a:n=09", func(c *Clause) (any, error) { return c.Int("n", 7, 0, 9) }, "9"},
		{"a:n=5.03e2", func(c *Clause) (any, error) { return c.Int("n", 7, 0, 599) }, "503"},
		{"a:n=-0.0", func(c *Clause) (any, error) { return c.Int("n", 7, 0, 9) }, "0"},
		{"a:n=10", func(c *Clause) (any, error) { return c.Int("n", 7, 0, 9) }, `error: bad spec: n=10 is not an integer in [0, 9]`},
		{"a:n=-1", func(c *Clause) (any, error) { return c.Int("n", 7, 0, 9) }, `error: bad spec: n=-1 is not an integer in [0, 9]`},
		{"a:n=1.5", func(c *Clause) (any, error) { return c.Int("n", 7, 0, 9) }, `error: bad spec: n=1.5 is not an integer in [0, 9]`},
		{"a:n=x", func(c *Clause) (any, error) { return c.Int("n", 7, 0, 9) }, `error: bad spec: n="x"`},
		{"a:n=2ms", func(c *Clause) (any, error) { return c.Int("n", 7, 0, 9) }, `error: bad spec: n="2ms"`},
		// Past 2⁵³ a decimal integer is read exactly, not through a float.
		{"a:n=9007199254740993", func(c *Clause) (any, error) { return c.Int("n", 7, math.MinInt64, math.MaxInt64) }, "9007199254740993"},
		{"a:n=-9223372036854775808", func(c *Clause) (any, error) { return c.Int("n", 7, math.MinInt64, math.MaxInt64) }, "-9223372036854775808"},
		{"a:n=1e18", func(c *Clause) (any, error) { return c.Int("n", 7, math.MinInt64, math.MaxInt64) }, "1000000000000000000"},
		{"a:n=9223372036854775808", func(c *Clause) (any, error) { return c.Int("n", 7, math.MinInt64, math.MaxInt64) },
			`error: bad spec: n=9223372036854775808 is not an integer in [-9223372036854775808, 9223372036854775807]`},
		{"a:n=9.223372036854775807e18", func(c *Clause) (any, error) { return c.Int("n", 7, math.MinInt64, math.MaxInt64) },
			`error: bad spec: n=9.223372036854775807e18 is not an integer in [-9223372036854775808, 9223372036854775807]`},
		{"a:n=-1e30", func(c *Clause) (any, error) { return c.Int("n", 7, math.MinInt64, math.MaxInt64) },
			`error: bad spec: n=-1e30 is not an integer in [-9223372036854775808, 9223372036854775807]`},
		{"a:n=NaN", func(c *Clause) (any, error) { return c.Int("n", 7, math.MinInt64, math.MaxInt64) },
			`error: bad spec: n=NaN is not an integer in [-9223372036854775808, 9223372036854775807]`},
		{"a:n=Inf", func(c *Clause) (any, error) { return c.Int("n", 7, math.MinInt64, math.MaxInt64) },
			`error: bad spec: n=Inf is not an integer in [-9223372036854775808, 9223372036854775807]`},
	} {
		var got string
		if err := scan(tc.spec, func(c *Clause) error {
			v, err := tc.get(c)
			if err != nil {
				return err
			}
			got = fmt.Sprint(v)
			return c.Done("s, n")
		}); err != "" {
			got = "error: " + err
		}
		if got != tc.want {
			t.Errorf("%q: got %s, want %s", tc.spec, got, tc.want)
		}
	}
}
