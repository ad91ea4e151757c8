package specnum

import (
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
