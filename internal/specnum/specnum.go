// Package specnum renders numbers for the clause grammars of fault models,
// topologies and chaos specs, whose clauses are joined by "+".
package specnum

import (
	"strconv"
	"strings"
)

// Format renders v in the shortest form that re-parses exactly, with the
// exponent's "+" stripped ("4e+06" → "4e06") so that the rendering never
// collides with the "+" clause separator. Apart from that strip it is
// fmt's %g.
func Format(v float64) string {
	return strings.Replace(strconv.FormatFloat(v, 'g', -1, 64), "e+", "e", 1)
}
