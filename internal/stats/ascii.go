package stats

import (
	"math"
	"strings"
)

// sparkGlyphs are the eight block heights of a sparkline.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series as a compact unicode strip, scaled to the
// series' own min..max (a flat series renders mid-height). NaN values
// render as spaces.
func Sparkline(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if math.IsInf(lo, 1) {
		return strings.Repeat(" ", len(xs))
	}
	var b strings.Builder
	for _, x := range xs {
		switch {
		case math.IsNaN(x):
			b.WriteByte(' ')
		case hi == lo:
			b.WriteRune(sparkGlyphs[len(sparkGlyphs)/2])
		default:
			idx := int((x - lo) / (hi - lo) * float64(len(sparkGlyphs)-1))
			b.WriteRune(sparkGlyphs[idx])
		}
	}
	return b.String()
}
