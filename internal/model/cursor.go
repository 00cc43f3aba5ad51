package model

import (
	"sort"
)

// Cursor answers point-in-time queries against a normalized schedule: how
// much cost has accrued through t. Queries are O(log |schedule|) after an
// O(|schedule| log) build, so one schedule can be priced at many instants
// cheaply.
type Cursor struct {
	cm        CostModel
	transfers []Transfer // sorted by Time
	// prefix[i] = caching time of caches[:i] fully elapsed... caching cost
	// through t needs partial intervals, so we keep starts and ends sorted
	// separately and use the identity:
	//   elapsed(t) = Σ min(t, To) - min(t, From)
	// computed from prefix sums over the sorted endpoints.
	starts, ends []float64 // sorted From and To values
	sumStarts    []float64 // prefix sums of starts
	sumEnds      []float64 // prefix sums of ends
}

// NewCursor builds a cursor over a schedule (normalized internally; the
// input is not modified).
func NewCursor(seq *Sequence, s *Schedule, cm CostModel) *Cursor {
	norm := &Schedule{
		Caches:    append([]CacheInterval(nil), s.Caches...),
		Transfers: append([]Transfer(nil), s.Transfers...),
	}
	norm.Normalize()
	c := &Cursor{cm: cm, transfers: norm.Transfers}
	for _, h := range norm.Caches {
		c.starts = append(c.starts, h.From)
		c.ends = append(c.ends, h.To)
	}
	sort.Float64s(c.starts)
	sort.Float64s(c.ends)
	c.sumStarts = prefixSums(c.starts)
	c.sumEnds = prefixSums(c.ends)
	return c
}

func prefixSums(xs []float64) []float64 {
	out := make([]float64, len(xs)+1)
	for i, x := range xs {
		out[i+1] = out[i] + x
	}
	return out
}

// CostThrough returns the cost accrued on [0, t]: caching time elapsed by t
// priced at μ, plus λ per transfer at or before t.
func (c *Cursor) CostThrough(t float64) float64 {
	// Σ min(t, To): ends <= t contribute themselves, the rest contribute t.
	kEnd := sort.SearchFloat64s(c.ends, t)
	for kEnd < len(c.ends) && c.ends[kEnd] == t {
		kEnd++
	}
	sumTo := c.sumEnds[kEnd] + float64(len(c.ends)-kEnd)*t
	kStart := sort.SearchFloat64s(c.starts, t)
	for kStart < len(c.starts) && c.starts[kStart] == t {
		kStart++
	}
	sumFrom := c.sumStarts[kStart] + float64(len(c.starts)-kStart)*t
	elapsed := sumTo - sumFrom

	nTr := sort.Search(len(c.transfers), func(i int) bool { return c.transfers[i].Time > t })
	return c.cm.Mu*elapsed + c.cm.Lambda*float64(nTr)
}
