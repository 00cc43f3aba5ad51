package obs

import (
	"math"
)

// Quantile estimates the q-quantile (0 < q < 1) of the observed
// distribution by linear interpolation inside the bucket holding the
// target rank, the same estimator Prometheus applies to classic
// histograms. The first bucket interpolates from zero (all recorded
// quantities are non-negative); ranks landing in the +Inf bucket clamp
// to the highest finite bound, since the histogram retains no shape
// information past it. Returns NaN when the histogram is empty or has
// no finite buckets.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 || len(h.bounds) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		cum += n
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		if n == 0 {
			return h.bounds[i]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		within := rank - float64(cum-n)
		return lo + (h.bounds[i]-lo)*(within/float64(n))
	}
	return h.bounds[len(h.bounds)-1]
}

// MetricPoint is one series' instantaneous reading, as handed to Gather
// visitors. Counter and gauge series carry Value; histogram series carry
// Count/Sum plus the estimated medians and tails so samplers never need
// to reach into bucket layouts themselves.
type MetricPoint struct {
	Name        string   // family name
	Kind        string   // "counter" | "gauge" | "histogram"
	LabelNames  []string // family label names (shared across series)
	LabelValues []string // this series' label values

	Value float64 // counter: cumulative count; gauge: current value

	// Histogram-only fields.
	Count int64
	Sum   float64
	P50   float64
	P99   float64
}

// Key renders the series' canonical identity, name{k="v",...}, exactly
// as the Prometheus exposition would (label values escaped, unlabeled
// series render as the bare name).
func (p MetricPoint) Key() string {
	return p.Name + labelString(p.LabelNames, p.LabelValues, "", "")
}

// Gather runs the registered collectors and then visits every live
// series in every family, in family-name order (series order within a
// family is unspecified). It is the sampling-side dual of
// WritePrometheus: same freshness semantics, structured values instead
// of text. Safe to call concurrently with scrapes and hot-path updates.
func (r *Registry) Gather(visit func(MetricPoint)) {
	for _, f := range r.snapshot() {
		f.series.Range(func(k, m interface{}) bool {
			p := MetricPoint{
				Name:        f.name,
				Kind:        f.typ,
				LabelNames:  f.labels,
				LabelValues: splitKey(k.(string), len(f.labels)),
			}
			switch m := m.(type) {
			case *Counter:
				p.Value = float64(m.Value())
			case *Gauge:
				p.Value = m.Value()
			case *Histogram:
				p.Count = m.Count()
				p.Sum = m.Sum()
				p.P50 = m.Quantile(0.50)
				p.P99 = m.Quantile(0.99)
			}
			visit(p)
			return true
		})
	}
}

// SeriesKey renders the canonical series identity for a family name and
// label pairs, matching MetricPoint.Key. Helper for callers building
// history selectors (dctop, dcload) without hand-formatting labels.
func SeriesKey(name string, labelNames, labelValues []string) string {
	return name + labelString(labelNames, labelValues, "", "")
}
