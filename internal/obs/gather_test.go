package obs

import (
	"math"
	"sort"
	"testing"
)

// TestHistogramQuantileUniform pins the interpolated estimator against a
// distribution whose true quantiles are known exactly: the integers
// 1..100 observed once each into decade buckets. Every rank boundary
// lands on a bucket edge, so linear interpolation recovers the true
// quantile with no estimation error.
func TestHistogramQuantileUniform(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_uniform", "", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 50},
		{0.99, 99},
		{0.10, 10},
		{0.95, 95},
		{1.00, 100},
		{0.25, 25},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// TestHistogramQuantileInterpolation pins mid-bucket interpolation: 4
// observations in (0,10] and 4 in (10,20] put the median exactly at the
// upper edge of the first bucket and p75 midway through the second.
func TestHistogramQuantileInterpolation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_interp", "", []float64{10, 20})
	for _, v := range []float64{1, 2, 3, 4, 11, 12, 13, 14} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); math.Abs(got-10) > 1e-9 {
		t.Errorf("p50 = %v, want 10", got)
	}
	// rank 6 of 8 → 2 observations into the second bucket of 4:
	// 10 + (20-10)*(2/4) = 15.
	if got := h.Quantile(0.75); math.Abs(got-15) > 1e-9 {
		t.Errorf("p75 = %v, want 15", got)
	}
	// rank 2 of 8 inside the first bucket: 0 + 10*(2/4) = 5.
	if got := h.Quantile(0.25); math.Abs(got-5) > 1e-9 {
		t.Errorf("p25 = %v, want 5", got)
	}
}

// TestHistogramQuantileEdges covers the degenerate shapes: empty
// histograms have no quantiles, ranks landing in the +Inf bucket clamp
// to the highest finite bound, and out-of-range q clamps to [0,1].
func TestHistogramQuantileEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_edges", "", []float64{1, 2})
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram Quantile = %v, want NaN", got)
	}
	h.Observe(100) // lands in +Inf
	if got := h.Quantile(0.99); got != 2 {
		t.Errorf("+Inf-bucket Quantile = %v, want clamp to 2", got)
	}
	h2 := r.Histogram("test_edges_lo", "", []float64{1, 2})
	h2.Observe(0.5)
	if got := h2.Quantile(-1); math.Abs(got-0) > 1e-9 {
		t.Errorf("Quantile(-1) = %v, want 0", got)
	}
	if got := h2.Quantile(2); math.Abs(got-1) > 1e-9 {
		t.Errorf("Quantile(2) = %v, want 1 (all mass in first bucket)", got)
	}
}

// TestRegistryGather walks a registry holding one series of each kind
// and checks the structured points: keys render like the exposition,
// counters and gauges carry Value, histograms carry count/sum/quantiles.
func TestRegistryGather(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("g_requests_total", "", "route").With("/v1/x").Add(7)
	r.Gauge("g_ratio", "").Set(1.5)
	h := r.Histogram("g_lat", "", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}

	byKey := map[string]MetricPoint{}
	r.Gather(func(p MetricPoint) { byKey[p.Key()] = p })

	c, ok := byKey[`g_requests_total{route="/v1/x"}`]
	if !ok || c.Kind != "counter" || c.Value != 7 {
		t.Fatalf("counter point = %+v, ok=%v", c, ok)
	}
	g, ok := byKey["g_ratio"]
	if !ok || g.Kind != "gauge" || g.Value != 1.5 {
		t.Fatalf("gauge point = %+v, ok=%v", g, ok)
	}
	hp, ok := byKey["g_lat"]
	if !ok || hp.Kind != "histogram" || hp.Count != 100 || hp.Sum != 5050 {
		t.Fatalf("histogram point = %+v, ok=%v", hp, ok)
	}
	if math.Abs(hp.P50-50) > 1e-9 || math.Abs(hp.P99-99) > 1e-9 {
		t.Fatalf("histogram quantiles p50=%v p99=%v, want 50/99", hp.P50, hp.P99)
	}

	// Families visit in sorted name order.
	var order []string
	r.Gather(func(p MetricPoint) { order = append(order, p.Name) })
	if !sort.StringsAreSorted(order) {
		t.Fatalf("Gather family order not sorted: %v", order)
	}

	// Collectors run before the walk, like a scrape.
	r.RegisterCollector(func() { r.Gauge("g_ratio", "").Set(9) })
	r.Gather(func(p MetricPoint) {
		if p.Name == "g_ratio" && p.Value != 9 {
			t.Fatalf("collector did not run before Gather: %v", p.Value)
		}
	})
}

// TestSeriesKey checks the selector helper against MetricPoint.Key's form.
func TestSeriesKey(t *testing.T) {
	key := SeriesKey("dc_x", []string{"session"}, []string{"sn-1"})
	if key != `dc_x{session="sn-1"}` {
		t.Fatalf("SeriesKey = %q", key)
	}
}
