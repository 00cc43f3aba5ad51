package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The metric primitives below are deliberately minimal: atomic counters,
// gauges and fixed-bucket histograms, grouped into label families by a
// Registry that can render itself in the Prometheus text exposition
// format. Hot paths (Inc/Set/Observe) are lock-free; only the first use
// of a new label combination takes a lock. A caller that caches the
// *Counter / *Gauge / *Histogram returned by With skips even the map
// lookup on its hot path.

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (n must be >= 0 to keep monotonicity;
// negative deltas are ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (upper bounds in
// increasing order, +Inf implicit) and tracks their sum. Each bucket can
// additionally hold the latest exemplar (see ObserveExemplar), rendered
// only by the OpenMetrics exposition.
type Histogram struct {
	bounds    []float64
	counts    []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sumBits   atomic.Uint64
	exemplars []atomic.Pointer[exemplar] // parallel to counts
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.counts[bucketIndex(h.bounds, v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ExponentialBuckets returns n histogram bounds starting at start and
// multiplying by factor — the natural shape for batch sizes and other
// quantities spanning orders of magnitude. start must be positive and
// factor > 1 (panics otherwise, like the registration-time validation).
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: invalid exponential buckets (start=%v, factor=%v, n=%d)", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// bucketIndex locates the bucket for v: the first bound >= v, or the
// +Inf bucket past the end. Bounds are sorted (enforced at registration),
// so a binary search wins once the layout grows past a cacheline of
// floats — runtime-derived histograms carry 40+ buckets; see
// BenchmarkHistogramBucket for the crossover against the linear scan.
func bucketIndex(bounds []float64, v float64) int {
	if len(bounds) <= 8 {
		return bucketIndexLinear(bounds, v)
	}
	return sort.SearchFloat64s(bounds, v)
}

// bucketIndexLinear is the pre-binary-search scan, kept for small layouts
// and as the benchmark baseline.
func bucketIndexLinear(bounds []float64, v float64) int {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	return i
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LatencyBuckets is the default bucket layout for request/decision
// latencies in seconds: engine decisions land in the sub-microsecond to
// microsecond range, full HTTP round trips in milliseconds.
var LatencyBuckets = []float64{
	1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5,
}

// --- families and registry ---

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// labelSep joins label values into series keys; it cannot occur in valid
// UTF-8 label values produced by this codebase's callers.
const labelSep = "\xff"

type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64

	mu     sync.Mutex // serializes series creation and deletion
	series sync.Map   // joined label values -> *Counter | *Gauge | *Histogram
}

func (f *family) get(values []string) interface{} {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	if m, ok := f.series.Load(key); ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series.Load(key); ok {
		return m
	}
	var m interface{}
	switch f.typ {
	case typeCounter:
		m = &Counter{}
	case typeGauge:
		m = &Gauge{}
	case typeHistogram:
		m = &Histogram{
			bounds:    f.buckets,
			counts:    make([]atomic.Int64, len(f.buckets)+1),
			exemplars: make([]atomic.Pointer[exemplar], len(f.buckets)+1),
		}
	}
	f.series.Store(key, m)
	return m
}

func (f *family) delete(values []string) {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	f.mu.Lock()
	f.series.Delete(strings.Join(values, labelSep))
	f.mu.Unlock()
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use. The pointer is stable; cache it on hot paths.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).(*Counter) }

// Delete removes the series for the given label values.
func (v *CounterVec) Delete(values ...string) { v.f.delete(values) }

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).(*Gauge) }

// Delete removes the series for the given label values (used when a
// session closes, so its gauges stop being exported).
func (v *GaugeVec) Delete(values ...string) { v.f.delete(values) }

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).(*Histogram) }

// splitKey recovers label values from a series key. The label count must
// come from the family: a single empty label value also joins to "", so
// the key alone cannot distinguish it from an unlabeled series.
func splitKey(key string, nLabels int) []string {
	if nLabels == 0 {
		return nil
	}
	return strings.Split(key, labelSep)
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) family(name, help, typ string, buckets []float64, labels []string) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validMetricName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s with %d labels (was %s with %d)",
				name, typ, len(labels), f.typ, len(f.labels)))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, buckets: buckets}
	r.families[name] = f
	return f
}

// CounterVec registers (or fetches) a counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, typeCounter, nil, labels)}
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// GaugeVec registers (or fetches) a gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, typeGauge, nil, labels)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// HistogramVec registers (or fetches) a histogram family. A nil buckets
// slice selects LatencyBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not strictly increasing", name))
		}
	}
	return &HistogramVec{r.family(name, help, typeHistogram, buckets, labels)}
}

// Histogram registers (or fetches) an unlabeled histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// RegisterCollector installs a scrape-time hook: fn runs before every
// WritePrometheus, WriteOpenMetrics and Gather, ahead of any family
// being read, so it can refresh series whose source of truth lives
// elsewhere (the Go runtime, an OS counter, per-entry state). Hooks run
// unlocked and may use the registry freely.
func (r *Registry) RegisterCollector(fn func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// snapshot runs the registered collectors, then returns the families
// sorted by name: the first step of every render and of Gather.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	hooks := r.collectors
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	slices.SortFunc(fams, func(a, b *family) int { return strings.Compare(a.name, b.name) })
	return fams
}

// row is one series of a family as the writers render it.
type row struct {
	key    string // the joined label values the series is stored under
	values []string
	metric interface{}
}

// rows returns the family's series sorted by their stored key, which is
// label-value order, so scrapes are deterministic.
func (f *family) rows() []row {
	var rows []row
	f.series.Range(func(k, m interface{}) bool {
		key := k.(string)
		rows = append(rows, row{key, splitKey(key, len(f.labels)), m})
		return true
	})
	slices.SortFunc(rows, func(a, b row) int { return strings.Compare(a.key, b.key) })
	return rows
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families and series sorted for deterministic
// scrapes. Registered collectors run first.
func (r *Registry) WritePrometheus(w io.Writer) { r.write(w, false) }

// write renders every family in the Prometheus text format or, with om,
// in OpenMetrics 1.0 (openmetrics.go says how the two differ).
func (r *Registry) write(w io.Writer, om bool) {
	for _, f := range r.snapshot() {
		rows := f.rows()
		if len(rows) == 0 {
			continue
		}
		famName, sampleName := f.name, f.name
		if om && f.typ == typeCounter {
			famName = strings.TrimSuffix(famName, "_total")
			if !strings.HasSuffix(sampleName, "_total") {
				sampleName += "_total"
			}
		}
		if f.help != "" && !om {
			fmt.Fprintf(w, "# HELP %s %s\n", famName, escapeHelp(f.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", famName, f.typ)
		if f.help != "" && om {
			fmt.Fprintf(w, "# HELP %s %s\n", famName, escapeHelp(f.help))
		}
		for _, rw := range rows {
			labels := labelString(f.labels, rw.values, "", "")
			switch m := rw.metric.(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", sampleName, labels, m.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(m.Value()))
			case *Histogram:
				var cum int64
				for i := range m.counts {
					cum += m.counts[i].Load()
					le := "+Inf"
					if i < len(m.bounds) {
						le = formatFloat(m.bounds[i])
					}
					var ex string
					if e := m.exemplars[i].Load(); om && e != nil {
						ex = fmt.Sprintf(" # {trace_id=\"%s\"} %s %s", escapeLabel(e.traceID), formatFloat(e.value), formatTimestamp(e.ts))
					}
					fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name, labelString(f.labels, rw.values, "le", le), cum, ex)
				}
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labels, formatFloat(m.Sum()))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, labels, cum)
			}
		}
	}
	if om {
		fmt.Fprint(w, "# EOF\n")
	}
}

// labelString renders {k1="v1",...}, optionally appending one extra pair
// (the histogram "le" bound); it returns "" when there are no pairs.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
