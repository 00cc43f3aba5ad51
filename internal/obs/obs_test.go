package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
)

// Each visits every series in unspecified order.
func (v *CounterVec) Each(fn func(labelValues []string, value int64)) {
	v.f.series.Range(func(k, m interface{}) bool {
		fn(splitKey(k.(string), len(v.f.labels)), m.(*Counter).Value())
		return true
	})
}

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %v, want 1.5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_test_seconds", "test", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-106) > 1e-12 {
		t.Errorf("sum = %v, want 106", h.Sum())
	}
	// Per-bucket (non-cumulative): (<=1): 0.5 and 1.0; (1,2]: 1.5; (2,4]: 3; +Inf: 100.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("dc_total", "a counter").Add(7)
	r.GaugeVec("dc_ratio", "per-session ratio", "session").With(`s"1\`).Set(1.25)
	h := r.Histogram("dc_lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	got := buf.String()
	want := strings.Join([]string{
		"# HELP dc_lat_seconds latency",
		"# TYPE dc_lat_seconds histogram",
		`dc_lat_seconds_bucket{le="0.1"} 1`,
		`dc_lat_seconds_bucket{le="1"} 2`,
		`dc_lat_seconds_bucket{le="+Inf"} 3`,
		"dc_lat_seconds_sum 5.55",
		"dc_lat_seconds_count 3",
		"# HELP dc_ratio per-session ratio",
		"# TYPE dc_ratio gauge",
		`dc_ratio{session="s\"1\\"} 1.25`,
		"# HELP dc_total a counter",
		"# TYPE dc_total counter",
		"dc_total 7",
		"",
	}, "\n")
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestVecDeleteRemovesSeries(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("dc_gone", "", "id")
	gv.With("a").Set(1)
	gv.Delete("a")
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if strings.Contains(buf.String(), "dc_gone{") {
		t.Errorf("deleted series still exported:\n%s", buf.String())
	}
}

func TestCounterVecEach(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("dc_routes", "", "route")
	cv.With("/a").Add(2)
	cv.With("/b").Inc()
	got := map[string]int64{}
	cv.Each(func(values []string, v int64) { got[values[0]] = v })
	if got["/a"] != 2 || got["/b"] != 1 {
		t.Errorf("Each snapshot = %v", got)
	}
}

func TestRegistryReregisterPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dc_x", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering with a different type should panic")
		}
	}()
	r.Gauge("dc_x", "")
}

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dc_conc_total", "")
	h := r.Histogram("dc_conc_seconds", "", []float64{0.5})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.25)
				var buf bytes.Buffer
				if i%100 == 0 {
					r.WritePrometheus(&buf) // concurrent scrapes must be safe
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if math.Abs(h.Sum()-0.25*workers*per) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), 0.25*workers*per)
	}
}

func TestRingWrapsAndOrders(t *testing.T) {
	r := Ring{Cap: 3}
	for i := 1; i <= 5; i++ {
		r.Observe(Event{At: float64(i), Kind: KindRequest, Server: i})
	}
	evs := r.Events()
	if len(evs) != 3 || r.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", len(evs), r.Dropped())
	}
	for i, want := range []float64{3, 4, 5} {
		if evs[i].At != want {
			t.Errorf("event %d at %v, want %v", i, evs[i].At, want)
		}
	}
	if !strings.Contains(r.String(), "2 earlier events dropped") {
		t.Errorf("rendering does not mention dropped events:\n%s", r.String())
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Errorf("reset left len=%d dropped=%d", r.Len(), r.Dropped())
	}
}

func TestEventJSONAndFormat(t *testing.T) {
	b, err := json.Marshal(Event{At: 1.5, Kind: KindTransfer, Server: 2, From: 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"at":1.5,"kind":"transfer","server":2,"from":1}` {
		t.Errorf("json = %s", b)
	}
	if got := FormatEvent(Event{At: 1.5, Kind: KindTransfer, Server: 2, From: 1}); !strings.Contains(got, "transfer s1 -> s2") {
		t.Errorf("format = %q", got)
	}
	if KindEpochReset.String() != "epoch-reset" || EventKind(99).String() != "kind(99)" {
		t.Error("kind names changed")
	}
}

func TestMultiObserver(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Error("Multi of nils should be nil")
	}
	var a, b []Event
	o := Multi(nil, ObserverFunc(func(ev Event) { a = append(a, ev) }),
		ObserverFunc(func(ev Event) { b = append(b, ev) }))
	o.Observe(Event{At: 1})
	if len(a) != 1 || len(b) != 1 {
		t.Errorf("fan-out delivered %d/%d, want 1/1", len(a), len(b))
	}
}

func TestLoggerAndRequestIDs(t *testing.T) {
	if _, err := ParseLevel("nope"); err == nil {
		t.Error("bad level accepted")
	}
	lv, err := ParseLevel("warn")
	if err != nil || lv != slog.LevelWarn {
		t.Errorf("ParseLevel(warn) = %v, %v", lv, err)
	}
	var buf bytes.Buffer
	NewLogger(&buf, slog.LevelInfo, "json").Info("hello", "k", 1)
	var line map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil || line["msg"] != "hello" {
		t.Errorf("json log line %q: %v", buf.String(), err)
	}

	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %s", id)
		}
		seen[id] = true
	}
	ctx := WithRequestID(context.Background(), "req-1")
	if RequestIDFrom(ctx) != "req-1" || RequestIDFrom(context.Background()) != "" {
		t.Error("request-id context round trip failed")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	_ = fmt.Sprint(c.Value())
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "", nil)
	for i := 0; i < b.N; i++ {
		h.Observe(1e-6)
	}
}
