package obs

import (
	"bytes"
	"strings"
	"testing"
)

// Exemplars returns the trace ids currently attached to the histogram's
// buckets (order unspecified).
func (h *Histogram) Exemplars() []string {
	var out []string
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			out = append(out, e.traceID)
		}
	}
	return out
}

func TestWriteOpenMetrics(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("dc_http_requests_total", "Requests served.", "route")
	c.With("/healthz").Add(3)
	g := r.Gauge("dc_sessions", "Open sessions.")
	g.Set(2)
	h := r.HistogramVec("dc_http_request_seconds", "Request latency.", []float64{0.1, 1}, "route")
	hist := h.With("/healthz")
	hist.Observe(0.05)
	hist.ObserveExemplar(0.5, "4bf92f3577b34da6a3ce929d0e0e4736")

	var buf bytes.Buffer
	r.WriteOpenMetrics(&buf)
	out := buf.String()

	want := []string{
		// Counter family advertised without _total; samples keep it.
		"# TYPE dc_http_requests counter\n",
		"# HELP dc_http_requests Requests served.\n",
		"dc_http_requests_total{route=\"/healthz\"} 3\n",
		"# TYPE dc_sessions gauge\n",
		"dc_sessions 2\n",
		"# TYPE dc_http_request_seconds histogram\n",
		"dc_http_request_seconds_bucket{route=\"/healthz\",le=\"0.1\"} 1\n",
		// The exemplar rides on the bucket the observation landed in.
		"dc_http_request_seconds_bucket{route=\"/healthz\",le=\"1\"} 2 # {trace_id=\"4bf92f3577b34da6a3ce929d0e0e4736\"} 0.5 ",
		"dc_http_request_seconds_count{route=\"/healthz\"} 2\n",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("OpenMetrics output missing %q; got:\n%s", w, out)
		}
	}
	if strings.Contains(out, "# TYPE dc_http_requests_total") {
		t.Fatal("counter TYPE line kept _total suffix")
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("output does not end with # EOF; got tail %q", out[len(out)-30:])
	}
}

func TestObserveExemplarCountsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", "", []float64{1, 2})
	h.ObserveExemplar(0.5, "aaaa")
	h.ObserveExemplar(1.5, "bbbb")
	h.Observe(3)
	if got := h.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	if got := h.Sum(); got != 5 {
		t.Fatalf("Sum = %v, want 5", got)
	}
	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("Exemplars = %v, want 2 entries", ex)
	}
	// Empty trace ids record the observation but attach nothing.
	h.ObserveExemplar(0.25, "")
	if got := len(h.Exemplars()); got != 2 {
		t.Fatalf("empty trace id attached an exemplar: %d", got)
	}
}
