package obs

import (
	"io"
	"strconv"
	"time"
)

// OpenMetrics 1.0 rendering (https://prometheus.io/docs/specs/om/). It
// differs from the Prometheus 0.0.4 text format in four ways this
// registry cares about: counter families advertise their name without the
// _total suffix in TYPE/HELP lines while samples keep it, TYPE comes
// before HELP, histogram _bucket samples may carry an exemplar —
// " # {trace_id=\"...\"} value timestamp" — linking the bucket to one
// retained trace, and the exposition ends with a mandatory "# EOF"
// terminator. Registry.write renders both. Scrapers opt in via
//
//	Accept: application/openmetrics-text
//
// and the service handler content-negotiates between the two renderers.

// ContentTypeOpenMetrics is the Content-Type of an OpenMetrics exposition.
const ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// exemplar is one retained observation attached to a histogram bucket.
type exemplar struct {
	traceID string
	value   float64
	ts      float64 // unix seconds
}

// ObserveExemplar records v like Observe and, when traceID is non-empty,
// attaches it as the bucket's exemplar so an OpenMetrics scrape can link
// the latency outlier to its retained trace. Lock-free: the newest
// exemplar per bucket wins.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	if i := bucketIndex(h.bounds, v); i < len(h.exemplars) {
		h.exemplars[i].Store(&exemplar{
			traceID: traceID,
			value:   v,
			ts:      float64(time.Now().UnixNano()) / 1e9,
		})
	}
}

// WriteOpenMetrics renders every family in the OpenMetrics 1.0 text
// format, families and series sorted for deterministic scrapes.
// Registered collectors run first, as in WritePrometheus.
func (r *Registry) WriteOpenMetrics(w io.Writer) { r.write(w, true) }

// formatTimestamp renders unix seconds with millisecond precision, the
// customary exemplar timestamp shape.
func formatTimestamp(ts float64) string {
	return strconv.FormatFloat(ts, 'f', 3, 64)
}
