package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// OpenMetrics 1.0 rendering (https://prometheus.io/docs/specs/om/). It
// differs from the Prometheus 0.0.4 text format in three ways this
// registry cares about: counter families advertise their name without the
// _total suffix in TYPE/HELP lines while samples keep it, histogram
// _bucket samples may carry an exemplar — " # {trace_id=\"...\"} value
// timestamp" — linking the bucket to one retained trace, and the exposition
// ends with a mandatory "# EOF" terminator. Scrapers opt in via
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
	i := bucketIndex(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	if traceID != "" && i < len(h.exemplars) {
		h.exemplars[i].Store(&exemplar{
			traceID: traceID,
			value:   v,
			ts:      float64(time.Now().UnixNano()) / 1e9,
		})
	}
}

// Exemplars returns the trace ids currently attached to the histogram's
// buckets (order unspecified); used by tests and the console.
func (h *Histogram) Exemplars() []string {
	var out []string
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			out = append(out, e.traceID)
		}
	}
	return out
}

// WriteOpenMetrics renders every family in the OpenMetrics 1.0 text
// format, families and series sorted for deterministic scrapes.
// Registered collectors run first, as in WritePrometheus.
func (r *Registry) WriteOpenMetrics(w io.Writer) {
	for _, f := range r.snapshot() {
		rows := f.rows()
		if len(rows) == 0 {
			continue
		}
		// OpenMetrics metric families are named without the counter
		// _total suffix; the samples keep it.
		famName := f.name
		sampleName := f.name
		if f.typ == typeCounter {
			famName = strings.TrimSuffix(famName, "_total")
			if !strings.HasSuffix(sampleName, "_total") {
				sampleName += "_total"
			}
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", famName, f.typ)
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", famName, escapeHelp(f.help))
		}
		for _, rw := range rows {
			switch m := rw.metric.(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", sampleName, labelString(f.labels, rw.values, "", ""), m.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, rw.values, "", ""), formatFloat(m.Value()))
			case *Histogram:
				var cum int64
				for i := range m.counts {
					cum += m.counts[i].Load()
					le := "+Inf"
					if i < len(m.bounds) {
						le = formatFloat(m.bounds[i])
					}
					fmt.Fprintf(w, "%s_bucket%s %d", f.name, labelString(f.labels, rw.values, "le", le), cum)
					if e := m.exemplars[i].Load(); e != nil {
						fmt.Fprintf(w, " # {trace_id=\"%s\"} %s %s",
							escapeLabel(e.traceID), formatFloat(e.value), formatTimestamp(e.ts))
					}
					fmt.Fprintln(w)
				}
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, rw.values, "", ""), formatFloat(m.Sum()))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, rw.values, "", ""), cum)
			}
		}
	}
	fmt.Fprint(w, "# EOF\n")
}

// formatTimestamp renders unix seconds with millisecond precision, the
// customary exemplar timestamp shape.
func formatTimestamp(ts float64) string {
	return strconv.FormatFloat(ts, 'f', 3, 64)
}
