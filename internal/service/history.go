package service

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"datacache/internal/obs"
	"datacache/internal/obs/tsdb"
)

// This file wires the embedded metrics history (internal/obs/tsdb) into
// the server: every registered series is sampled into the tiered store,
// GET /v1/metrics/history answers windowed aggregate queries, anomaly
// transitions flow through the same dc_alert_state / transitions /
// /v1/alerts plumbing as the per-session SLO rules, and retired series
// drop their alert state in lockstep.

// DefaultHistoryWindow is the query window when the request names none.
const DefaultHistoryWindow = 5 * time.Minute

// MetricsHistoryResponse is the GET /v1/metrics/history reply: the
// aggregated series for the resolved window plus every alert transition
// (host SLO rules and metric anomalies alike) that falls inside it.
type MetricsHistoryResponse struct {
	Agg         string            `json:"agg"`
	Start       float64           `json:"start"`
	End         float64           `json:"end"`
	Step        float64           `json:"step"`
	Interval    float64           `json:"interval"` // sampling cadence, seconds
	Series      []tsdb.Series     `json:"series"`
	Annotations []tsdb.Annotation `json:"annotations,omitempty"`
}

// initHistory builds the history store and connects the anomaly layer
// to the alert plumbing. Called from New once the metric handles and
// tracer exist.
func (s *Server) initHistory() {
	s.history = tsdb.New(s.reg, s.historyOpts)
	rules := s.anomalyRules
	if !s.anomalySet {
		rules = tsdb.DefaultAnomalyRules()
	}
	s.history.SetAnomalyRules(rules)
	// Anomaly transitions ride the session-alert rails: state gauge
	// (keyed by the watched series), transition counter, WARN log.
	s.history.SetTransitionHook(func(series string, rule obs.Rule, from, to obs.AlertState, at, score float64) {
		s.alertState.With(series, rule.Name).Set(float64(to))
		s.alertTrans.With(rule.Name, to.String()).Inc()
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "metric anomaly transition",
			slog.String("series", series),
			slog.String("alert", rule.Name),
			slog.String("from", from.String()),
			slog.String("to", to.String()),
			slog.Float64("at", at),
			slog.Float64("score", score),
		)
	})
	// When a watched series expires (its session or pool closed one
	// retention window ago), its alert state retires with it.
	s.history.SetRetireHook(func(series string, ruleNames []string) {
		for _, name := range ruleNames {
			s.alertState.Delete(series, name)
		}
	})
	// Firing annotations link to the highest-regret retained trace —
	// the exemplar a responder should open first.
	s.history.SetTraceLinker(func(series string) string { return s.tracer.Exemplar("") })
	histSeries := s.reg.Gauge("dc_history_series",
		"Series retained by the embedded metrics history store.")
	histDropped := s.reg.Gauge("dc_history_series_dropped",
		"Series the history store refused because its MaxSeries bound was reached.")
	histSamples := s.reg.Gauge("dc_history_samples",
		"Completed history sampling passes.")
	s.reg.RegisterCollector(func() {
		st := s.history.Stats()
		histSeries.Set(float64(st.Series))
		histDropped.Set(float64(st.Dropped))
		histSamples.Set(float64(st.Samples))
	})
}

// History exposes the embedded metrics history store (dcserved wires
// flags through it; tests drive deterministic sampling passes).
func (s *Server) History() *tsdb.Store { return s.history }

// SampleMetricsNow runs one synchronous history sampling pass.
func (s *Server) SampleMetricsNow() { s.history.Sample() }

// StartHistorySampler launches a background goroutine sampling every
// interval (<= 0 selects the store's configured interval) and returns
// an idempotent stop function. Embedded servers skip this — the history
// endpoint samples lazily on query — so tests never leak goroutines;
// dcserved starts it for continuous retention and anomaly detection.
func (s *Server) StartHistorySampler(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = s.history.Interval()
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.history.Sample()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// handleMetricsHistory answers GET /v1/metrics/history. Parameters:
// series (required; comma-separated exact keys or family names), window
// and step (Go durations), end (unix seconds, default now), agg (one of
// last/min/max/avg/rate/p50/p99, default avg), limit (max series),
// annotations (default true). A sampling pass runs first when the last
// one is older than the store interval, so one-shot queries against
// servers with no background sampler still see fresh points.
func (s *Server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.httpError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	qs := r.URL.Query()
	rawSeries := strings.TrimSpace(qs.Get("series"))
	if rawSeries == "" {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("series parameter required (family name or exact series key)"))
		return
	}
	var selectors []string
	for _, sel := range strings.Split(rawSeries, ",") {
		if sel = strings.TrimSpace(sel); sel != "" {
			selectors = append(selectors, sel)
		}
	}
	window := DefaultHistoryWindow
	if v := qs.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("bad window %q: want a positive Go duration", v))
			return
		}
		window = d
	}
	var step float64
	if v := qs.Get("step"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("bad step %q: want a positive Go duration", v))
			return
		}
		step = d.Seconds()
	}
	agg := qs.Get("agg")
	if agg == "" {
		agg = tsdb.AggAvg
	}
	if !tsdb.ValidAgg(agg) {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("bad agg %q: want last, min, max, avg, rate, p50 or p99", agg))
		return
	}
	limit := 0
	if v := qs.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}

	s.history.SampleIfStale()

	end := s.history.NowUnix()
	if v := qs.Get("end"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("bad end %q: want unix seconds", v))
			return
		}
		end = f
	}
	start := end - window.Seconds()

	series, err := s.history.Query(tsdb.Query{
		Selectors: selectors,
		Start:     start,
		End:       end,
		Step:      step,
		Agg:       agg,
		Limit:     limit,
	})
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	if series == nil {
		series = []tsdb.Series{}
	}
	resp := MetricsHistoryResponse{
		Agg:      agg,
		Start:    start,
		End:      end,
		Step:     step,
		Interval: s.history.Interval().Seconds(),
		Series:   series,
	}
	if qs.Get("annotations") != "false" {
		resp.Annotations = s.history.Annotations(start, end)
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}
