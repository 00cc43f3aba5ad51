package service

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"datacache/internal/obs"
)

// GET /v1/traces surfaces the tracer's bounded span store: every retained
// trace summarized one line each, ordered by summed regret descending, so
// the top of the list is literally "the requests that pushed the ratio".
// Filters arrive as query parameters:
//
//	session=<id>      only traces touching that session
//	min_regret=<x>    summed span regret at least x (may be negative)
//	min_duration=<s>  root span duration at least s seconds
//	error=true        only traces containing an error span
//	limit=<n>         at most n summaries (default 100)
//
// GET /v1/traces/{id} returns every span of one trace, local root first.

// TraceListResponse is the GET /v1/traces reply.
type TraceListResponse struct {
	Count  int                `json:"count"`
	Traces []obs.TraceSummary `json:"traces"`
}

// TraceGetResponse is the GET /v1/traces/{id} reply.
type TraceGetResponse struct {
	TraceID string     `json:"traceId"`
	Spans   []obs.Span `json:"spans"`
}

// parseTraceQuery builds the store query from URL parameters.
func parseTraceQuery(vals url.Values) (obs.TraceQuery, error) {
	q := obs.TraceQuery{
		Session:   vals.Get("session"),
		MinRegret: math.Inf(-1), // regret can be negative; absent means no floor
	}
	if v := vals.Get("min_regret"); v != "" {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return q, fmt.Errorf("bad min_regret %q: %v", v, err)
		}
		q.MinRegret = x
	}
	if v := vals.Get("min_duration"); v != "" {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return q, fmt.Errorf("bad min_duration %q: %v", v, err)
		}
		q.MinDuration = x
	}
	if v := vals.Get("error"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return q, fmt.Errorf("bad error %q: %v", v, err)
		}
		q.ErrorOnly = b
	}
	if v := vals.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return q, fmt.Errorf("bad limit %q", v)
		}
		q.Limit = n
	}
	return q, nil
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.httpError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	q, err := parseTraceQuery(r.URL.Query())
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	traces := s.tracer.Traces(q)
	if traces == nil {
		traces = []obs.TraceSummary{} // render [] rather than null
	}
	s.writeJSON(w, r, http.StatusOK, TraceListResponse{Count: len(traces), Traces: traces})
}

func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.httpError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/traces/")
	if id == "" || strings.Contains(id, "/") {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("bad trace id %q", id))
		return
	}
	spans := s.tracer.TraceSpans(id)
	if len(spans) == 0 {
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown trace %q", id))
		return
	}
	s.writeJSON(w, r, http.StatusOK, TraceGetResponse{TraceID: id, Spans: spans})
}
