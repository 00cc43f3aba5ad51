// Package service exposes the library as an HTTP data-caching planning
// service: optimize a request trace, simulate online policies against it,
// generate workloads, and maintain incremental planning streams whose
// optimum is updated request by request. Everything is stdlib net/http with
// JSON bodies; cmd/dcserved mounts it.
//
// Every route runs behind instrumentation middleware: a per-request ID
// (propagated as the X-Request-Id header, into error bodies and into the
// structured log), a status-labeled request counter and a per-route
// latency histogram. /metrics renders the whole registry in the
// Prometheus text exposition format; every unmounted path, retired
// routes such as /metricz included, answers 404 inside the error
// envelope. Live sessions additionally export
// engine decision counters, a decision-latency histogram, per-session
// cost / optimum / cost_over_optimum / live_copies gauges, and a bounded
// event trace at GET /v1/session/{id}/trace. Serving only updates the
// counters and histograms; every per-session and per-pool series is read
// from the entry when a scrape or a history sample asks.
//
// On top of that sits the SLO layer: every session tracks its
// competitive ratio over a rolling window and evaluates alert rules
// (Theorem3Rule by default) against it. GET /v1/session/{id}/slo returns
// the windowed reading plus a per-server cost breakdown, GET /v1/alerts
// lists every session's alert standing, GET /readyz degrades while any
// alert is firing, and /metrics carries dc_session_server_cost,
// dc_alert_state and dc_alert_transitions_total.
//
// The serving core is batch-first and lock-striped: session and stream
// ids hash onto independent registry shards (registry.go), per-session
// serialization lives in a context-aware entry lock that a disconnected
// client abandons, POST /v1/session/{id}/requests ingests an ordered
// batch (JSON array or NDJSON) under one lock acquisition with
// partial-failure semantics, and a per-session inflight budget sheds
// excess load with 429 + Retry-After. All /v1/* errors share the
// {"error": {"code", "message", "request_id"}} envelope (errors.go),
// which the typed Go client package (client/) decodes.
package service

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datacache"
	"datacache/internal/model"
	"datacache/internal/multi"
	"datacache/internal/obs"
	"datacache/internal/obs/tsdb"
	"datacache/internal/offline"
	"datacache/internal/online"
	"datacache/internal/recorder"
	"datacache/internal/workload"
)

// Version identifies the service build in /healthz and /v1/spec.
const Version = "1.11.0"

// DefaultTraceCap bounds each session's decision-event ring unless
// WithTraceCap overrides it.
const DefaultTraceCap = 256

// DefaultSLOWindow is the rolling-window length (in requests) of each
// session's competitive-ratio SLO tracker unless WithSLOWindow overrides
// it.
const DefaultSLOWindow = 64

// DefaultInflightBudget bounds how many serve operations (single or
// batch) may queue against one session at a time unless
// WithInflightBudget overrides it. Excess requests are shed with
// 429 + Retry-After instead of piling up behind the session lock.
const DefaultInflightBudget = 64

// DefaultTraceSeed seeds the tracer's span-id generator unless
// WithTraceSeed overrides it. Trace ids never come from the global
// math/rand state.
const DefaultTraceSeed = 1

// Server is the HTTP facade. The zero value is not usable; call New.
type Server struct {
	mux          *http.ServeMux
	log          *slog.Logger
	reg          *obs.Registry
	traceCap     int
	sloWindow    int
	inflight     int64
	runtimeMetr  bool
	shadowMargin float64

	// Distributed tracing: the tracer mints server spans in the request
	// middleware, the session handlers hang per-decision child spans off
	// them, and /v1/traces queries the bounded store. Construction-time
	// knobs below; the tracer itself is built in New.
	tracer       *obs.Tracer
	traceSeed    int64
	traceSample  float64
	traceRegret  float64
	spanCap      int
	spanExporter obs.SpanExporter

	// Metric handles, resolved once at construction. Serving updates only
	// counters and histograms, and takes no server-wide lock; the
	// session- and pool-labelled gauge families are written by
	// collectEntries when a scrape or a history sample asks.
	httpRequests   *obs.CounterVec   // route, code
	httpLatency    *obs.HistogramVec // route
	engineEvents   *obs.CounterVec   // kind: request|hit|transfer|drop|timer|epoch-reset|mispredict
	engineEventK   []*obs.Counter    // the same counters indexed by obs.EventKind
	decisionSec    *obs.Histogram    // engine decision latency, seconds
	sessionCost    *obs.GaugeVec     // session
	sessionOpt     *obs.GaugeVec     // session
	sessionRatio   *obs.GaugeVec     // session
	sessionLive    *obs.GaugeVec     // session
	sessionWRat    *obs.GaugeVec     // session (windowed ratio)
	serverCost     *obs.GaugeVec     // session, server, kind: caching|transfer
	alertState     *obs.GaugeVec     // session, alert (numeric AlertState code)
	alertTrans     *obs.CounterVec   // alert, to
	sessionsOpen   *obs.Gauge
	streamsOpen    *obs.Gauge
	poolsOpen      *obs.Gauge
	poolItems      *obs.GaugeVec   // pool (live engine instances)
	poolCost       *obs.GaugeVec   // pool
	poolOpt        *obs.GaugeVec   // pool
	poolRatio      *obs.GaugeVec   // pool
	poolEvict      *obs.CounterVec // pool
	poolTenantWRat *obs.GaugeVec   // pool, tenant
	plannerHitRat  *obs.GaugeVec   // session (predicted-vs-actual hit ratio)
	plannerDepth   *obs.GaugeVec   // session (active plan depth)
	plannerConf    *obs.GaugeVec   // session (rolling prediction confidence)
	plannerPlans   *obs.GaugeVec   // session (plans built)
	plannerMispred *obs.GaugeVec   // session (planned predictions that came false)
	shadowCost     *obs.GaugeVec   // session, policy (counterfactual cost)
	shadowRatio    *obs.GaugeVec   // session, policy (counterfactual cost over optimum)
	shadowBest     *obs.GaugeVec   // session, policy (1 on the minimum-cost policy)
	poolShadowCost *obs.GaugeVec   // pool, policy
	poolShadowRat  *obs.GaugeVec   // pool, policy
	poolShadowBest *obs.GaugeVec   // pool, policy
	batchSize      *obs.Histogram  // requests per accepted batch
	batchShed      *obs.Counter    // batches shed by the inflight budget
	shardSess      [numShards]*obs.Gauge

	// Flight recorder: when WithRecorder installs a writer, every session
	// and pool created afterwards records its served requests through it,
	// GET {id}/record downloads the recording, and the dc_recorder_*
	// gauges track the writer's counters until it closes.
	recorder     *recorder.Writer
	recRecords   *obs.GaugeVec // mode
	recBytes     *obs.GaugeVec // mode
	recFsyncs    *obs.GaugeVec // mode
	recDropped   *obs.GaugeVec // mode
	recRotations *obs.GaugeVec // mode
	recFiles     *obs.GaugeVec // mode
	recRetired   atomic.Bool   // recorder series dropped after close

	// Embedded metrics history (history.go): the tsdb store sampling
	// every registered series, its bounds, and the anomaly rule set
	// (nil + !anomalySet selects tsdb.DefaultAnomalyRules).
	history      *tsdb.Store
	historyOpts  tsdb.Options
	anomalyRules []tsdb.AnomalyRule
	anomalySet   bool

	// The session and stream tables are lock-striped (registry.go): ids
	// hash onto numShards shards, each behind its own RWMutex, so
	// operations on unrelated sessions never contend. Per-session
	// serialization lives in each entry's own context-aware lock.
	streams  *registry[*streamEntry]
	sessions *registry[*sessionEntry]
	pools    *registry[*poolEntry]
	nextID   atomic.Int64
}

// streamEntry wraps an incremental planning stream with its own lock, so
// appends to different streams proceed in parallel.
type streamEntry struct {
	mu  sync.Mutex
	inc *offline.Incremental
}

// Option customizes a Server.
type Option func(*Server)

// WithLogger installs the structured request/error logger. The default
// discards everything, keeping embedded servers (tests, examples) quiet;
// cmd/dcserved always installs one.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// WithTraceCap sets the per-session decision-trace ring size (0 disables
// tracing, default DefaultTraceCap).
func WithTraceCap(n int) Option {
	return func(s *Server) { s.traceCap = n }
}

// WithSLOWindow sets the per-session SLO rolling-window length in
// requests (0 disables SLO tracking and the alert routes' content,
// default DefaultSLOWindow).
func WithSLOWindow(n int) Option {
	return func(s *Server) { s.sloWindow = n }
}

// WithRuntimeMetrics additionally exports Go runtime health (goroutines,
// heap bytes, GC pauses) on /metrics. Off by default so embedded test
// servers scrape deterministically; cmd/dcserved turns it on.
func WithRuntimeMetrics() Option {
	return func(s *Server) { s.runtimeMetr = true }
}

// WithInflightBudget sets how many serve operations may wait on one
// session before further ones are shed with 429 (default
// DefaultInflightBudget; values < 1 are clamped to 1).
func WithInflightBudget(n int) Option {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.inflight = int64(n)
	}
}

// WithTraceSampling sets the head-sampling rate of the request tracer in
// [0, 1] (default 1: every trace is retained). Tail rules — error, shed,
// or regret above the WithTraceRegret threshold — rescue traces head
// sampling passed on.
func WithTraceSampling(rate float64) Option {
	return func(s *Server) { s.traceSample = rate }
}

// WithTraceSeed seeds the tracer's span-id generator (default
// DefaultTraceSeed). Production servers pass something time-derived;
// tests keep the default for reproducible ids.
func WithTraceSeed(seed int64) Option {
	return func(s *Server) { s.traceSeed = seed }
}

// WithTraceRegret enables the regret tail rule: any trace containing a
// serve span whose per-request regret reaches the threshold is retained
// even when head sampling passed on it (0, the default, disables it).
func WithTraceRegret(threshold float64) Option {
	return func(s *Server) { s.traceRegret = threshold }
}

// WithSpanCap bounds the in-memory span store (default
// obs.DefaultSpanCap); the oldest spans are evicted past the cap.
func WithSpanCap(n int) Option {
	return func(s *Server) { s.spanCap = n }
}

// WithSpanExporter additionally streams every retained span to exp (for
// example an obs.NDJSONExporter over a file).
func WithSpanExporter(exp obs.SpanExporter) Option {
	return func(s *Server) { s.spanExporter = exp }
}

// WithShadowMargin sets the shadow_beats_live alert margin for sessions
// created with shadow policies: the alert breaches once the live
// policy's windowed cost exceeds the best shadow's by this fraction
// (default datacache.DefaultShadowMargin; negative disables the alert
// while keeping the shadows).
func WithShadowMargin(margin float64) Option {
	return func(s *Server) {
		if margin != 0 {
			s.shadowMargin = margin
		}
	}
}

// WithRecorder installs a flight-recorder writer: every session and pool
// created on this server records each served request (decision, cost
// picture, trace id) through it, GET /v1/session/{id}/record and
// GET /v1/pool/{id}/record download the entries, and /metrics carries
// the dc_recorder_* writer gauges. The caller owns the writer's
// lifecycle (cmd/dcserved closes it on shutdown).
func WithRecorder(w *recorder.Writer) Option {
	return func(s *Server) { s.recorder = w }
}

// WithHistoryOptions overrides the embedded metrics-history store's
// bounds and cadence (ring capacities, retention window, sampling
// interval; zero fields keep the tsdb defaults). Tests shrink the
// retention window; cmd/dcserved wires its -history-* flags through.
func WithHistoryOptions(o tsdb.Options) Option {
	return func(s *Server) { s.historyOpts = o }
}

// WithAnomalyRules replaces the anomaly rule set the history store
// evaluates (default tsdb.DefaultAnomalyRules; an explicit empty slice
// disables anomaly detection).
func WithAnomalyRules(rules []tsdb.AnomalyRule) Option {
	return func(s *Server) { s.anomalyRules = rules; s.anomalySet = true }
}

// routeDocs describes every route for /v1/spec.
var routeDocs = map[string]string{
	"/healthz":            "GET liveness and version",
	"/v1/optimize":        "POST {sequence, model, schedule?, vectors?} -> optimum, bounds, single-copy cost",
	"/v1/explain":         "POST {sequence, model} -> per-request service decisions",
	"/v1/render":          "POST {sequence, model, width?} -> text space-time diagram",
	"/v1/simulate":        "POST {sequence, model, policy?} -> online cost vs optimum; policy is a policy spec (default sc)",
	"/v1/generate":        "POST {workload, m, n, seed, gap?} -> synthetic sequence",
	"/v1/plan":            "POST {m, model, events, online?} -> per-item catalog plan; online is a policy spec to bill each item with",
	"/v1/policies":        "GET the policy kinds every policy spec field accepts",
	"/v1/stream":          "POST {m, origin, model} -> incremental planning stream",
	"/v1/stream/":         "POST {id}/append, GET {id}, GET {id}/schedule, DELETE {id}",
	"/v1/session":         "POST {m, origin, model, policy?, shadows?} -> live policy-serving session (201 + Location); policy and shadows are policy specs",
	"/v1/session/":        "POST {id}/request, POST {id}/requests (bulk: JSON {requests:[{server,t}]} or NDJSON lines; partial apply + firstRejected), GET {id}, GET {id}/schedule, GET {id}/trace, GET {id}/slo, GET {id}/shadow (counterfactual policy standings), GET {id}/record?mode=binary|ndjson (download the session's flight recording; 404 without -record-dir), DELETE {id} (close; returns final state + schedule)",
	"/v1/pool":            "POST {m, origin, model, policy?, maxItems?, shadows?} -> multi-item multi-tenant serving pool (201 + Location)",
	"/v1/pool/":           "POST {id}/request ({tenant?, item, server, t}), POST {id}/requests (bulk, grouped by item under one lock; per-item partial apply), GET {id} (stats + tenant rollups), GET {id}/items?by=cost|regret&limit=k, GET {id}/shadow (pool-wide counterfactual policy standings), GET {id}/record?mode=binary|ndjson (download the pool's flight recording; 404 without -record-dir), DELETE {id} (close; retains final stats)",
	"/v1/alerts":          "GET every live session's SLO alerts plus metric_anomaly standings from the history store (pending, firing, resolved)",
	"/v1/traces":          "GET retained traces, regret-descending; filters: session, min_regret, min_duration, error, limit",
	"/v1/traces/":         "GET {id} -> every span of one retained trace",
	"/v1/metrics/history": "GET windowed metric history from the embedded tsdb: series=<family or exact key>[,..], window=, step=, agg=last|min|max|avg|rate|p50|p99, end=, limit=, annotations=; replies with aggregated points plus alert-transition annotations",
	"/v1/spec":            "GET this route list",
	"/readyz":             "GET readiness: degraded while any SLO alert is firing",
	"/metrics":            "GET Prometheus text-format metrics (HTTP, engine, per-session, SLO); Accept: application/openmetrics-text selects OpenMetrics 1.0 with trace exemplars",
}

// New builds the service with all routes mounted.
func New(opts ...Option) *Server {
	s := &Server{
		mux:          http.NewServeMux(),
		log:          obs.NopLogger(),
		reg:          obs.NewRegistry(),
		traceCap:     DefaultTraceCap,
		sloWindow:    DefaultSLOWindow,
		inflight:     DefaultInflightBudget,
		traceSeed:    DefaultTraceSeed,
		traceSample:  1,
		shadowMargin: datacache.DefaultShadowMargin,
		streams:      newRegistry[*streamEntry](),
		sessions:     newRegistry[*sessionEntry](),
		pools:        newRegistry[*poolEntry](),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.runtimeMetr {
		obs.RegisterRuntime(s.reg)
	}
	tracer, err := obs.NewTracer(obs.TracerOptions{
		Rand:            rand.New(rand.NewSource(s.traceSeed)),
		SampleRate:      s.traceSample,
		RegretThreshold: s.traceRegret,
		Cap:             s.spanCap,
		Exporter:        s.spanExporter,
	})
	if err != nil {
		panic(err) // unreachable: the rand source is always supplied
	}
	s.tracer = tracer
	s.httpRequests = s.reg.CounterVec("dc_http_requests_total",
		"HTTP requests served, by route and status code.", "route", "code")
	s.httpLatency = s.reg.HistogramVec("dc_http_request_seconds",
		"HTTP request latency in seconds, by route.", nil, "route")
	s.engineEvents = s.reg.CounterVec("dc_engine_events_total",
		"Engine decision events across all live sessions, by kind.", "kind")
	for k := obs.KindRequest; k <= obs.KindMispredict; k++ {
		s.engineEventK = append(s.engineEventK, s.engineEvents.With(k.String()))
	}
	s.decisionSec = s.reg.Histogram("dc_engine_decision_seconds",
		"Wall-clock latency of one engine serve decision (policy step plus streaming-DP append).", nil)
	s.sessionCost = s.reg.GaugeVec("dc_session_cost",
		"Accumulated policy cost of a live session.", "session")
	s.sessionOpt = s.reg.GaugeVec("dc_session_optimal_cost",
		"Exact off-line optimum of the prefix a live session has served.", "session")
	s.sessionRatio = s.reg.GaugeVec("dc_session_cost_over_optimum",
		"Live competitive ratio of a session (Theorem 3 bounds SC by 3).", "session")
	s.sessionLive = s.reg.GaugeVec("dc_session_live_copies",
		"Live item copies a session currently maintains.", "session")
	s.sessionWRat = s.reg.GaugeVec("dc_session_windowed_ratio",
		"Competitive ratio of a session over its rolling SLO window.", "session")
	s.serverCost = s.reg.GaugeVec("dc_session_server_cost",
		"Per-server cost attribution of a live session: kind=caching is mu times copy-holding time on the server, kind=transfer is lambda times transfers received by it.",
		"session", "server", "kind")
	s.alertState = s.reg.GaugeVec("dc_alert_state",
		"SLO alert standing per session and rule: 0 inactive, 1 pending, 2 firing, 3 resolved.",
		"session", "alert")
	s.alertTrans = s.reg.CounterVec("dc_alert_transitions_total",
		"SLO alert state transitions across all sessions, by rule and destination state.",
		"alert", "to")
	s.sessionsOpen = s.reg.Gauge("dc_sessions_open", "Open live-serving sessions.")
	s.streamsOpen = s.reg.Gauge("dc_streams_open", "Open incremental planning streams.")
	s.poolsOpen = s.reg.Gauge("dc_pools_open", "Open multi-item serving pools.")
	s.poolItems = s.reg.GaugeVec("dc_pool_items",
		"Items of a pool currently holding live engine state.", "pool")
	s.poolCost = s.reg.GaugeVec("dc_pool_cost",
		"Accumulated policy cost across every item of a pool (monotone under eviction).", "pool")
	s.poolOpt = s.reg.GaugeVec("dc_pool_optimal_cost",
		"Sum of per-item prefix optima across every item of a pool.", "pool")
	s.poolRatio = s.reg.GaugeVec("dc_pool_cost_over_optimum",
		"Pool-wide competitive ratio: cost over the sum of per-item optima.", "pool")
	s.poolEvict = s.reg.CounterVec("dc_pool_evictions_total",
		"Idle-item engine evictions forced by a pool's MaxItems bound.", "pool")
	s.poolTenantWRat = s.reg.GaugeVec("dc_pool_tenant_windowed_ratio",
		"Competitive ratio of one tenant of a pool over the rolling SLO window.", "pool", "tenant")
	s.plannerHitRat = s.reg.GaugeVec("dc_planner_predicted_hit_ratio",
		"Fraction of a hybrid session's planned predictions that came true (1 before any resolved).",
		"session")
	s.plannerDepth = s.reg.GaugeVec("dc_planner_horizon_depth",
		"Depth of a hybrid session's active rolling-horizon plan (0 while falling back to SC).",
		"session")
	s.plannerConf = s.reg.GaugeVec("dc_planner_confidence",
		"Rolling prediction accuracy of a hybrid session's Markov predictor (the confidence gate input).",
		"session")
	s.plannerPlans = s.reg.GaugeVec("dc_planner_plans",
		"Rolling-horizon plans a hybrid session has built.", "session")
	s.plannerMispred = s.reg.GaugeVec("dc_planner_mispredicts",
		"Planned predictions of a hybrid session that came false (each clears the plan).", "session")
	s.shadowCost = s.reg.GaugeVec("dc_shadow_cost",
		"Counterfactual cost a shadow policy would have accumulated on a session's live traffic.",
		"session", "policy")
	s.shadowRatio = s.reg.GaugeVec("dc_shadow_cost_over_optimum",
		"Counterfactual competitive ratio of a shadow policy on a session's live traffic.",
		"session", "policy")
	s.shadowBest = s.reg.GaugeVec("dc_shadow_best_policy",
		"1 on the minimum-cost policy of a shadowed session (live policy included), 0 elsewhere.",
		"session", "policy")
	s.poolShadowCost = s.reg.GaugeVec("dc_pool_shadow_cost",
		"Counterfactual cost a shadow policy would have accumulated across every item of a pool.",
		"pool", "policy")
	s.poolShadowRat = s.reg.GaugeVec("dc_pool_shadow_cost_over_optimum",
		"Counterfactual pool-wide competitive ratio of a shadow policy.",
		"pool", "policy")
	s.poolShadowBest = s.reg.GaugeVec("dc_pool_shadow_best_policy",
		"1 on the minimum-cost policy of a shadowed pool (live policy included), 0 elsewhere.",
		"pool", "policy")
	s.batchSize = s.reg.Histogram("dc_session_batch_size",
		"Requests per accepted bulk-ingestion batch (POST /v1/session/{id}/requests).",
		obs.ExponentialBuckets(1, 2, 11))
	s.batchShed = s.reg.Counter("dc_session_batches_shed_total",
		"Serve operations rejected with 429 by the per-session inflight budget.")
	shardGauges := s.reg.GaugeVec("dc_registry_shard_sessions",
		"Live sessions registered per lock-stripe shard of the session registry.", "shard")
	for i := range s.shardSess {
		s.shardSess[i] = shardGauges.With(strconv.Itoa(i))
	}
	s.reg.RegisterCollector(func() {
		for i, n := range s.sessions.shardLens() {
			s.shardSess[i].Set(float64(n))
		}
	})
	s.reg.RegisterCollector(s.collectEntries)
	if s.recorder != nil {
		s.recRecords = s.reg.GaugeVec("dc_recorder_records",
			"Records the flight recorder has durably handed to its encoder.", "mode")
		s.recBytes = s.reg.GaugeVec("dc_recorder_bytes",
			"Bytes the flight recorder has written across all recording files.", "mode")
		s.recFsyncs = s.reg.GaugeVec("dc_recorder_fsyncs",
			"Fsyncs the flight recorder has issued (per its sync policy).", "mode")
		s.recDropped = s.reg.GaugeVec("dc_recorder_dropped",
			"Records the flight recorder shed on backpressure or after close.", "mode")
		s.recRotations = s.reg.GaugeVec("dc_recorder_rotations",
			"Recording-file rotations (size or age bound reached).", "mode")
		s.recFiles = s.reg.GaugeVec("dc_recorder_files",
			"Recording files the flight recorder has created.", "mode")
		s.reg.RegisterCollector(func() {
			if s.recorder.Closed() {
				// Retire the series once, the same way closed sessions do.
				if !s.recRetired.Swap(true) {
					mode := s.recorder.Mode()
					s.recRecords.Delete(mode)
					s.recBytes.Delete(mode)
					s.recFsyncs.Delete(mode)
					s.recDropped.Delete(mode)
					s.recRotations.Delete(mode)
					s.recFiles.Delete(mode)
				}
				return
			}
			st := s.recorder.Stats()
			s.recRecords.With(st.Mode).Set(float64(st.Records))
			s.recBytes.With(st.Mode).Set(float64(st.Bytes))
			s.recFsyncs.With(st.Mode).Set(float64(st.Fsyncs))
			s.recDropped.With(st.Mode).Set(float64(st.Dropped))
			s.recRotations.With(st.Mode).Set(float64(st.Rotations))
			s.recFiles.With(st.Mode).Set(float64(st.Files))
		})
	}

	s.initHistory()

	s.mount("/healthz", s.handleHealth)
	s.mount("/v1/optimize", s.handleOptimize)
	s.mount("/v1/explain", s.handleExplain)
	s.mount("/v1/render", s.handleRender)
	s.mount("/v1/simulate", s.handleSimulate)
	s.mount("/v1/generate", s.handleGenerate)
	s.mount("/v1/plan", s.handlePlan)
	s.mount("/v1/policies", s.handlePolicies)
	s.mount("/v1/stream", s.handleStreamCreate)
	s.mount("/v1/stream/", s.handleStreamOp)
	s.mount("/v1/session", s.handleSessionCreate)
	s.mount("/v1/session/", s.handleSessionOp)
	s.mount("/v1/pool", s.handlePoolCreate)
	s.mount("/v1/pool/", s.handlePoolOp)
	s.mount("/v1/alerts", s.handleAlerts)
	s.mount("/v1/traces", s.handleTraces)
	s.mount("/v1/traces/", s.handleTraceByID)
	s.mount("/v1/metrics/history", s.handleMetricsHistory)
	s.mount("/v1/spec", s.handleSpec)
	s.mount("/readyz", s.handleReady)
	s.mount("/metrics", s.handlePrometheus)
	s.mount("/", s.handleNotFound)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter captures the status code a handler wrote for the request
// counter and log line.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// mount wraps a handler with the instrumentation middleware: request-ID
// minting and propagation, a server span adopting any incoming
// traceparent, status/latency metrics (with a trace exemplar when the
// span is retained), and one structured log line per request.
func (s *Server) mount(route string, h http.HandlerFunc) {
	s.mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := obs.NewRequestID()
		parent, _ := obs.ParseTraceparent(r.Header.Get("Traceparent"))
		span := s.tracer.StartRoot(route, parent)
		span.Route = route
		ctx := obs.WithSpan(obs.WithRequestID(r.Context(), id), span)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		sw.Header().Set("X-Request-Id", id)
		sw.Header().Set("Traceparent", obs.FormatTraceparent(span.Context()))
		h(sw, r)
		elapsed := time.Since(start)
		span.Status = sw.code
		span.Error = sw.code >= 500
		span.Shed = sw.code == http.StatusTooManyRequests
		kept := span.End()
		s.httpRequests.With(route, strconv.Itoa(sw.code)).Inc()
		if kept {
			s.httpLatency.With(route).ObserveExemplar(elapsed.Seconds(), span.TraceID)
		} else {
			s.httpLatency.With(route).Observe(elapsed.Seconds())
		}
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("id", id),
			slog.String("trace", span.TraceID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", sw.code),
			slog.Duration("elapsed", elapsed),
		)
	})
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, routeDocs)
}

// handlePrometheus renders every registered metric, content-negotiating
// between the Prometheus 0.0.4 text format (the default) and OpenMetrics
// 1.0 — the latter carries trace exemplars on the latency histograms.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", obs.ContentTypeOpenMetrics)
		w.WriteHeader(http.StatusOK)
		s.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.reg.WritePrometheus(w)
}

// handleNotFound answers every path no route claims, retired routes
// included, with a 404 inside the error envelope.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown route %s", r.URL.Path))
}

// --- DTOs ---

// CostModelDTO carries μ and λ.
type CostModelDTO struct {
	Mu     float64 `json:"mu"`
	Lambda float64 `json:"lambda"`
}

func (d CostModelDTO) toModel() model.CostModel {
	return model.CostModel{Mu: d.Mu, Lambda: d.Lambda}
}

// OptimizeRequest is the /v1/optimize body.
type OptimizeRequest struct {
	Sequence *model.Sequence `json:"sequence"`
	Model    CostModelDTO    `json:"model"`
	Schedule bool            `json:"schedule,omitempty"` // include the reconstructed schedule
	Vectors  bool            `json:"vectors,omitempty"`  // include the C and D vectors
}

// OptimizeResponse is the /v1/optimize reply. D entries of -1 stand for
// the recurrence's +Inf (the request cannot be served by cache), since JSON
// has no infinity.
type OptimizeResponse struct {
	Cost       float64         `json:"cost"`
	LowerBound float64         `json:"lowerBound"`
	UpperBound float64         `json:"upperBound"`
	SingleCopy float64         `json:"singleCopyCost"`
	Schedule   *model.Schedule `json:"schedule,omitempty"`
	C          []float64       `json:"c,omitempty"`
	D          []float64       `json:"d,omitempty"`
}

// SimulateRequest is the /v1/simulate body.
type SimulateRequest struct {
	Sequence *model.Sequence `json:"sequence"`
	Model    CostModelDTO    `json:"model"`
	Policy   string          `json:"policy"` // a policy spec; empty means sc
}

// SimulateResponse is the /v1/simulate reply.
type SimulateResponse struct {
	Policy    string  `json:"policy"`
	Cost      float64 `json:"cost"`
	Transfers int     `json:"transfers"`
	CacheHits int     `json:"cacheHits"`
	Optimal   float64 `json:"optimal"`
	Ratio     float64 `json:"ratio"`
}

// GenerateRequest is the /v1/generate body.
type GenerateRequest struct {
	Workload string  `json:"workload"`
	M        int     `json:"m"`
	N        int     `json:"n"`
	Seed     int64   `json:"seed"`
	Gap      float64 `json:"gap,omitempty"`
}

// StreamAppendRequest appends one request to a planning stream.
type StreamAppendRequest struct {
	Server model.ServerID `json:"server"`
	Time   float64        `json:"time"`
}

// StreamState reports a stream's standing after an operation.
type StreamState struct {
	ID   string  `json:"id"`
	N    int     `json:"n"`
	Cost float64 `json:"cost"`
}

// --- Handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "version": Version})
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Sequence == nil {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("missing sequence"))
		return
	}
	cm := req.Model.toModel()
	res, err := offline.FastDP(req.Sequence, cm)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	bounds, err := offline.ComputeBounds(req.Sequence, cm)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	single, err := offline.SingleCopyOptimal(req.Sequence, cm)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	resp := OptimizeResponse{
		Cost:       res.Cost(),
		LowerBound: bounds.Lower,
		UpperBound: bounds.Upper,
		SingleCopy: single,
	}
	if req.Schedule {
		sched, err := res.Schedule()
		if err != nil {
			s.httpError(w, r, http.StatusInternalServerError, err)
			return
		}
		resp.Schedule = sched
	}
	if req.Vectors {
		resp.C = res.C
		resp.D = make([]float64, len(res.D))
		for i, d := range res.D {
			if math.IsInf(d, 1) {
				resp.D[i] = -1 // JSON-safe stand-in for +Inf
			} else {
				resp.D[i] = d
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ExplainResponse is the /v1/explain reply: the optimal schedule's
// per-request decision table.
type ExplainResponse struct {
	Cost      float64            `json:"cost"`
	Decisions []offline.Decision `json:"decisions"`
	Rendered  string             `json:"rendered"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Sequence == nil {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("missing sequence"))
		return
	}
	res, err := offline.FastDP(req.Sequence, req.Model.toModel())
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	ds, err := res.Explain()
	if err != nil {
		s.httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{
		Cost:      res.Cost(),
		Decisions: ds,
		Rendered:  offline.RenderDecisions(ds),
	})
}

// RenderRequest asks for a space-time diagram of the optimal schedule.
type RenderRequest struct {
	Sequence *model.Sequence `json:"sequence"`
	Model    CostModelDTO    `json:"model"`
	Width    int             `json:"width,omitempty"`
}

func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	var req RenderRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Sequence == nil {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("missing sequence"))
		return
	}
	res, err := offline.FastDP(req.Sequence, req.Model.toModel())
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	sched, err := res.Schedule()
	if err != nil {
		s.httpError(w, r, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, model.RenderSpaceTime(req.Sequence, sched, req.Width))
	fmt.Fprint(w, model.RenderLegend())
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Sequence == nil {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("missing sequence"))
		return
	}
	var sp datacache.PolicySpec // the zero spec is sc
	if req.Policy != "" {
		var err error
		if sp, err = datacache.ParsePolicySpec(req.Policy); err != nil {
			s.httpError(w, r, http.StatusBadRequest, err)
			return
		}
	}
	cm := req.Model.toModel()
	run, err := datacache.Serve(sp, req.Sequence, cm)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	opt, err := offline.FastDP(req.Sequence, cm)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	resp := SimulateResponse{
		Policy:    sp.Name(),
		Cost:      run.Stats.Cost,
		Transfers: run.Stats.Transfers,
		CacheHits: run.Stats.CacheHits,
		Optimal:   opt.Cost(),
	}
	if opt.Cost() > 0 {
		resp.Ratio = run.Stats.Cost / opt.Cost()
	} else {
		resp.Ratio = 1
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.M < 1 || req.N < 0 {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("need m >= 1 and n >= 0"))
		return
	}
	gap := req.Gap
	if gap <= 0 {
		gap = 1
	}
	var gen workload.Generator
	switch strings.ToLower(req.Workload) {
	case "", "uniform":
		gen = workload.Uniform{M: req.M, MeanGap: gap}
	case "zipf":
		gen = workload.Zipf{M: req.M, S: 1.5, MeanGap: gap}
	case "bursty":
		gen = workload.Bursty{M: req.M, BurstLen: 8, WithinGap: gap / 4, BetweenGap: gap * 6}
	case "markov":
		gen = workload.MarkovHop{M: req.M, Stay: 0.8, MeanGap: gap}
	case "adversarial":
		gen = workload.Adversarial{M: req.M, Window: gap}
	default:
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("unknown workload %q", req.Workload))
		return
	}
	seq := gen.Generate(rand.New(rand.NewSource(req.Seed)), req.N)
	writeJSON(w, http.StatusOK, seq)
}

// PlanRequest is the /v1/plan body: a catalog of item-tagged events.
type PlanRequest struct {
	M      int           `json:"m"`
	Model  CostModelDTO  `json:"model"`
	Events []multi.Event `json:"events"`
	Online string        `json:"online,omitempty"` // also serve per item with this policy spec
}

// PlanItem is one item's line of the /v1/plan reply.
type PlanItem struct {
	Item     string  `json:"item"`
	Requests int     `json:"requests"`
	Planned  float64 `json:"planned"`
	Online   float64 `json:"online,omitempty"`
}

// PlanResponse is the /v1/plan reply.
type PlanResponse struct {
	Items        []PlanItem `json:"items"`
	PlannedTotal float64    `json:"plannedTotal"`
	OnlineTotal  float64    `json:"onlineTotal,omitempty"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	cat := &multi.Catalog{M: req.M, Default: req.Model.toModel()}
	reports, total, err := multi.Plan(cat, req.Events, 0)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	resp := PlanResponse{PlannedTotal: total}
	for _, rep := range reports {
		resp.Items = append(resp.Items, PlanItem{Item: rep.Item, Requests: rep.Requests, Planned: rep.Cost})
	}
	if req.Online != "" {
		sp, err := datacache.ParsePolicySpec(req.Online)
		if err != nil {
			s.httpError(w, r, http.StatusBadRequest, err)
			return
		}
		serveReps, serveTotal, err := multi.Serve(cat, req.Events, func() online.Runner { return sp })
		if err != nil {
			s.httpError(w, r, http.StatusBadRequest, err)
			return
		}
		resp.OnlineTotal = serveTotal
		for i := range resp.Items {
			resp.Items[i].Online = serveReps[i].Stats.Cost
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, datacache.PolicyKinds())
}

func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req struct {
		M      int            `json:"m"`
		Origin model.ServerID `json:"origin"`
		Model  CostModelDTO   `json:"model"`
	}
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Origin == 0 {
		req.Origin = 1
	}
	inc, err := offline.NewIncremental(req.M, req.Origin, req.Model.toModel())
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	id := fmt.Sprintf("st-%d", s.nextID.Add(1))
	s.streams.put(id, &streamEntry{inc: inc})
	s.streamsOpen.Add(1)
	w.Header().Set("Location", "/v1/stream/"+id)
	writeJSON(w, http.StatusCreated, StreamState{ID: id, N: 0, Cost: 0})
}

func (s *Server) handleStreamOp(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/stream/")
	parts := strings.SplitN(rest, "/", 2)
	id := parts[0]
	op := ""
	if len(parts) == 2 {
		op = parts[1]
	}
	entry, ok := s.streams.get(id)
	if !ok {
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown stream %q", id))
		return
	}
	switch {
	case op == "append" && r.Method == http.MethodPost:
		var req StreamAppendRequest
		if !s.readJSON(w, r, &req) {
			return
		}
		entry.mu.Lock()
		err := entry.inc.Append(model.Request{Server: req.Server, Time: req.Time})
		state := StreamState{ID: id, N: entry.inc.N(), Cost: entry.inc.Cost()}
		entry.mu.Unlock()
		if err != nil {
			s.httpError(w, r, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, state)
	case op == "" && r.Method == http.MethodGet:
		entry.mu.Lock()
		state := StreamState{ID: id, N: entry.inc.N(), Cost: entry.inc.Cost()}
		entry.mu.Unlock()
		writeJSON(w, http.StatusOK, state)
	case op == "schedule" && r.Method == http.MethodGet:
		entry.mu.Lock()
		res := entry.inc.Result()
		entry.mu.Unlock()
		sched, err := res.Schedule()
		if err != nil {
			s.httpError(w, r, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, sched)
	case op == "" && r.Method == http.MethodDelete:
		if s.streams.delete(id) { // racing DELETEs must decrement once
			s.streamsOpen.Add(-1)
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
	default:
		s.httpError(w, r, http.StatusNotFound, fmt.Errorf("unknown stream operation %q %s", op, r.Method))
	}
}

// --- plumbing ---

func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, dst interface{}) bool {
	if r.Method != http.MethodPost {
		s.httpError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return false
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.httpError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
