// Command dcserved runs the data-caching planning service over HTTP.
//
// Usage:
//
//	dcserved -addr :8080
//	dcserved -addr :8080 -log-format json -log-level debug -pprof :6060
//
// Endpoints (JSON bodies unless noted):
//
//	GET  /healthz                     liveness
//	GET  /metrics                     Prometheus text-format metrics
//	GET  /v1/metrics/history          windowed aggregates from the embedded metrics history (series, window, step, agg, end, limit)
//	POST /v1/optimize                 {sequence, model, schedule?, vectors?} → optimum + bounds
//	POST /v1/simulate                 {sequence, model, policy?} → cost vs optimum (policy spec, default sc)
//	POST /v1/generate                 {workload, m, n, seed, gap?} → sequence
//	POST /v1/plan                     {m, model, events, online?} → per-item catalog plan, online billed under a policy spec
//	GET  /v1/policies                 the policy kinds every policy spec field accepts
//	POST /v1/session                  {m, origin, model, policy?, shadows?} → live serving session (201 + Location); policy and shadows are policy specs ("sc", "ttl:window=0.5", "hybrid:horizon=8,order=2", ...)
//	POST /v1/session/{id}/request     {server, time} → decision + running cost/optimum/ratio
//	POST /v1/session/{id}/requests    {requests: [{server, t}]} or NDJSON lines → bulk decisions + post-batch snapshot
//	GET  /v1/session/{id}             session state
//	GET  /v1/session/{id}/schedule    schedule realized so far
//	GET  /v1/session/{id}/trace       bounded ring of recent decision events
//	GET  /v1/session/{id}/slo         windowed competitive ratio, alerts, per-server cost breakdown
//	GET  /v1/session/{id}/shadow      counterfactual shadow-policy standings
//	GET  /v1/pool/{id}/shadow         pool-wide counterfactual shadow-policy standings
//	DELETE /v1/session/{id}           close the session → final state + schedule
//	GET  /v1/alerts                   every live session's SLO alerts
//	GET  /v1/traces                   retained traces, highest summed regret first (filters: session, min_regret, min_duration, error, limit)
//	GET  /v1/traces/{id}              every span of one trace, local root first
//	GET  /v1/session/{id}/record      download the session's flight recording (404 without -record-dir)
//	GET  /v1/pool/{id}/record         download the pool's flight recording (404 without -record-dir)
//	GET  /readyz                      readiness (degraded while any alert is firing)
//
// Any other path, the /v1/stream routes retired in 1.12.0 included,
// answers 404 inside the JSON error envelope.
//
// With -record-dir set, every served request is appended to an
// append-only flight recording (binary WAL or NDJSON via -record-mode)
// that dcreplay can verify bit-for-bit and score against the offline
// optimum in hindsight. -record-sync picks the durability point
// (none|interval|always), -record-rotate-bytes/-record-rotate-age bound
// individual files.
//
// SIGINT and SIGTERM shut dcserved down cleanly: it stops accepting
// connections, waits up to 10 s for in-flight requests, closes the
// flight recording (flushed and fsynced, so it replays without a torn
// tail) and the span export, and exits 0.
//
// Every response carries an X-Request-Id header that also appears in the
// structured log and in JSON error bodies, and a Traceparent header tying
// it to the distributed trace (-trace-sample, -trace-regret, -span-cap,
// -span-export configure retention). The optional -pprof listener serves
// net/http/pprof on a separate address (keep it private).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"datacache/internal/obs"
	"datacache/internal/obs/tsdb"
	"datacache/internal/recorder"
	"datacache/internal/service"
)

// shutdownGrace bounds how long a signalled shutdown waits for
// in-flight requests.
const shutdownGrace = 10 * time.Second

func main() {
	if err := run(); err != nil {
		os.Exit(1)
	}
}

// run serves until SIGINT, SIGTERM or a listener error, and returns only
// after every deferred cleanup ran. Startup failures still exit at once
// via log.Fatalf, before anything has been recorded or exported.
func run() error {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		logLevel  = flag.String("log-level", "info", "log level: debug|info|warn|error")
		logFormat = flag.String("log-format", "text", "log format: text|json")
		pprofAddr = flag.String("pprof", "", "optional net/http/pprof listen address (e.g. localhost:6060); empty disables")
		traceCap  = flag.Int("trace-cap", service.DefaultTraceCap, "per-session decision-trace ring size (0 disables)")
		sloWindow = flag.Int("slo-window", service.DefaultSLOWindow, "per-session SLO rolling-window length in requests (0 disables)")
		inflight  = flag.Int("inflight-budget", service.DefaultInflightBudget, "per-session concurrent serve/batch budget before 429 shedding")
		shadowMgn = flag.Float64("shadow-margin", 0, "shadow_beats_live alert margin: fire when a shadow policy beats live windowed cost by this fraction (0 uses the default, negative disables)")
		noRuntime = flag.Bool("no-runtime-metrics", false, "disable Go runtime metrics on /metrics")
		sample    = flag.Float64("trace-sample", 1, "head-sampling probability for distributed traces in [0,1]; >=1 keeps all")
		traceSeed = flag.Int64("trace-seed", 0, "trace/span id seed (0 derives from the clock; fix it for reproducible ids)")
		spanCap   = flag.Int("span-cap", obs.DefaultSpanCap, "bounded in-memory span store size behind /v1/traces")
		regretMin = flag.Float64("trace-regret", 0, "always keep traces containing a span with regret >= this (0 disables the tail rule)")
		spanOut   = flag.String("span-export", "", "append every kept span as NDJSON to this file; empty disables")
		recDir    = flag.String("record-dir", "", "flight-recording directory; empty disables recording")
		recMode   = flag.String("record-mode", recorder.ModeBinary, "recording encoding: binary|ndjson")
		recSync   = flag.String("record-sync", "interval", "recording durability: none|interval|always")
		recSyncIv = flag.Duration("record-sync-interval", recorder.DefaultSyncInterval, "fsync cadence when -record-sync=interval")
		recRotB   = flag.Int64("record-rotate-bytes", 64<<20, "rotate recording files beyond this size (0 disables)")
		recRotAge = flag.Duration("record-rotate-age", 0, "rotate recording files older than this (0 disables)")
		histIv    = flag.Duration("history-interval", time.Second, "metrics-history sampling cadence (0 disables the background sampler; queries then sample lazily)")
		histStale = flag.Duration("history-stale", 0, "retire history series this long after their metric disappears (0 uses the 60s default)")
		version   = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("dcserved " + service.Version)
		return nil
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("dcserved: %v", err)
	}
	logger := obs.NewLogger(os.Stderr, level, *logFormat)

	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			srv := &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
			if err := srv.ListenAndServe(); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	seed := *traceSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	opts := []service.Option{
		service.WithLogger(logger),
		service.WithTraceCap(*traceCap),
		service.WithSLOWindow(*sloWindow),
		service.WithInflightBudget(*inflight),
		service.WithShadowMargin(*shadowMgn),
		service.WithTraceSampling(*sample),
		service.WithTraceSeed(seed),
		service.WithTraceRegret(*regretMin),
		service.WithSpanCap(*spanCap),
	}
	if *spanOut != "" {
		f, err := os.OpenFile(*spanOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("dcserved: opening span export %s: %v", *spanOut, err)
		}
		defer f.Close()
		opts = append(opts, service.WithSpanExporter(obs.NewNDJSONExporter(f)))
	}
	if *recDir != "" {
		rec, err := recorder.NewWriter(recorder.Options{
			Dir:          *recDir,
			Mode:         *recMode,
			Sync:         *recSync,
			SyncInterval: *recSyncIv,
			RotateBytes:  *recRotB,
			RotateAge:    *recRotAge,
			Source:       "dcserved/" + service.Version,
		})
		if err != nil {
			log.Fatalf("dcserved: opening flight recording: %v", err)
		}
		defer func() {
			if err := rec.Close(); err != nil {
				logger.Error("closing flight recording", "err", err)
			}
		}()
		logger.Info("flight recording enabled",
			"dir", *recDir, "mode", *recMode, "sync", *recSync)
		opts = append(opts, service.WithRecorder(rec))
	}
	if !*noRuntime {
		opts = append(opts, service.WithRuntimeMetrics())
	}
	histOpts := tsdb.Options{StaleAfter: *histStale}
	if *histIv > 0 {
		histOpts.Interval = *histIv
	}
	opts = append(opts, service.WithHistoryOptions(histOpts))
	handler := service.New(opts...)
	if *histIv > 0 {
		stop := handler.StartHistorySampler(*histIv)
		defer stop()
		logger.Info("metrics history sampling", "interval", *histIv)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	logger.Info("dcserved listening", "addr", *addr, "version", service.Version)
	select {
	case err := <-served:
		logger.Error("serve failed", "err", err)
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills at once
	logger.Info("shutting down", "grace", shutdownGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown failed", "err", err)
		return err
	}
	return nil
}
