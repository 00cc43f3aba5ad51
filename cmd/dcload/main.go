// Command dcload is a closed-loop load generator for dcserved, built on
// the typed client package. It opens one serving session per worker,
// drives a deterministic workload through the bulk-ingestion endpoint
// (POST /v1/session/{id}/requests) and reports a latency histogram, the
// achieved throughput, and every session's final competitive ratio.
//
// Usage:
//
//	dcload -addr http://localhost:8080 -n 10000 -c 4 -batch 64
//	dcload -workload zipf -m 16 -seed 7 -qps 2000 -out report.txt
//	dcload -workload adversarial -batch 1          # single-request path
//	dcload -items 256 -item-dist zipf -c 4         # multi-item pool mode
//	dcload -shadow                                 # counterfactual policy comparison
//
// With -shadow (or an explicit -shadows list) every session additionally
// runs a panel of counterfactual shadow policies in lockstep with the
// live one — by default a tighter TTL, an epoch-restarted SC, and the
// migrate/replicate baselines — and the report ends with a
// policy-comparison table: exact cumulative cost, cost over optimum,
// hits, transfers, drops and decision divergence per policy, the
// cheapest row starred. In pool mode the comparison aggregates over the
// whole pool.
//
// With -items N > 0 dcload switches to pool mode: all workers share ONE
// multi-item pool (POST /v1/pool), each worker serving as its own tenant
// ("w0", "w1", ...) so per-key request times stay strictly increasing
// under concurrency. Every request is assigned an item key from the
// -item-dist distribution (zipf, the skew production caches see, or
// uniform), -max-items forwards the pool's engine-state bound, and the
// report adds per-tenant competitive ratios — -max-ratio then gates on
// the worst tenant.
//
// Every round-trip runs under its own root trace (the client mints a W3C
// traceparent per batch), so the report can name the guilty requests: it
// ends with the ten slowest and the ten highest-regret trace ids, ready
// to paste into GET /v1/traces/{id} on the server.
//
// With -record <dir> (against a server started with -record-dir) every
// session's — or the pool's — flight recording is downloaded into <dir>
// before closing, ready for "dcreplay -in <dir>" to verify bit-for-bit
// and score against the hindsight optimum. -report-json <path> writes
// the report as machine-readable JSON alongside the text form, including
// an "alerts" block with every alert transition (SLO rules and metric
// anomalies) the server annotated during the run window.
//
// With -history-report the report also queries the server's embedded
// metrics history (GET /v1/metrics/history) after the run and appends
// the windowed-ratio, decision-p99 and shed-rate trajectories as
// sparklines — the history store retains closed sessions' series for one
// retention window, so this works without -keep-sessions.
//
// Exit status is non-zero when any request fails with a 5xx (or a
// transport error), when -record was set and a download failed, or when
// -max-ratio is set and any session finishes above it — which is what
// the CI smoke job asserts. Tracing never affects the exit status.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"datacache"
	"datacache/client"
	"datacache/internal/model"
	"datacache/internal/service"
	"datacache/internal/stats"
	"datacache/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "dcserved base URL")
		n        = flag.Int("n", 10000, "total requests across all workers")
		c        = flag.Int("c", 4, "concurrent workers, one session each")
		batch    = flag.Int("batch", 64, "requests per batch (1 uses the single-request endpoint)")
		wl       = flag.String("workload", "zipf", "workload: uniform|zipf|adversarial|cycle (cycle is the predictable trajectory for -policy hybrid)")
		m        = flag.Int("m", 16, "number of servers")
		mu       = flag.Float64("mu", 1, "transfer cost μ")
		lambda   = flag.Float64("lambda", 2, "holding cost λ per unit time")
		policy   = flag.String("policy", "sc", "live policy spec: sc[:window=X,epoch=N] | ttl:window=X | adaptive | migrate | replicate | hybrid:horizon=K,order=k")
		gap      = flag.Float64("gap", 1.0, "mean inter-arrival time of the generated trace")
		seed     = flag.Int64("seed", 1, "workload seed (worker i uses seed+i)")
		qps      = flag.Float64("qps", 0, "target aggregate requests/sec (0 = closed loop)")
		ndjson   = flag.Bool("ndjson", false, "send batches as NDJSON instead of JSON")
		items    = flag.Int("items", 0, "pool mode: spread requests over this many items through one shared /v1/pool (0 = per-worker sessions)")
		itemDist = flag.String("item-dist", "zipf", "pool mode item-key distribution: zipf|uniform")
		maxItems = flag.Int("max-items", 0, "pool mode: bound live engine state to this many items (0 = unbounded)")
		shadow   = flag.Bool("shadow", false, "run counterfactual shadow policies alongside the live one and report a policy-comparison table")
		shadows  = flag.String("shadows", "", "comma-separated shadow specs (implies -shadow); empty picks a default panel from -mu/-lambda")
		maxRatio = flag.Float64("max-ratio", 0, "fail if any session's final ratio exceeds this (0 disables)")
		keep     = flag.Bool("keep-sessions", false, "leave sessions open after the run (closing one retires its retained traces, so use this when the reported trace ids should stay queryable)")
		histRep  = flag.Bool("history-report", false, "append server-side history trajectories (windowed ratio, decision p99, shed rate) to the report; works even after sessions close, while their history is retained")
		record   = flag.String("record", "", "download every session's flight recording into this directory before closing (requires dcserved -record-dir; replay with dcreplay -in <dir>)")
		out      = flag.String("out", "", "also write the report to this file")
		repJSON  = flag.String("report-json", "", "also write the report as machine-readable JSON to this file")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-call HTTP timeout")
		version  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("dcload " + service.Version)
		return
	}
	if *n <= 0 || *c <= 0 || *batch <= 0 {
		fmt.Fprintln(os.Stderr, "dcload: -n, -c and -batch must be positive")
		os.Exit(2)
	}
	if *c > *n {
		*c = *n
	}

	gen, err := makeGenerator(*wl, *m, *gap, *mu, *lambda)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcload: %v\n", err)
		os.Exit(2)
	}

	var shadowSpecs []string
	if *shadow || *shadows != "" {
		shadowSpecs = shadowPanel(*shadows, *mu, *lambda)
	}

	cl := client.New(*addr,
		client.WithHTTPClient(&http.Client{Timeout: *timeout}),
		client.WithTraceSeed(*seed))
	ctx := context.Background()
	if _, _, err := cl.Health(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "dcload: server not reachable at %s: %v\n", *addr, err)
		os.Exit(1)
	}

	if *record != "" {
		if err := os.MkdirAll(*record, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "dcload: -record dir: %v\n", err)
			os.Exit(2)
		}
	}

	if *items > 0 {
		os.Exit(runPoolMode(ctx, cl, gen, poolModeConfig{
			n: *n, c: *c, batch: *batch, items: *items, itemDist: *itemDist,
			maxItems: *maxItems, m: *m, mu: *mu, lambda: *lambda, policy: *policy,
			seed: *seed, qps: *qps, ndjson: *ndjson, keep: *keep,
			maxRatio: *maxRatio, out: *out, repJSON: *repJSON,
			record: *record, shadows: shadowSpecs, histReport: *histRep,
		}))
	}

	// Split n across workers; the first n%c workers take one extra.
	results := make([]workerResult, *c)
	done := make(chan int, *c)
	perWorkerQPS := *qps / float64(*c)
	start := time.Now()
	for w := 0; w < *c; w++ {
		share := *n / *c
		if w < *n%*c {
			share++
		}
		cfg := workerConfig{
			id:      w,
			n:       share,
			batch:   *batch,
			seq:     gen.Generate(rand.New(rand.NewSource(*seed+int64(w))), share),
			policy:  *policy,
			mu:      *mu,
			lambda:  *lambda,
			qps:     perWorkerQPS,
			ndjson:  *ndjson,
			keep:    *keep,
			record:  *record,
			shadows: shadowSpecs,
		}
		go func(w int, cfg workerConfig) {
			results[w] = runWorker(ctx, cl, cfg)
			done <- w
		}(w, cfg)
	}
	for i := 0; i < *c; i++ {
		<-done
	}
	elapsed := time.Since(start)

	rep := buildReport(gen.Name(), *batch, elapsed, results)
	if *histRep || *repJSON != "" {
		var ids []string
		for _, r := range results {
			if r.SessionID != "" {
				ids = append(ids, r.SessionID)
			}
		}
		rep.attachHistory(ctx, cl, ids, "", elapsed+30*time.Second, *histRep)
	}
	text := rep.String()
	fmt.Print(text)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dcload: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if *repJSON != "" {
		if err := rep.writeJSON(*repJSON); err != nil {
			fmt.Fprintf(os.Stderr, "dcload: writing %s: %v\n", *repJSON, err)
			os.Exit(1)
		}
	}

	if rep.Errs5xx > 0 || rep.Transport > 0 {
		fmt.Fprintf(os.Stderr, "dcload: FAIL: %d server errors, %d transport errors\n", rep.Errs5xx, rep.Transport)
		os.Exit(1)
	}
	if *record != "" && len(rep.RecordFiles) < len(results) {
		fmt.Fprintf(os.Stderr, "dcload: FAIL: -record downloaded %d of %d session recordings\n", len(rep.RecordFiles), len(results))
		os.Exit(1)
	}
	if *maxRatio > 0 && rep.MaxSessionRatio > *maxRatio {
		fmt.Fprintf(os.Stderr, "dcload: FAIL: worst session ratio %.4f exceeds -max-ratio %.4f\n", rep.MaxSessionRatio, *maxRatio)
		os.Exit(1)
	}
}

func makeGenerator(name string, m int, gap, mu, lambda float64) (workload.Generator, error) {
	switch name {
	case "uniform":
		return workload.Uniform{M: m, MeanGap: gap}, nil
	case "zipf":
		return workload.Zipf{M: m, S: 1.2, MeanGap: gap}, nil
	case "adversarial":
		// The anti-SC pattern: gaps just past the speculative window Δt=λ/μ.
		return workload.Adversarial{M: m, Window: lambda / mu}, nil
	case "cycle":
		// The fully predictable trajectory — the hybrid planner's best
		// case: pair with -policy hybrid:horizon=8,order=2 and watch
		// dc_planner_predicted_hit_ratio approach 1.
		return workload.Cycle{M: m, Gap: gap}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (uniform|zipf|adversarial|cycle)", name)
	}
}

type workerConfig struct {
	id      int
	n       int
	batch   int
	seq     *model.Sequence
	policy  string
	mu      float64
	lambda  float64
	qps     float64 // this worker's pacing target; 0 = closed loop
	ndjson  bool
	keep    bool     // leave the session open after the run
	record  string   // download the flight recording into this dir (empty disables)
	shadows []string // counterfactual policy specs (empty disables)
}

// shadowPanel resolves the shadow specs to run: the -shadows list when
// given, else a default panel spanning the policy space around the live
// SC window Δt = λ/μ — a tighter TTL, an epoch-restarted SC, and the
// two baselines of the paper.
func shadowPanel(specs string, mu, lambda float64) []string {
	if specs != "" {
		return datacache.SplitPolicySpecs(specs)
	}
	return []string{
		fmt.Sprintf("ttl:window=%g", lambda/mu/2),
		"sc:epoch=16",
		"migrate",
		"replicate",
	}
}

// traceSample ties one round-trip's root trace id to its latency and the
// regret the batch added (online cost delta − optimum delta).
type traceSample struct {
	TraceID string  `json:"traceId"`
	Latency float64 `json:"latencySec"` // seconds
	Regret  float64 `json:"regret"`
}

type workerResult struct {
	Served     int
	SessionID  string        // the worker's session (empty in pool mode)
	Latencies  []float64     // seconds per round-trip (batch or single)
	Traces     []traceSample // one per applied round-trip
	Sheds      int           // 429 retries
	Errs4xx    int           // non-429 client errors
	Errs5xx    int
	Transport  int
	FinalRatio float64
	Shadow     []client.ShadowStanding // final counterfactual standings
	RecordFile string                  // downloaded flight recording, if any
	Err        error                   // first fatal error (session create, etc.)
	prevGap    float64                 // Cost − Optimal before the current chunk
}

// runWorker drives one session to completion. Batches retry on 429 using
// the server's Retry-After hint; every other error drops the batch and is
// counted by class.
func runWorker(ctx context.Context, cl *client.Client, cfg workerConfig) workerResult {
	var res workerResult
	sess, err := cl.CreateSession(ctx, client.SessionConfig{
		M:       cfg.seq.M,
		Origin:  cfg.seq.Origin,
		Mu:      cfg.mu,
		Lambda:  cfg.lambda,
		Policy:  cfg.policy,
		Shadows: cfg.shadows,
	})
	if err != nil {
		res.Err = fmt.Errorf("worker %d: create session: %w", cfg.id, err)
		res.Transport++
		return res
	}
	res.SessionID = sess.ID
	if !cfg.keep {
		defer sess.Close(ctx)
	}

	var interval time.Duration
	if cfg.qps > 0 {
		interval = time.Duration(float64(cfg.batch) / cfg.qps * float64(time.Second))
	}
	next := time.Now()

	reqs := cfg.seq.Requests
	for off := 0; off < len(reqs); off += cfg.batch {
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(interval)
		}
		end := off + cfg.batch
		if end > len(reqs) {
			end = len(reqs)
		}
		chunk := make([]client.Request, 0, end-off)
		for _, r := range reqs[off:end] {
			chunk = append(chunk, client.Request{Server: r.Server, T: r.Time})
		}
		ratio, ok := res.serveChunk(ctx, cl, sess, chunk, cfg)
		if ok {
			res.FinalRatio = ratio
		}
	}
	if len(cfg.shadows) > 0 {
		if sr, err := sess.Shadow(ctx); err == nil {
			res.Shadow = sr.Standings
		}
	}
	// Download the flight recording before the deferred Close: closing
	// the session deletes its registry entry and the endpoint with it.
	if cfg.record != "" {
		file, err := downloadRecord(ctx, cfg.record, sess.ID, sess.Record)
		if err != nil {
			res.countError(fmt.Errorf("worker %d: record download: %w", cfg.id, err))
		} else {
			res.RecordFile = file
		}
	}
	return res
}

// downloadRecord fetches one id's flight recording in binary mode and
// writes it to dir/<id>.wal — the layout dcreplay -in <dir> expects.
func downloadRecord(ctx context.Context, dir, id string, fetch func(context.Context, string) ([]byte, error)) (string, error) {
	raw, err := fetch(ctx, "binary")
	if err != nil {
		return "", err
	}
	file := filepath.Join(dir, id+".wal")
	if err := os.WriteFile(file, raw, 0o644); err != nil {
		return "", err
	}
	return file, nil
}

// serveChunk submits one chunk under its own root trace, retrying
// overload sheds (each attempt is a fresh trace), and returns the
// post-batch ratio when the chunk applied.
func (res *workerResult) serveChunk(ctx context.Context, cl *client.Client, sess *client.Session, chunk []client.Request, cfg workerConfig) (float64, bool) {
	for attempt := 0; ; attempt++ {
		tp := cl.NewTraceparent()
		traceID, _ := client.TraceIDOf(tp)
		tctx := client.WithTraceparent(ctx, tp)
		t0 := time.Now()
		var ratio, cost, opt float64
		var served int
		var err error
		if cfg.batch == 1 {
			var d client.Decision
			d, err = sess.Serve(tctx, chunk[0].Server, chunk[0].T)
			ratio, served, cost, opt = d.Ratio, 1, d.Cost, d.Optimal
		} else if cfg.ndjson {
			var b client.BatchResponse
			b, err = sess.ServeBatchNDJSON(tctx, chunk)
			ratio, served, cost, opt = b.Ratio, b.Applied, b.Cost, b.Optimal
		} else {
			var b client.BatchResponse
			b, err = sess.ServeBatch(tctx, chunk)
			ratio, served, cost, opt = b.Ratio, b.Applied, b.Cost, b.Optimal
		}
		if err == nil {
			lat := time.Since(t0).Seconds()
			res.Latencies = append(res.Latencies, lat)
			res.Served += served
			gap := cost - opt
			res.Traces = append(res.Traces, traceSample{
				TraceID: traceID,
				Latency: lat,
				Regret:  gap - res.prevGap,
			})
			res.prevGap = gap
			return ratio, true
		}
		if client.IsOverloaded(err) && attempt < 50 {
			res.Sheds++
			backoff := client.RetryAfterOf(err)
			if backoff <= 0 {
				backoff = 50 * time.Millisecond
			}
			time.Sleep(backoff)
			continue
		}
		res.countError(err)
		return 0, false
	}
}

// --- pool mode ---

type poolModeConfig struct {
	n, c, batch     int
	items, maxItems int
	itemDist        string
	m               int
	mu, lambda      float64
	policy          string
	seed            int64
	qps             float64
	ndjson          bool
	keep            bool
	maxRatio        float64
	out             string
	repJSON         string
	record          string
	shadows         []string
	histReport      bool
}

// runPoolMode drives one shared multi-item pool from c tenant-workers and
// returns the process exit code. Per-tenant final ratios come from the
// pool's tenant rollups, and -max-ratio gates on the worst tenant.
func runPoolMode(ctx context.Context, cl *client.Client, gen workload.Generator, cfg poolModeConfig) int {
	pickItem, err := makeItemPicker(cfg.itemDist, cfg.items)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcload: %v\n", err)
		return 2
	}
	pool, err := cl.CreatePool(ctx, client.PoolConfig{
		M: cfg.m, Origin: 1, Mu: cfg.mu, Lambda: cfg.lambda,
		Policy: cfg.policy, MaxItems: cfg.maxItems, Shadows: cfg.shadows,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcload: create pool: %v\n", err)
		return 1
	}

	results := make([]workerResult, cfg.c)
	done := make(chan int, cfg.c)
	perWorkerQPS := cfg.qps / float64(cfg.c)
	start := time.Now()
	for w := 0; w < cfg.c; w++ {
		share := cfg.n / cfg.c
		if w < cfg.n%cfg.c {
			share++
		}
		// Each worker is its own tenant: per-(tenant, item) times are then
		// strictly increasing no matter how workers interleave on the wire.
		rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
		seq := gen.Generate(rand.New(rand.NewSource(cfg.seed+int64(w))), share)
		reqs := make([]client.PoolRequest, 0, len(seq.Requests))
		for _, r := range seq.Requests {
			reqs = append(reqs, client.PoolRequest{
				Tenant: fmt.Sprintf("w%d", w),
				Item:   fmt.Sprintf("item-%d", pickItem(rng)),
				Server: r.Server,
				T:      r.Time,
			})
		}
		go func(w int, reqs []client.PoolRequest) {
			results[w] = runPoolWorker(ctx, cl, pool, reqs, cfg, perWorkerQPS)
			done <- w
		}(w, reqs)
	}
	for i := 0; i < cfg.c; i++ {
		<-done
	}
	elapsed := time.Since(start)

	state, stateErr := pool.State(ctx)
	var shadowRows []client.ShadowStanding
	if len(cfg.shadows) > 0 {
		if sr, err := pool.Shadow(ctx); err == nil {
			shadowRows = sr.Standings
		}
	}
	var recordFiles []string
	if cfg.record != "" {
		file, err := downloadRecord(ctx, cfg.record, pool.ID, pool.Record)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcload: record download: %v\n", err)
			if stateErr == nil {
				stateErr = err
			}
		} else {
			recordFiles = append(recordFiles, file)
		}
	}
	if !cfg.keep {
		if _, err := pool.Close(ctx); err != nil && stateErr == nil {
			stateErr = err
		}
	}

	rep := buildReport(gen.Name()+"/pool", cfg.batch, elapsed, results)
	if cfg.histReport || cfg.repJSON != "" {
		rep.attachHistory(ctx, cl, nil, pool.ID, elapsed+30*time.Second, cfg.histReport)
	}
	rep.Pool = &state
	rep.Shadow = shadowRows
	rep.RecordFiles = recordFiles
	rep.MaxSessionRatio = 0
	rep.Ratios = rep.Ratios[:0]
	for _, ts := range state.Tenants {
		rep.Ratios = append(rep.Ratios, ts.Ratio)
		if ts.Ratio > rep.MaxSessionRatio {
			rep.MaxSessionRatio = ts.Ratio
		}
	}
	if stateErr != nil && rep.FirstErr == nil {
		rep.FirstErr = stateErr
	}
	text := rep.String()
	fmt.Print(text)
	if cfg.out != "" {
		if err := os.WriteFile(cfg.out, []byte(text), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dcload: writing %s: %v\n", cfg.out, err)
			return 1
		}
	}
	if cfg.repJSON != "" {
		if err := rep.writeJSON(cfg.repJSON); err != nil {
			fmt.Fprintf(os.Stderr, "dcload: writing %s: %v\n", cfg.repJSON, err)
			return 1
		}
	}
	if rep.Errs5xx > 0 || rep.Transport > 0 {
		fmt.Fprintf(os.Stderr, "dcload: FAIL: %d server errors, %d transport errors\n", rep.Errs5xx, rep.Transport)
		return 1
	}
	if cfg.record != "" && len(rep.RecordFiles) == 0 {
		fmt.Fprintln(os.Stderr, "dcload: FAIL: -record was set but no recording was downloaded")
		return 1
	}
	if cfg.maxRatio > 0 && rep.MaxSessionRatio > cfg.maxRatio {
		fmt.Fprintf(os.Stderr, "dcload: FAIL: worst tenant ratio %.4f exceeds -max-ratio %.4f\n", rep.MaxSessionRatio, cfg.maxRatio)
		return 1
	}
	return 0
}

// makeItemPicker returns a draw from the item-key distribution.
func makeItemPicker(dist string, items int) (func(*rand.Rand) int, error) {
	switch dist {
	case "uniform":
		return func(r *rand.Rand) int { return r.Intn(items) }, nil
	case "zipf":
		// s=1.2 matches the request-workload Zipf skew; item 0 is hottest.
		return func(r *rand.Rand) int {
			z := rand.NewZipf(r, 1.2, 1, uint64(items-1))
			return int(z.Uint64())
		}, nil
	default:
		return nil, fmt.Errorf("unknown item distribution %q (zipf|uniform)", dist)
	}
}

// runPoolWorker drives one tenant's request stream against the shared
// pool, chunked like the session path, retrying overload sheds.
func runPoolWorker(ctx context.Context, cl *client.Client, pool *client.Pool, reqs []client.PoolRequest, cfg poolModeConfig, qps float64) workerResult {
	var res workerResult
	var interval time.Duration
	if qps > 0 {
		interval = time.Duration(float64(cfg.batch) / qps * float64(time.Second))
	}
	next := time.Now()
	for off := 0; off < len(reqs); off += cfg.batch {
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(interval)
		}
		end := off + cfg.batch
		if end > len(reqs) {
			end = len(reqs)
		}
		res.servePoolChunk(ctx, cl, pool, reqs[off:end], cfg)
	}
	return res
}

// servePoolChunk submits one multi-item chunk under its own root trace.
// Per-chunk regret is the sum of the applied decisions' per-request
// regret — exact even though other tenants advance the pool concurrently.
func (res *workerResult) servePoolChunk(ctx context.Context, cl *client.Client, pool *client.Pool, chunk []client.PoolRequest, cfg poolModeConfig) {
	for attempt := 0; ; attempt++ {
		tp := cl.NewTraceparent()
		traceID, _ := client.TraceIDOf(tp)
		tctx := client.WithTraceparent(ctx, tp)
		t0 := time.Now()
		var served int
		var regret float64
		var err error
		if cfg.batch == 1 {
			var d client.PoolDecision
			d, err = pool.Serve(tctx, chunk[0].Tenant, chunk[0].Item, chunk[0].Server, chunk[0].T)
			served, regret = 1, d.Regret
		} else {
			var b client.PoolBatchResponse
			if cfg.ndjson {
				b, err = pool.ServeBatchNDJSON(tctx, chunk)
			} else {
				b, err = pool.ServeBatch(tctx, chunk)
			}
			served = b.Applied
			for _, d := range b.Decisions {
				regret += d.Regret
			}
		}
		if err == nil {
			lat := time.Since(t0).Seconds()
			res.Latencies = append(res.Latencies, lat)
			res.Served += served
			res.Traces = append(res.Traces, traceSample{TraceID: traceID, Latency: lat, Regret: regret})
			return
		}
		if client.IsOverloaded(err) && attempt < 50 {
			res.Sheds++
			backoff := client.RetryAfterOf(err)
			if backoff <= 0 {
				backoff = 50 * time.Millisecond
			}
			time.Sleep(backoff)
			continue
		}
		res.countError(err)
		return
	}
}

func (res *workerResult) countError(err error) {
	var ae *client.APIError
	switch {
	case errors.As(err, &ae) && ae.Status >= 500:
		res.Errs5xx++
	case ae != nil:
		res.Errs4xx++
	default:
		res.Transport++
	}
	if res.Err == nil {
		res.Err = err
	}
}

// report aggregates every worker's outcome into the printed summary.
type report struct {
	Workload        string
	Batch           int
	Elapsed         time.Duration
	Served          int
	Sheds           int
	Errs4xx         int
	Errs5xx         int
	Transport       int
	Lat             stats.Summary
	LatP999, LatMax float64
	MaxSessionRatio float64
	Ratios          []float64
	Pool            *client.PoolState          // pool mode: final pool standings
	Shadow          []client.ShadowStanding    // counterfactual policy comparison
	Slowest         []traceSample              // top 10 by round-trip latency
	TopRegret       []traceSample              // top 10 by regret added
	RecordFiles     []string                   // downloaded flight recordings
	History         []client.HistorySeries     // -history-report: server-side trajectories over the run window
	Alerts          []client.HistoryAnnotation // every alert transition in the run window
	FirstErr        error
}

// attachHistory queries the server's embedded metrics history over the
// run window: the alert-transition timeline always lands in the report
// (the JSON form's "alerts" block, which CI asserts is quiet on steady
// workloads), and with -history-report the key series' trajectories are
// kept too. The store retains closed sessions' series for one retention
// window, so this works after the deferred closes. Errors degrade to an
// empty section — a pre-history server still yields a full report.
func (rep *report) attachHistory(ctx context.Context, cl *client.Client, sessions []string, pool string, window time.Duration, withSeries bool) {
	sel := []string{"dc_engine_decision_seconds_p99"}
	for _, id := range sessions {
		sel = append(sel,
			client.SessionSeries("dc_session_windowed_ratio", id),
			client.SessionSeries("dc_session_batches_shed_total", id))
	}
	if pool != "" {
		sel = append(sel, client.PoolSeries("dc_pool_cost_over_optimum", pool))
	}
	hist, err := cl.History(ctx, client.HistoryQuery{
		Series: sel, Window: window, Agg: "avg", Limit: len(sel),
	})
	if err != nil {
		return
	}
	rep.Alerts = hist.Annotations
	if withSeries {
		rep.History = hist.Series
	}
}

// jsonReport is the machine-readable shape of -report-json: the same
// facts the text report prints, stable field names, seconds throughout.
type jsonReport struct {
	Workload   string                  `json:"workload"`
	Batch      int                     `json:"batch"`
	ElapsedSec float64                 `json:"elapsedSec"`
	Served     int                     `json:"served"`
	ReqPerSec  float64                 `json:"reqPerSec"`
	RoundTrips int                     `json:"roundTrips"`
	Sheds      int                     `json:"sheds"`
	Errs4xx    int                     `json:"errs4xx"`
	Errs5xx    int                     `json:"errs5xx"`
	Transport  int                     `json:"transport"`
	Latency    *jsonLatency            `json:"latency,omitempty"`
	WorstRatio float64                 `json:"worstRatio"`
	Ratios     []float64               `json:"ratios,omitempty"`
	Pool       *client.PoolState       `json:"pool,omitempty"`
	Shadow     []client.ShadowStanding `json:"shadow,omitempty"`
	Slowest    []traceSample           `json:"slowestTraces,omitempty"`
	TopRegret  []traceSample           `json:"topRegretTraces,omitempty"`
	Records    []string                `json:"recordings,omitempty"`
	History    []client.HistorySeries  `json:"history,omitempty"`
	// Alerts lists every alert transition (SLO rules and metric
	// anomalies) the server annotated during the run window. Always
	// present — an empty array means a quiet run, which is exactly what
	// CI asserts for steady workloads.
	Alerts     []client.HistoryAnnotation `json:"alerts"`
	FirstError string                     `json:"firstError,omitempty"`
}

type jsonLatency struct {
	MeanSec float64 `json:"meanSec"`
	P50Sec  float64 `json:"p50Sec"`
	P90Sec  float64 `json:"p90Sec"`
	P99Sec  float64 `json:"p99Sec"`
	P999Sec float64 `json:"p999Sec"`
	MaxSec  float64 `json:"maxSec"`
}

// writeJSON writes the -report-json artifact.
func (rep *report) writeJSON(path string) error {
	jr := jsonReport{
		Workload:   rep.Workload,
		Batch:      rep.Batch,
		ElapsedSec: rep.Elapsed.Seconds(),
		Served:     rep.Served,
		RoundTrips: rep.Lat.N,
		Sheds:      rep.Sheds,
		Errs4xx:    rep.Errs4xx,
		Errs5xx:    rep.Errs5xx,
		Transport:  rep.Transport,
		WorstRatio: rep.MaxSessionRatio,
		Ratios:     rep.Ratios,
		Pool:       rep.Pool,
		Shadow:     rep.Shadow,
		Slowest:    rep.Slowest,
		TopRegret:  rep.TopRegret,
		Records:    rep.RecordFiles,
		History:    rep.History,
		Alerts:     rep.Alerts,
	}
	if jr.Alerts == nil {
		jr.Alerts = []client.HistoryAnnotation{}
	}
	if rep.Elapsed > 0 {
		jr.ReqPerSec = float64(rep.Served) / rep.Elapsed.Seconds()
	}
	if rep.Lat.N > 0 {
		jr.Latency = &jsonLatency{
			MeanSec: rep.Lat.Mean, P50Sec: rep.Lat.P50, P90Sec: rep.Lat.P90,
			P99Sec: rep.Lat.P99, P999Sec: rep.LatP999, MaxSec: rep.LatMax,
		}
	}
	if rep.FirstErr != nil {
		jr.FirstError = rep.FirstErr.Error()
	}
	buf, err := json.MarshalIndent(jr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func buildReport(workloadName string, batch int, elapsed time.Duration, results []workerResult) *report {
	rep := &report{Workload: workloadName, Batch: batch, Elapsed: elapsed}
	var all []float64
	for _, r := range results {
		rep.Served += r.Served
		rep.Sheds += r.Sheds
		rep.Errs4xx += r.Errs4xx
		rep.Errs5xx += r.Errs5xx
		rep.Transport += r.Transport
		all = append(all, r.Latencies...)
		if r.Served > 0 {
			rep.Ratios = append(rep.Ratios, r.FinalRatio)
			if r.FinalRatio > rep.MaxSessionRatio {
				rep.MaxSessionRatio = r.FinalRatio
			}
		}
		if rep.FirstErr == nil && r.Err != nil {
			rep.FirstErr = r.Err
		}
		if r.RecordFile != "" {
			rep.RecordFiles = append(rep.RecordFiles, r.RecordFile)
		}
	}
	rep.Shadow = mergeShadowStandings(results)
	rep.Lat = stats.Summarize(all)
	if len(all) > 0 {
		sort.Float64s(all)
		rep.LatP999 = stats.Percentile(all, 0.999)
		rep.LatMax = all[len(all)-1]
	}
	var traces []traceSample
	for _, r := range results {
		traces = append(traces, r.Traces...)
	}
	rep.Slowest = topTraces(traces, func(a, b traceSample) bool { return a.Latency > b.Latency })
	rep.TopRegret = topTraces(traces, func(a, b traceSample) bool { return a.Regret > b.Regret })
	return rep
}

// mergeShadowStandings sums each worker-session's counterfactual
// standings by policy label — costs, hits, transfers, drops and
// divergence counts are all additive across sessions — preserving the
// row order of the first worker that reported any.
func mergeShadowStandings(results []workerResult) []client.ShadowStanding {
	var order []string
	byPolicy := map[string]*client.ShadowStanding{}
	for _, r := range results {
		for _, row := range r.Shadow {
			agg, ok := byPolicy[row.Policy]
			if !ok {
				cp := row
				cp.Best = false
				byPolicy[row.Policy] = &cp
				order = append(order, row.Policy)
				continue
			}
			agg.Cost += row.Cost
			agg.WindowedCost += row.WindowedCost
			agg.Hits += row.Hits
			agg.Transfers += row.Transfers
			agg.Drops += row.Drops
			agg.Divergence += row.Divergence
		}
	}
	if len(order) == 0 {
		return nil
	}
	out := make([]client.ShadowStanding, 0, len(order))
	best, bestCost := -1, 0.0
	for i, p := range order {
		row := *byPolicy[p]
		if row.Err == "" && (best < 0 || row.Cost < bestCost) {
			best, bestCost = i, row.Cost
		}
		out = append(out, row)
	}
	if best >= 0 {
		out[best].Best = true
	}
	return out
}

// topTraces returns the ten best samples under less (a "greater than"
// comparator yields the top ten descending).
func topTraces(ts []traceSample, less func(a, b traceSample) bool) []traceSample {
	sorted := make([]traceSample, len(ts))
	copy(sorted, ts)
	sort.SliceStable(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
	if len(sorted) > 10 {
		sorted = sorted[:10]
	}
	return sorted
}

func (rep *report) String() string {
	var b strings.Builder
	ms := func(s float64) string { return fmt.Sprintf("%.3f ms", s*1e3) }
	fmt.Fprintf(&b, "dcload report\n")
	fmt.Fprintf(&b, "  workload      %s  batch=%d\n", rep.Workload, rep.Batch)
	fmt.Fprintf(&b, "  served        %d requests in %v (%.0f req/s)\n",
		rep.Served, rep.Elapsed.Round(time.Millisecond), float64(rep.Served)/rep.Elapsed.Seconds())
	fmt.Fprintf(&b, "  round-trips   %d  (sheds retried: %d)\n", rep.Lat.N, rep.Sheds)
	if rep.Lat.N > 0 {
		fmt.Fprintf(&b, "  latency       mean %s  p50 %s  p90 %s  p99 %s  p99.9 %s  max %s\n",
			ms(rep.Lat.Mean), ms(rep.Lat.P50), ms(rep.Lat.P90), ms(rep.Lat.P99), ms(rep.LatP999), ms(rep.LatMax))
	}
	fmt.Fprintf(&b, "  errors        4xx=%d 5xx=%d transport=%d\n", rep.Errs4xx, rep.Errs5xx, rep.Transport)
	if rep.Pool != nil {
		fmt.Fprintf(&b, "  pool          items=%d live=%d evictions=%d revivals=%d ratio=%.4f\n",
			rep.Pool.Items, rep.Pool.LiveItems, rep.Pool.Evictions, rep.Pool.Revivals, rep.Pool.Ratio)
		fmt.Fprintf(&b, "  tenant ratios worst %.4f\n", rep.MaxSessionRatio)
		for _, ts := range rep.Pool.Tenants {
			name := ts.Tenant
			if name == "" {
				name = "(default)"
			}
			fmt.Fprintf(&b, "    %-10s n=%-7d items=%-5d ratio %.4f  windowed %.4f\n",
				name, ts.N, ts.Items, ts.Ratio, ts.WindowedRatio)
		}
	} else if len(rep.Ratios) > 0 {
		fmt.Fprintf(&b, "  final ratios  worst %.4f  per-session %s\n", rep.MaxSessionRatio, fmtRatios(rep.Ratios))
	}
	if len(rep.Shadow) > 0 {
		fmt.Fprintf(&b, "  shadow policies (counterfactual, lockstep with live):\n")
		fmt.Fprintf(&b, "    %-20s %14s %8s %9s %8s %7s %9s\n",
			"policy", "cost", "/opt", "hits", "xfers", "drops", "diverged")
		for _, row := range rep.Shadow {
			mark := " "
			switch {
			case row.Err != "":
				mark = "!"
			case row.Best:
				mark = "*"
			}
			name := row.Policy
			if row.Live {
				name += " (live)"
			}
			fmt.Fprintf(&b, "  %s %-20s %14.4f %8.4f %9d %8d %7d %9d\n",
				mark, name, row.Cost, row.CostOverOptimum, row.Hits, row.Transfers, row.Drops, row.Divergence)
		}
	}
	if len(rep.Slowest) > 0 {
		fmt.Fprintf(&b, "  slowest traces (GET /v1/traces/{id}):\n")
		for _, ts := range rep.Slowest {
			fmt.Fprintf(&b, "    %s  %s  regret %+.4f\n", ts.TraceID, ms(ts.Latency), ts.Regret)
		}
	}
	if len(rep.TopRegret) > 0 {
		fmt.Fprintf(&b, "  highest-regret traces (GET /v1/traces/{id}):\n")
		for _, ts := range rep.TopRegret {
			fmt.Fprintf(&b, "    %s  regret %+.4f  %s\n", ts.TraceID, ts.Regret, ms(ts.Latency))
		}
	}
	if len(rep.History) > 0 {
		fmt.Fprintf(&b, "  history (server-side trajectories over the run window):\n")
		for _, sr := range rep.History {
			vals := make([]float64, len(sr.Points))
			for i, p := range sr.Points {
				vals[i] = p.V
			}
			fmt.Fprintf(&b, "    %-56s %s  last %.4g\n", sr.Key, stats.Sparkline(vals), vals[len(vals)-1])
		}
	}
	if len(rep.Alerts) > 0 {
		fmt.Fprintf(&b, "  alert transitions during the run:\n")
		for _, a := range rep.Alerts {
			line := fmt.Sprintf("    %-18s %s -> %s  value %.4g  scope %s", a.Rule, a.From, a.To, a.Value, a.Scope)
			if a.TraceID != "" {
				line += "  trace " + a.TraceID
			}
			b.WriteString(line + "\n")
		}
	}
	if len(rep.RecordFiles) > 0 {
		fmt.Fprintf(&b, "  recordings    %d file(s) in %s (replay: dcreplay -in %s)\n",
			len(rep.RecordFiles), filepath.Dir(rep.RecordFiles[0]), filepath.Dir(rep.RecordFiles[0]))
	}
	if rep.FirstErr != nil {
		fmt.Fprintf(&b, "  first error   %v\n", rep.FirstErr)
	}
	return b.String()
}

func fmtRatios(rs []float64) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%.3f", r)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
