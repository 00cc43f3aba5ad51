package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"datacache"
	"datacache/client"
	"datacache/internal/engine"
	"datacache/internal/model"
	"datacache/internal/obs"
	"datacache/internal/obs/tsdb"
	"datacache/internal/offline"
	"datacache/internal/planner"
	"datacache/internal/recorder"
	"datacache/internal/service"
)

// The traced run replays one workload's generated inputs through each
// layer's public entry point, one level at a time:
//
//	1  HTTP to the dcserved process, with /metrics counter deltas
//	2  service.Server.ServeHTTP in process
//	3  datacache.Session / datacache.Pool
//	4  engine.Stream and offline.Incremental
//	5  engine.ShadowSet, the hybrid decider, recorder.Writer, tsdb.Store
//
// Every call gets a span. Spans of one request share the call id (pass
// and position in the pass script) across levels; a span's parent is
// the span one level up with the same id. Levels 1 to 3 replay every
// pass level 1 traced; levels 4 and 5 replay the first pass only, a
// sample whose size the report states. A layer's self time is its spans
// minus the next level's spans for the same requests: paired by id where
// both levels replay every pass, by per-request means against levels 4
// and 5. Spans stay in memory and are written to <workdir>/spans/ when
// the run ends.

// span is one timed call at one level. sub numbers the requests inside a
// batch call at levels 4 and 5. Spans hold no pointers (the name is an
// index into spanNames, times are ns since epoch), so the collector never
// scans the log and the timed calls pay no mark assist for it.
type span struct {
	id         uint64
	sub        int32
	level      uint8
	name       uint8
	start, end int64
}

// epoch is the origin of span times.
var epoch = time.Now()

func sinceEpoch(t time.Time) int64 { return t.Sub(epoch).Nanoseconds() }

var (
	spanNames []string
	spanIndex = map[string]uint8{}
)

func nameIndex(name string) uint8 {
	i, ok := spanIndex[name]
	if !ok {
		i = uint8(len(spanNames))
		spanNames = append(spanNames, name)
		spanIndex[name] = i
	}
	return i
}

type spanLog struct{ spans []span }

func (l *spanLog) add(id uint64, sub int, level uint8, name string, start, end time.Time) {
	l.spans = append(l.spans, span{id: id, sub: int32(sub), level: level, name: nameIndex(name),
		start: sinceEpoch(start), end: sinceEpoch(end)})
}

// timed runs f and records its span.
func (l *spanLog) timed(id uint64, sub int, level uint8, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	l.add(id, sub, level, name, start, end)
	return end.Sub(start)
}

// write saves every span, one per line: level, id, sub, name, start and
// end in ns from the benchmark's start, and the parent span's (level, id).
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "level\tid\tsub\tname\tstart_ns\tend_ns\tparent")
	for _, s := range l.spans {
		parent := "-"
		if s.level > 1 {
			parent = fmt.Sprintf("L%d:%x", s.level-1, s.id)
		}
		fmt.Fprintf(w, "%d\t%x\t%d\t%s\t%d\t%d\t%s\n", s.level, s.id, s.sub, spanNames[s.name], s.start, s.end, parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// row is one per-layer metric with the base it is a ratio over and the
// samples it was measured from.
type row struct {
	name    string
	unit    string
	value   float64
	base    string
	samples int
}

// report collects the per-layer rows in print order.
type report struct{ rows []row }

func (r *report) add(name, unit string, value float64, base string, samples int) {
	if samples == 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0 // the workload does not exercise this layer (JSON has no NaN)
	}
	r.rows = append(r.rows, row{name, unit, value, base, samples})
}

// stats summarizes durations in µs.
type stats struct{ xs []float64 }

func (s *stats) add(d time.Duration) { s.xs = append(s.xs, float64(d.Nanoseconds())/1e3) }
func (s *stats) n() int              { return len(s.xs) }
func (s *stats) sum() float64 {
	t := 0.0
	for _, x := range s.xs {
		t += x
	}
	return t
}
func (s *stats) mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum() / float64(len(s.xs))
}
func (s *stats) quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	c := append([]float64(nil), s.xs...)
	sort.Float64s(c)
	return c[min(len(c)-1, int(q*float64(len(c))))]
}

// traceID stamps the same 32-hex-digit trace id length the server's
// recorder records carry.
func traceID(id uint64) string { return fmt.Sprintf("%032x", id) }

func tracedRun(cfg config, s *spec, exp []expected, dir string) (*result, error) {
	t := &tally{}
	res := &result{Metrics: map[string]metric{}}
	spans := &spanLog{}
	rep := &report{}

	passes, err := traceHTTP(cfg, s, exp, dir, t, spans, rep)
	if err != nil {
		return failed(res, t, err), nil
	}
	l2, err := traceService(s, dir, passes, spans, rep)
	if err != nil {
		return nil, fmt.Errorf("level 2: %w", err)
	}
	l3, err := traceDatacache(s, exp, dir, passes, spans, rep)
	if err != nil {
		return nil, fmt.Errorf("level 3: %w", err)
	}
	bd, err := traceEngine(s, spans, rep, l2, l3)
	if err != nil {
		return nil, fmt.Errorf("level 4: %w", err)
	}
	if err := traceHooks(s, dir, spans, rep, bd); err != nil {
		return nil, fmt.Errorf("level 5: %w", err)
	}
	if err := growthRows(s, rep); err != nil {
		return nil, fmt.Errorf("growth rows: %w", err)
	}

	path := filepath.Join(cfg.workdir, "spans", fmt.Sprintf("%s-seed%d.tsv", s.name, s.seed))
	if err := spans.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("per-layer metrics, %s seed %d (%d spans in %s)\n", s.name, s.seed, len(spans.spans), path)
	for _, r := range rep.rows {
		fmt.Printf("  %-36s %14.6g %-10s samples %-8d %s\n", r.name, r.value, r.unit, r.samples, r.base)
		res.Metrics[r.name] = metric{r.value, r.unit}
	}
	bd.print(s.name)
	res.Correct = t.failed == 0
	res.Attempted, res.Failed = t.attempted, t.failed
	return res, nil
}

// traceHTTP is level 1: set up a dcserved process as the end-to-end run
// does, then alternate untraced and traced passes for half the run's
// seconds between two /metrics scrapes. Alternating lets both kinds of
// pass see the same server state, so their p50 difference is the
// tracing overhead. It returns how many passes it traced.
func traceHTTP(cfg config, s *spec, exp []expected, dir string, t *tally, spans *spanLog, rep *report) (int, error) {
	srv, d, resume, _, err := setUp(cfg, s, exp, dir, 0, t)
	if err != nil {
		return 0, err
	}
	defer srv.stop()
	if resume != nil {
		// Finish the set-up session untimed so every pass below is whole.
		if _, err := d.runPass(s, exp, resume); err != nil {
			return 0, err
		}
	}
	cl := client.New("http://" + srv.addr)
	before, err := cl.Metrics(context.Background())
	if err != nil {
		return 0, fmt.Errorf("scraping /metrics: %w", err)
	}
	t.attempted++
	var untracedLat, tracedLat []int64
	d.routeNs = 0
	passes, decisions := 0, 0
	var bytesOut, bytesIn int64
	start := time.Now()
	for passes == 0 || time.Since(start).Seconds() < cfg.seconds/2 {
		// An untraced pass; its ids are never looked up.
		d.lat, d.timing, d.pass = untracedLat, true, 1<<30
		if _, err := d.runPass(s, exp, nil); err != nil {
			return 0, err
		}
		untracedLat = d.lat
		// A traced pass, numbered as levels 2 to 5 replay it.
		d.lat, d.spans, d.pass = tracedLat, spans, passes
		d.decisions, d.bytesOut, d.bytesIn = 0, 0, 0
		if _, err := d.runPass(s, exp, nil); err != nil {
			return 0, err
		}
		tracedLat, d.spans = d.lat, nil
		decisions += d.decisions
		bytesOut, bytesIn = bytesOut+d.bytesOut, bytesIn+d.bytesIn
		passes++
	}
	d.timing = false
	after, err := cl.Metrics(context.Background())
	if err != nil {
		return 0, fmt.Errorf("scraping /metrics: %w", err)
	}
	t.attempted++

	delta := func(key string) float64 { return after[key] - before[key] }
	reqs := delta(`dc_engine_events_total{kind="request"}`)
	// Client round trip against the server's own handler time over the
	// same calls: every serve and close call of both kinds of pass.
	route := "/v1/session/"
	if s.units[0].pool {
		route = "/v1/pool/"
	}
	hSum := delta(`dc_http_request_seconds_sum{route="` + route + `"}`)
	hCount := delta(`dc_http_request_seconds_count{route="` + route + `"}`)
	rep.add("client.rtt_overhead_us", "us", (float64(d.routeNs)/1e3-hSum*1e6)/hCount,
		fmt.Sprintf("per %s call: client round trip minus dc_http_request_seconds", route), int(hCount))
	untraced, traced := medianInt(untracedLat), medianInt(tracedLat)
	rep.add("client.trace_overhead_us", "us", (traced-untraced)/1e3,
		fmt.Sprintf("per serve call: p50 of traced passes (%.1f us) minus p50 of the untraced passes alternating with them (%.1f us)",
			traced/1e3, untraced/1e3), len(tracedLat))
	rep.add("service.body_bytes_per_req", "B/req", float64(bytesOut+bytesIn)/float64(decisions),
		fmt.Sprintf("request + response bytes of serve calls per decision (%d decisions)", decisions), decisions)
	rep.add("service.sheds", "count", delta("dc_session_batches_shed_total"), "429 replies during level 1", int(reqs))
	rep.add("engine.hit_ratio", "ratio", delta(`dc_engine_events_total{kind="hit"}`)/reqs,
		fmt.Sprintf("hits per request (dc_engine_events_total, %.0f requests)", reqs), int(reqs))
	rep.add("engine.transfers_per_req", "ratio", delta(`dc_engine_events_total{kind="transfer"}`)/reqs,
		fmt.Sprintf("transfers per request (dc_engine_events_total, %.0f requests)", reqs), int(reqs))
	recN := 0
	if s.recorder {
		recN = int(reqs)
	}
	rep.add("recorder.bytes_per_req", "B/req", delta(`dc_recorder_bytes{mode="binary"}`)/reqs,
		"recording bytes written per request (dc_recorder_bytes)", recN)
	rep.add("recorder.dropped", "count", delta(`dc_recorder_dropped{mode="binary"}`),
		"records shed during level 1 (dc_recorder_dropped)", recN)
	rep.add("obs.tsdb_series", "count", after["dc_history_series"], "series in the history store at the end of level 1", 1)
	rep.add("runtime.gc_cycles_per_kreq", "count/kreq", delta("dc_go_gc_cycles_total")/reqs*1e3,
		fmt.Sprintf("GC cycles per 1000 requests (dc_go_gc_cycles_total, %.0f requests)", reqs), int(reqs))
	rep.add("runtime.gc_pause_us_per_kreq", "us/kreq", delta("dc_go_gc_pause_seconds_sum")*1e6/reqs*1e3,
		"GC pause per 1000 requests (dc_go_gc_pause_seconds_sum)", int(reqs))
	rep.add("runtime.heap_mb", "MiB", after["dc_go_heap_bytes"]/(1<<20), "live heap at the end of level 1 (dc_go_heap_bytes)", 1)
	return passes, nil
}

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *respWriter) Header() http.Header         { return w.h }
func (w *respWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }
func (w *respWriter) WriteHeader(code int)        { w.code = code }

// newRecorder opens a flight recorder with dcserved's default settings.
func newRecorder(dir string) (*recorder.Writer, error) {
	return recorder.NewWriter(recorder.Options{
		Dir: dir, Mode: recorder.ModeBinary, Sync: "interval", SyncInterval: recorder.DefaultSyncInterval,
		RotateBytes: 64 << 20, Source: "dcserved/" + service.Version,
	})
}

// serviceTimes is what level 2 measured, by call id.
type serviceTimes struct {
	handler map[uint64]time.Duration // serve calls, by call id
	total   float64                  // µs over every serve call
	probe   []time.Duration          // session-long: single calls at n <= probeN
}

// probeN is how many requests the small-n probe serves one call each.
const probeN = 64

// traceService is level 2: the same calls through service.Server.ServeHTTP
// in process, on a server configured as dcserved's defaults configure it.
func traceService(s *spec, dir string, passes int, spans *spanLog, rep *report) (*serviceTimes, error) {
	opts := []service.Option{
		service.WithLogger(obs.NewLogger(io.Discard, slog.LevelInfo, "text")),
		service.WithTraceSeed(time.Now().UnixNano()),
		service.WithRuntimeMetrics(),
		service.WithHistoryOptions(tsdb.Options{Interval: time.Second}),
	}
	if s.recorder {
		rec, err := newRecorder(filepath.Join(dir, "level2"))
		if err != nil {
			return nil, err
		}
		defer rec.Close()
		opts = append(opts, service.WithRecorder(rec))
	}
	srv := service.New(opts...)
	w := &respWriter{h: http.Header{}}
	runtime.GC() // every level starts from a collected heap
	st := &serviceTimes{handler: map[uint64]time.Duration{}}
	var handler, lifecycle, scrape, sample stats
	var mallocs, allocBytes uint64
	var ms0, ms1 runtime.MemStats
	serveCalls := 0
	// The first replayed pass warms the in-process server up, as set-up
	// does at level 1; it records nothing.
	warm := true
	cur := &spanLog{}
	count := func() {
		if !warm {
			mallocs += ms1.Mallocs - ms0.Mallocs
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
	}
	do := func(id uint64, name, method, path string, body []byte) ([]byte, time.Duration, error) {
		req, err := http.NewRequest(method, path, bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		clear(w.h)
		w.code = http.StatusOK
		w.buf.Reset()
		d := cur.timed(id, 0, 2, name, func() { srv.ServeHTTP(w, req) })
		if w.code/100 != 2 {
			return nil, d, fmt.Errorf("%s %s: status %d: %.200s", method, path, w.code, w.buf.Bytes())
		}
		return w.buf.Bytes(), d, nil
	}
	// Serve calls are bracketed by MemStats reads; scrapes and history
	// samples in between are excluded from the allocation counts.
	sinceScrape, sinceSample := 0, 0
	sampleEvery := max(1, s.requestsPerPass()/batchSize/4)
	afterServe := func(id uint64) error {
		sinceSample++
		if sinceSample >= sampleEvery {
			sinceSample = 0
			runtime.ReadMemStats(&ms1)
			count()
			if d := cur.timed(id, 0, 5, "tsdb.sample", srv.SampleMetricsNow); !warm {
				sample.add(d)
			}
			runtime.ReadMemStats(&ms0)
		}
		if s.scrapeEvery == 0 {
			return nil
		}
		if sinceScrape++; sinceScrape < s.scrapeEvery {
			return nil
		}
		sinceScrape = 0
		runtime.ReadMemStats(&ms1)
		count()
		_, d, err := do(id|1<<31, "scrape", http.MethodGet, "/metrics", nil)
		if !warm {
			scrape.add(d)
		}
		runtime.ReadMemStats(&ms0)
		return err
	}
	for p := -1; p < passes; p++ {
		if warm = p < 0; !warm {
			cur = spans
		}
		pos := 0
		sinceScrape = 0
		for _, u := range s.units {
			reply, dc, err := do(callID(p, pos), "create", http.MethodPost, unitPath(u), u.create)
			if err != nil {
				return nil, err
			}
			id := extractID(reply)
			runtime.ReadMemStats(&ms0)
			serve := func(k int, name, path string, body []byte) error {
				cid := callID(p, pos+k)
				_, d, err := do(cid, name, http.MethodPost, path, body)
				if err != nil {
					return err
				}
				if !warm {
					handler.add(d)
					st.handler[cid] = d
					serveCalls++
				}
				return afterServe(cid)
			}
			for i, b := range u.batches {
				if err := serve(1+i, "batch", unitPath(u)+"/"+id+"/requests", b); err != nil {
					return nil, err
				}
			}
			for i, b := range u.singles {
				if err := serve(1+len(u.batches)+i, "single", unitPath(u)+"/"+id+"/request", b); err != nil {
					return nil, err
				}
			}
			runtime.ReadMemStats(&ms1)
			count()
			_, dd, err := do(callID(p, pos+unitCalls(u)-1), "close", http.MethodDelete, unitPath(u)+"/"+id, nil)
			if err != nil {
				return nil, err
			}
			if !warm {
				lifecycle.add(dc + dd)
			}
			pos += unitCalls(u)
		}
	}
	if s.setupSplit {
		// The small-n probe: the session's first requests served one call
		// each on a fresh session, where Stream.Cost is still cheap.
		u := s.units[0]
		reply, _, err := do(1<<31, "create", http.MethodPost, unitPath(u), u.create)
		if err != nil {
			return nil, err
		}
		id := extractID(reply)
		for i, r := range u.seq.Requests[:probeN] {
			_, d, err := do(uint64(1<<31|1+i), "probe", http.MethodPost, unitPath(u)+"/"+id+"/request", encodeSingle(r))
			if err != nil {
				return nil, err
			}
			st.probe = append(st.probe, d)
		}
		if _, _, err := do(uint64(1<<31|1+probeN), "close", http.MethodDelete, unitPath(u)+"/"+id, nil); err != nil {
			return nil, err
		}
	}
	if scrape.n() == 0 {
		// Workloads without scrapes in their script still price one
		// exposition of the server state they leave behind.
		for i := 0; i < 8; i++ {
			_, d, err := do(uint64(1<<31|i), "scrape", http.MethodGet, "/metrics", nil)
			if err != nil {
				return nil, err
			}
			scrape.add(d)
		}
	}
	st.total = handler.sum()
	per := fmt.Sprintf("per serve call over %d passes", passes)
	rep.add("service.handler_us", "us", handler.mean(), "mean Server.ServeHTTP time "+per, handler.n())
	rep.add("service.handler_p99_us", "us", handler.quantile(0.99), "p99 Server.ServeHTTP time "+per, handler.n())
	rep.add("service.allocs_per_call", "count", float64(mallocs)/float64(serveCalls), "heap allocations "+per, serveCalls)
	rep.add("service.alloc_bytes_per_call", "B", float64(allocBytes)/float64(serveCalls), "bytes allocated "+per, serveCalls)
	rep.add("service.lifecycle_us", "us", lifecycle.mean(), "create + close per session or pool", lifecycle.n())
	rep.add("service.scrape_ms", "ms", scrape.mean()/1e3, "GET /metrics exposition per scrape", scrape.n())
	rep.add("obs.tsdb_sample_ms", "ms", sample.mean()/1e3,
		fmt.Sprintf("Store.Sample per tick, one tick every %d serve calls", sampleEvery), sample.n())
	return st, nil
}

func extractID(reply []byte) string {
	const key = `"id":"`
	i := bytes.Index(reply, []byte(key))
	if i < 0 {
		return ""
	}
	rest := reply[i+len(key):]
	return string(rest[:bytes.IndexByte(rest, '"')])
}

// sessionOptions mirrors what the service passes to datacache.NewSession
// for a /v1/session create, and obs counts the decision events the way
// its observer does.
func sessionOptions(s *spec, rec *recorder.Writer, id string, evs *[]obs.Event) (*datacache.SessionOptions, error) {
	shadows, err := datacache.WithShadowPolicies(s.shadows...)
	if err != nil {
		return nil, err
	}
	o := &datacache.SessionOptions{
		Policy:         s.policy,
		TraceCap:       service.DefaultTraceCap,
		SLOWindow:      service.DefaultSLOWindow,
		Observer:       obs.ObserverFunc(func(ev obs.Event) { *evs = append(*evs, ev) }),
		ShadowPolicies: shadows,
		ShadowMargin:   datacache.DefaultShadowMargin,
		RecordSession:  id,
	}
	if rec != nil {
		o.Recorder = rec
	}
	return o, nil
}

// datacacheTimes is what level 3 measured.
type datacacheTimes struct {
	serve map[uint64]time.Duration // serve calls, by call id
	total float64                  // µs over every serve call
	reqs  int                      // requests over every serve call
}

// traceDatacache is level 3: the same serve calls straight into
// datacache.Session and datacache.Pool with the service's options.
func traceDatacache(s *spec, exp []expected, dir string, passes int, spans *spanLog, rep *report) (*datacacheTimes, error) {
	var rec *recorder.Writer
	if s.recorder {
		var err error
		if rec, err = newRecorder(filepath.Join(dir, "level3")); err != nil {
			return nil, err
		}
		defer rec.Close()
	}
	var evs []obs.Event
	runtime.GC()
	dt := &datacacheTimes{serve: map[uint64]time.Duration{}}
	var sessServe, poolServe stats
	sessReqs, poolReqs := 0, 0
	var incarnations, evictions, poolN int
	ctx := context.Background()
	// As at level 2, a first untimed pass warms up.
	for p := -1; p < passes; p++ {
		warm := p < 0
		cur := spans
		if warm {
			cur = &spanLog{}
		}
		pos := 0
		for j, u := range s.units {
			id := fmt.Sprintf("bench-%d-%d", p, j)
			if u.pool {
				pool, err := datacache.NewPool(numServers, 1, costModel, &datacache.PoolOptions{
					Session: datacache.SessionOptions{
						Policy: s.policy, ShadowMargin: -1, RecordSession: id,
						Observer: obs.ObserverFunc(func(obs.Event) {}),
					},
					MaxItems:        s.maxItems,
					TenantSLOWindow: service.DefaultSLOWindow,
				})
				if err != nil {
					return nil, err
				}
				for b := 0; b*batchSize < len(u.poolReqs); b++ {
					reqs := u.poolReqs[b*batchSize : min((b+1)*batchSize, len(u.poolReqs))]
					cid := callID(p, pos+1+b)
					pool.SetRecordTraceID(traceID(cid))
					var res *datacache.PoolBatchResult
					d := cur.timed(cid, 0, 3, "pool.serve_batch", func() { res, err = pool.ServeBatch(ctx, reqs) })
					if err != nil {
						return nil, fmt.Errorf("pool batch %d: %w", b, err)
					}
					if res.FirstRejected >= 0 {
						return nil, fmt.Errorf("pool batch %d: %s", b, res.RejectReason)
					}
					if !warm {
						poolServe.add(d)
						poolReqs += len(reqs)
						dt.serve[cid] = d
					}
				}
				if err := pool.Close(); err != nil {
					return nil, err
				}
				st := pool.Stats()
				if st.Cost != exp[j].Cost {
					return nil, fmt.Errorf("level-3 pool cost %v, want %v", st.Cost, exp[j].Cost)
				}
				if !warm {
					incarnations += st.Items + st.Revivals
					evictions += st.Evictions
					poolN += st.N
				}
			} else {
				opts, err := sessionOptions(s, rec, id, &evs)
				if err != nil {
					return nil, err
				}
				sess, err := datacache.NewSession(numServers, 1, costModel, opts)
				if err != nil {
					return nil, err
				}
				for i := 0; i*batchSize < u.warm; i++ {
					reqs := u.seq.Requests[i*batchSize : min((i+1)*batchSize, u.warm)]
					cid := callID(p, pos+1+i)
					sess.SetRecordTraceID(traceID(cid))
					evs = evs[:0]
					d := cur.timed(cid, 0, 3, "session.serve_batch", func() { _, err = sess.ServeBatch(ctx, reqs) })
					if err != nil {
						return nil, err
					}
					if !warm {
						sessServe.add(d)
						sessReqs += len(reqs)
						dt.serve[cid] = d
					}
				}
				for i, r := range u.seq.Requests[u.warm:] {
					cid := callID(p, pos+1+len(u.batches)+i)
					sess.SetRecordTraceID(traceID(cid))
					evs = evs[:0]
					d := cur.timed(cid, 0, 3, "session.serve", func() { _, err = sess.Serve(r.Server, r.Time) })
					if err != nil {
						return nil, err
					}
					if !warm {
						sessServe.add(d)
						sessReqs++
						dt.serve[cid] = d
					}
				}
				if _, err := sess.Close(); err != nil {
					return nil, err
				}
				if sess.Cost() != exp[j].Cost {
					return nil, fmt.Errorf("level-3 session cost %v, want %v", sess.Cost(), exp[j].Cost)
				}
			}
			pos += unitCalls(u)
		}
	}
	dt.total, dt.reqs = sessServe.sum()+poolServe.sum(), sessReqs+poolReqs
	rep.add("datacache.session_serve_us", "us", sessServe.sum()/float64(max(sessReqs, 1)),
		"Session.Serve per request (ServeBatch time over its requests)", sessReqs)
	rep.add("datacache.pool_serve_us", "us", poolServe.sum()/float64(max(poolReqs, 1)),
		"Pool.ServeBatch per request", poolReqs)
	rep.add("datacache.pool_incarnations_per_kreq", "count/kreq", float64(incarnations)/float64(max(poolN, 1))*1e3,
		fmt.Sprintf("lazy NewSession calls (first-seen + revived) per 1000 pool requests (%d requests)", poolN), poolN)
	rep.add("datacache.pool_evictions_per_kreq", "count/kreq", float64(evictions)/float64(max(poolN, 1))*1e3,
		fmt.Sprintf("LRU evictions per 1000 pool requests (%d requests)", poolN), poolN)

	// NewSession + Close with the options the workload's sessions (or
	// pool items) are created with.
	var lifecycle stats
	for i := 0; i < 256; i++ {
		var opts *datacache.SessionOptions
		if s.units[0].pool {
			opts = &datacache.SessionOptions{Policy: s.policy, ShadowMargin: -1, Observer: obs.ObserverFunc(func(obs.Event) {})}
		} else {
			var err error
			if opts, err = sessionOptions(s, rec, "bench-lifecycle", &evs); err != nil {
				return nil, err
			}
		}
		var err error
		lifecycle.add(spans.timed(uint64(i), 0, 3, "new_session", func() {
			var sess *datacache.Session
			if sess, err = datacache.NewSession(numServers, 1, costModel, opts); err == nil {
				_, err = sess.Close()
			}
		}))
		if err != nil {
			return nil, err
		}
	}
	rep.add("datacache.new_session_us", "us", lifecycle.mean(), "NewSession + Close with the workload's options", lifecycle.n())
	return dt, nil
}

// decider builds the engine decider of the workload's live policy.
func decider(policy string) engine.Decider {
	if strings.HasPrefix(policy, "hybrid") {
		return &planner.Hybrid{Horizon: 8, Order: 2}
	}
	return &engine.SC{}
}

// request is one decision of the first pass with the call it rode in.
type request struct {
	call uint64
	sub  int
	r    model.Request
}

// streams lists the first pass's engine instances as request sequences:
// one per session, one per pool incarnation.
func streams(s *spec) [][]request {
	var out [][]request
	pos := 0
	for _, u := range s.units {
		if u.pool {
			for _, in := range poolIncarnations(u, s.maxItems) {
				rs := make([]request, len(in.seq.Requests))
				for i, r := range in.seq.Requests {
					rs[i] = request{call: callID(0, pos+1+in.calls[i]), sub: in.subs[i], r: r}
				}
				out = append(out, rs)
			}
		} else {
			rs := make([]request, u.seq.N())
			for i, r := range u.seq.Requests {
				call, sub := pos+1+len(u.batches)+i-u.warm, 0
				if i < u.warm {
					call, sub = pos+1+i/batchSize, i%batchSize
				}
				rs[i] = request{call: callID(0, call), sub: sub, r: r}
			}
			out = append(out, rs)
		}
		pos += unitCalls(u)
	}
	return out
}

// traceEngine is level 4: the first pass's requests through bare
// engine.Stream and offline.Incremental instances, timing the decision,
// the cost query, the DP append and the optimum query per request.
func traceEngine(s *spec, spans *spanLog, rep *report, l2 *serviceTimes, l3 *datacacheTimes) (*breakdown, error) {
	var decide, cost, appendT, optCost stats
	costOf := map[uint64]time.Duration{} // Stream.Cost time per call id
	var costByN []float64                // Stream.Cost ns per request of the first stream
	for _, rs := range streams(s) {
		str, err := engine.NewStream(decider(s.policy), engine.State{M: numServers, Origin: 1, Model: costModel})
		if err != nil {
			return nil, err
		}
		inc, err := offline.NewIncremental(numServers, 1, costModel)
		if err != nil {
			return nil, err
		}
		for i, q := range rs {
			var e error
			a := spans.timed(q.call, q.sub, 4, "engine.decide", func() { _, e = str.Serve(q.r.Server, q.r.Time) })
			b := spans.timed(q.call, q.sub, 4, "engine.cost", func() { str.Cost(costModel) })
			c := spans.timed(q.call, q.sub, 4, "offline.append", func() { e = inc.Append(q.r) })
			d := spans.timed(q.call, q.sub, 4, "offline.cost", func() { inc.Cost() })
			if e != nil {
				return nil, e
			}
			decide.add(a)
			cost.add(b)
			appendT.add(c)
			optCost.add(d)
			costOf[q.call] += b
			if len(costByN) == i {
				costByN = append(costByN, float64(b.Nanoseconds()))
			}
		}
	}
	n := decide.n()
	rep.add("engine.decide_us", "us", decide.mean(), "Stream.Serve per request (first pass)", n)
	rep.add("engine.cost_us", "us", cost.mean(), "Stream.Cost per call, once per request (first pass)", n)
	rep.add("offline.append_us", "us", appendT.mean(), "Incremental.Append per request (first pass)", n)
	rep.add("offline.cost_us", "us", optCost.mean(), "Incremental.Cost per request (first pass)", n)
	retained, appended := retainedBytes(s)
	rep.add("offline.retained_bytes_per_req", "B/req", retained,
		"live heap held by the first pass's Incremental DPs after GC, per request appended", appended)

	// Self times. The service's self time pairs each handler call with
	// the datacache call of the same id, over every replayed pass. Level 4
	// replays the first pass only, and every pass serves the same
	// requests, so the datacache self time subtracts per-request means.
	perReq := func(sum float64) float64 { return sum / float64(max(n, 1)) }
	bd := &breakdown{
		handler:   l2.total / float64(max(l3.reqs, 1)),
		datacache: l3.total / float64(max(l3.reqs, 1)),
		decide:    perReq(decide.sum()), cost: perReq(cost.sum()),
		append: perReq(appendT.sum()), optCost: perReq(optCost.sum()),
		reqs: l3.reqs,
	}
	var svcSelf float64
	svcCalls := 0
	for id, d := range l3.serve {
		if h, ok := l2.handler[id]; ok {
			svcSelf += us(h - d)
			svcCalls++
		}
	}
	rep.add("service.self_us", "us", svcSelf/float64(max(svcCalls, 1)),
		"Server.ServeHTTP minus the datacache serve call of the same id, per serve call", svcCalls)
	sessReqs := 0
	if !s.units[0].pool {
		sessReqs = n
	}
	rep.add("datacache.session_self_us", "us", bd.datacache-bd.decide-bd.cost-bd.append-bd.optCost,
		"Session.Serve minus engine and offline time (SLO, shadow, planner and recorder hooks), per-request means", sessReqs)

	// How many Stream.Cost-sized terms one single-request handler call
	// pays. Measurable only where sessions are long enough for the cost
	// term to grow (session-long).
	calls, samples := costCallsPerSingle(s, l2, costByN)
	rep.add("engine.cost_calls_per_single", "count", calls,
		fmt.Sprintf("Stream.Cost-sized terms per single-request handler call: handler p50 growth from n <= %d to the timed singles over Stream.Cost p50 growth", probeN), samples)
	if calls > 1 {
		u := s.units[0]
		extra := 0.0
		for i := range u.singles {
			extra += (calls - 1) * us(costOf[callID(0, 1+len(u.batches)+i)])
		}
		bd.extraCost = perReq(extra)
	}
	return bd, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// breakdown splits Server.ServeHTTP time into layers, in µs per
// decision: levels 2 and 3 over every replayed pass, levels 4 and 5 over
// the first.
type breakdown struct {
	handler, datacache             float64
	decide, cost, append, optCost  float64
	extraCost                      float64 // Stream.Cost-sized terms the handler pays beyond Session.Serve's one
	shadow, recorder, plannerExtra float64 // level-5 hooks, parts of datacache self and engine.decide
	reqs                           int
}

// print writes the layer shares of server time.
func (b *breakdown) print(name string) {
	fmt.Printf("server time by layer, %s (%.2f us of Server.ServeHTTP per decision, %d decisions):\n", name, b.handler, b.reqs)
	line := func(label string, v float64) {
		fmt.Printf("  %-58s %10.2f us %6.1f%%\n", label, v, 100*v/b.handler)
	}
	line("service self (residual)", b.handler-b.datacache-b.extraCost)
	line("engine.cost in the handler beyond Session.Serve (estimated)", b.extraCost)
	line("datacache self (Session/Pool minus engine, offline)", b.datacache-b.decide-b.cost-b.append-b.optCost)
	line("  of which engine.shadow (level 5)", b.shadow)
	line("  of which recorder.append (level 5)", b.recorder)
	line("engine.decide", b.decide)
	line("  of which planner.extra (level 5)", b.plannerExtra)
	line("engine.cost inside Session.Serve / Pool.ServeBatch", b.cost)
	line("offline.append", b.append)
	line("offline.cost", b.optCost)
	line("engine.cost total", b.cost+b.extraCost)
}

// retainedBytes builds every Incremental DP of the first pass, keeps
// them alive, and returns the live heap they hold per request appended.
func retainedBytes(s *spec) (float64, int) {
	all := streams(s)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := make([]*offline.Incremental, 0, len(all))
	n := 0
	for _, rs := range all {
		inc, err := offline.NewIncremental(numServers, 1, costModel)
		if err != nil {
			return 0, 0
		}
		for _, q := range rs {
			if inc.Append(q.r) != nil {
				return 0, 0
			}
		}
		keep = append(keep, inc)
		n += len(rs)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n), n
}

// costCallsPerSingle estimates how many Stream.Cost-sized terms one
// single-request handler call pays on session-long: the growth of the
// median handler time from the small-n probe (the session's first
// requests) to the timed singles, over the growth of the median
// Stream.Cost time between the same session lengths.
func costCallsPerSingle(s *spec, l2 *serviceTimes, costByN []float64) (float64, int) {
	if !s.setupSplit || len(l2.probe) == 0 {
		return 0, 0
	}
	u := s.units[0]
	var hBig, hSmall []float64
	for i := range u.singles {
		if h, ok := l2.handler[callID(0, 1+len(u.batches)+i)]; ok {
			hBig = append(hBig, float64(h.Nanoseconds()))
		}
	}
	for _, h := range l2.probe {
		hSmall = append(hSmall, float64(h.Nanoseconds()))
	}
	dc := median(costByN[u.warm:]) - median(costByN[:len(hSmall)])
	if dc <= 0 || len(hBig) == 0 {
		return 0, 0
	}
	return (median(hBig) - median(hSmall)) / dc, len(hBig) + len(hSmall)
}

// traceHooks is level 5: the shadow panel, the hybrid planner against
// plain SC, and the flight recorder, on the first pass's requests.
func traceHooks(s *spec, dir string, spans *spanLog, rep *report, bd *breakdown) error {
	var shadow, hybridT, scT, appendT stats
	var predHits, mispredicts, reqs int
	var rec *recorder.Writer
	if s.recorder {
		var err error
		if rec, err = newRecorder(filepath.Join(dir, "level5")); err != nil {
			return err
		}
	}
	runtime.GC()
	for k, rs := range streams(s) {
		st := engine.State{M: numServers, Origin: 1, Model: costModel}
		hybrid := strings.HasPrefix(s.policy, "hybrid")
		var ss *engine.ShadowSet
		if len(s.shadows) > 0 {
			panel := s.shadows
			if hybrid {
				// A hybrid session adds its own sc shadow.
				panel = append(append([]string(nil), panel...), "sc")
			}
			ds := make([]engine.ShadowDecider, 0, len(panel))
			for _, sh := range panel {
				sp, err := datacache.ParsePolicySpec(sh)
				if err != nil {
					return err
				}
				ds = append(ds, engine.ShadowDecider{Name: sh, D: shadowDecider(sp)})
			}
			var err error
			if ss, err = engine.NewShadowSet(st, service.DefaultSLOWindow, ds); err != nil {
				return err
			}
		}
		// The live stream feeds the shadows their live decisions; with the
		// hybrid decider it is also timed against plain SC.
		var hy *planner.Hybrid
		var live, sc *engine.Stream
		var err error
		if hybrid || ss != nil {
			d := decider(s.policy)
			hy, _ = d.(*planner.Hybrid)
			if live, err = engine.NewStream(d, st); err != nil {
				return err
			}
		}
		if hy != nil {
			if sc, err = engine.NewStream(&engine.SC{}, st); err != nil {
				return err
			}
		}
		var streamID uint32
		if rec != nil {
			streamID = rec.OpenStream(recorder.StreamInfo{Session: fmt.Sprintf("bench-%d", k), M: numServers, Origin: 1,
				Mu: costModel.Mu, Lambda: costModel.Lambda, Policy: s.policy})
		}
		for _, q := range rs {
			var ld engine.Decision
			if live != nil {
				a := spans.timed(q.call, q.sub, 5, "live.decide", func() { ld, err = live.Serve(q.r.Server, q.r.Time) })
				if err != nil {
					return err
				}
				if hy != nil {
					hybridT.add(a)
					scT.add(spans.timed(q.call, q.sub, 5, "sc.decide", func() { _, err = sc.Serve(q.r.Server, q.r.Time) }))
					if err != nil {
						return err
					}
				}
			}
			if ss != nil {
				liveCost := live.CostLive(costModel)
				shadow.add(spans.timed(q.call, q.sub, 5, "engine.shadow", func() { ss.Serve(q.r.Server, q.r.Time, ld, liveCost) }))
			}
			if rec != nil {
				r := recorder.Record{Kind: recorder.KindServe, Stream: streamID, Time: q.r.Time, Server: int(q.r.Server),
					From: int(ld.From), Hit: ld.Hit, Drops: ld.Drops, Cost: float64(reqs), Optimal: float64(reqs),
					TraceID: traceID(q.call)}
				appendT.add(spans.timed(q.call, q.sub, 5, "recorder.append", func() { err = rec.Append(r) }))
				if err != nil {
					return err
				}
			}
			reqs++
		}
		if rec != nil {
			rec.CloseStream(streamID)
		}
		if hy != nil {
			st := hy.Stats()
			predHits += st.PredHits
			mispredicts += st.Mispredicts
		}
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			return err
		}
	}
	perReq := func(sum float64) float64 { return sum / float64(max(reqs, 1)) }
	bd.shadow, bd.recorder, bd.plannerExtra = perReq(shadow.sum()), perReq(appendT.sum()), perReq(hybridT.sum()-scT.sum())
	rep.add("engine.shadow_us", "us", shadow.mean(), "ShadowSet.Serve per request with the workload's panel (first pass)", shadow.n())
	rep.add("planner.extra_us", "us", hybridT.mean()-scT.mean(), "Stream.Serve with the hybrid decider minus with SC, per request (first pass)", hybridT.n())
	planned := predHits + mispredicts
	rep.add("planner.predicted_hit_ratio", "ratio", float64(predHits)/float64(max(planned, 1)),
		fmt.Sprintf("planned predictions that came true (%d planned)", planned), hybridT.n())
	rep.add("planner.mispredicts_per_kreq", "count/kreq", float64(mispredicts)/float64(max(hybridT.n(), 1))*1e3,
		"planned predictions that came false per 1000 requests", hybridT.n())
	rep.add("recorder.append_us", "us", appendT.mean(), "Writer.Append per record (first pass)", appendT.n())
	return nil
}

// shadowDecider builds a shadow panel entry's decider from its spec.
func shadowDecider(sp datacache.PolicySpec) engine.Decider {
	switch sp.Policy {
	case "migrate":
		return &engine.Migrate{}
	case "replicate", "keep":
		return &engine.Replicate{}
	case "ttl":
		return &engine.SC{Window: sp.Window}
	default:
		return &engine.SC{Window: sp.Window, EpochTransfers: sp.EpochTransfers}
	}
}

// growthN0 is the session length the growth rows start from; they
// compare per-request time at n₀ and at 4·n₀.
const growthN0 = 1024

// growthRows times Stream.Cost, Incremental.Append and Session.Serve at
// n₀ and at 4·n₀ on the session-long inputs (ROADMAP item 1's flat-in-n
// check). A ratio of 1.0 means the cost does not depend on n.
func growthRows(s *spec, rep *report) error {
	if !s.setupSplit {
		rep.add("engine.cost_growth_4x", "ratio", 0, "session-long only", 0)
		rep.add("offline.append_growth_4x", "ratio", 0, "session-long only", 0)
		rep.add("datacache.session_serve_growth_4x", "ratio", 0, "session-long only", 0)
		return nil
	}
	seq := genSessionLong(s.seed, sizes{longWarm: 4 * growthN0}).units[0].seq
	const sample = 256 // requests timed at each of the two lengths
	runtime.GC()
	str, err := engine.NewStream(&engine.SC{}, engine.State{M: numServers, Origin: 1, Model: costModel})
	if err != nil {
		return err
	}
	inc, err := offline.NewIncremental(numServers, 1, costModel)
	if err != nil {
		return err
	}
	sess, err := datacache.NewSession(numServers, 1, costModel, nil)
	if err != nil {
		return err
	}
	var costAt, appendAt, serveAt [2]stats
	for i, r := range seq.Requests {
		which := -1
		switch {
		case i >= growthN0-sample && i < growthN0:
			which = 0
		case i >= 4*growthN0-sample:
			which = 1
		}
		if _, err := str.Serve(r.Server, r.Time); err != nil {
			return err
		}
		start := time.Now()
		if err := inc.Append(r); err != nil {
			return err
		}
		el := time.Since(start)
		start = time.Now()
		if _, err := sess.Serve(r.Server, r.Time); err != nil {
			return err
		}
		sv := time.Since(start)
		if which >= 0 {
			appendAt[which].add(el)
			serveAt[which].add(sv)
			start = time.Now()
			str.Cost(costModel)
			costAt[which].add(time.Since(start))
		}
	}
	ratio := func(st [2]stats) float64 { return median(st[1].xs) / median(st[0].xs) }
	base := fmt.Sprintf("median over %d requests at n = %d over the same at n = %d", sample, 4*growthN0, growthN0)
	rep.add("engine.cost_growth_4x", "ratio", ratio(costAt), "Stream.Cost "+base, 2*sample)
	rep.add("offline.append_growth_4x", "ratio", ratio(appendAt), "Incremental.Append "+base, 2*sample)
	rep.add("datacache.session_serve_growth_4x", "ratio", ratio(serveAt), "Session.Serve "+base, 2*sample)
	return nil
}
