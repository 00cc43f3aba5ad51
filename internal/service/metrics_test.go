package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"datacache/internal/model"
	"datacache/internal/offline"
)

// scrape is a minimal Prometheus text-format 0.0.4 parser: it checks the
// content type, validates every line structurally, and returns the samples
// keyed by the full series string (name plus rendered labels) along with
// the declared # TYPE of each family.
type scrapeResult struct {
	samples map[string]float64
	types   map[string]string
}

var sampleLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (-?(?:[0-9.e+-]+|\+Inf|NaN))$`)

func scrape(t *testing.T, base string) scrapeResult {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	res := scrapeResult{samples: map[string]float64{}, types: map[string]string{}}
	for ln, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE comment %q", ln+1, line)
			}
			res.types[fields[2]] = fields[3]
		case strings.HasPrefix(line, "# HELP "):
			// free-form; nothing to validate beyond the prefix
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		default:
			m := sampleLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample %q", ln+1, line)
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
			}
			series := m[1] + m[2]
			if _, dup := res.samples[series]; dup {
				t.Fatalf("line %d: duplicate series %q", ln+1, series)
			}
			res.samples[series] = v
			// Every sample must belong to a family announced by # TYPE;
			// histogram samples hang off the base name.
			base := m[1]
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if trimmed := strings.TrimSuffix(base, suffix); trimmed != base && res.types[trimmed] == "histogram" {
					base = trimmed
					break
				}
			}
			if _, ok := res.types[base]; !ok {
				t.Fatalf("line %d: sample %q precedes its # TYPE", ln+1, series)
			}
		}
	}
	return res
}

// mustSample fails the test unless the series exists.
func (r scrapeResult) mustSample(t *testing.T, series string) float64 {
	t.Helper()
	v, ok := r.samples[series]
	if !ok {
		var near []string
		for s := range r.samples {
			if strings.HasPrefix(s, series[:strings.IndexAny(series+"{", "{")]) {
				near = append(near, s)
			}
		}
		sort.Strings(near)
		t.Fatalf("series %q missing; same-family series: %v", series, near)
	}
	return v
}

// histogramSeries collects the bucket values of one histogram child in
// declared order plus its _sum and _count.
func (r scrapeResult) histogram(t *testing.T, name, labels string) (buckets []float64, sum, count float64) {
	t.Helper()
	type bk struct {
		le float64
		v  float64
	}
	var bks []bk
	open := "{"
	if labels != "" {
		open = "{" + labels + ","
	}
	for series, v := range r.samples {
		if !strings.HasPrefix(series, name+"_bucket"+open) {
			continue
		}
		rest := strings.TrimPrefix(series, name+"_bucket"+open)
		rest = strings.TrimSuffix(strings.TrimPrefix(rest, `le="`), `"}`)
		le := math.Inf(1)
		if rest != "+Inf" {
			f, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("bad le in %q: %v", series, err)
			}
			le = f
		}
		bks = append(bks, bk{le, v})
	}
	sort.Slice(bks, func(i, j int) bool { return bks[i].le < bks[j].le })
	for _, b := range bks {
		buckets = append(buckets, b.v)
	}
	tail := ""
	if labels != "" {
		tail = "{" + labels + "}"
	}
	return buckets, r.mustSample(t, name+"_sum"+tail), r.mustSample(t, name+"_count"+tail)
}

// checkHistogram asserts the structural invariants of one histogram child:
// cumulative non-decreasing buckets whose +Inf bucket equals _count.
func checkHistogram(t *testing.T, name string, buckets []float64, sum, count float64) {
	t.Helper()
	if len(buckets) == 0 {
		t.Fatalf("%s: no buckets", name)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Errorf("%s: bucket %d (%v) below bucket %d (%v): not cumulative",
				name, i, buckets[i], i-1, buckets[i-1])
		}
	}
	if last := buckets[len(buckets)-1]; last != count {
		t.Errorf("%s: +Inf bucket %v != _count %v", name, last, count)
	}
	if count > 0 && sum < 0 {
		t.Errorf("%s: negative _sum %v for %v observations", name, sum, count)
	}
}

func TestMetricsPrometheusFormat(t *testing.T) {
	ts := newTestServer(t)

	const hits = 7
	for i := 0; i < hits; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// One known 404 so a non-200 code label exists.
	resp, err := http.Get(ts.URL + "/v1/session/absent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sc := scrape(t, ts.URL)

	if got := sc.types["dc_http_requests_total"]; got != "counter" {
		t.Errorf("dc_http_requests_total type = %q, want counter", got)
	}
	if got := sc.types["dc_http_request_seconds"]; got != "histogram" {
		t.Errorf("dc_http_request_seconds type = %q, want histogram", got)
	}
	if v := sc.mustSample(t, `dc_http_requests_total{route="/healthz",code="200"}`); v != hits {
		t.Errorf(`healthz 200 counter = %v, want %d`, v, hits)
	}
	if v := sc.mustSample(t, `dc_http_requests_total{route="/v1/session/",code="404"}`); v < 1 {
		t.Errorf("session 404 counter = %v, want >= 1", v)
	}

	buckets, sum, count := sc.histogram(t, "dc_http_request_seconds", `route="/healthz"`)
	checkHistogram(t, "dc_http_request_seconds{/healthz}", buckets, sum, count)
	if count != hits {
		t.Errorf("/healthz latency _count = %v, want %d", count, hits)
	}
}

// TestMetricsConcurrent hammers two routes from many goroutines with
// scrapes interleaved, then checks (under -race) that every intermediate
// scrape is monotonic and the final counters and histogram counts account
// for exactly every request sent.
func TestMetricsConcurrent(t *testing.T) {
	ts := newTestServer(t)
	const (
		workers = 8
		perW    = 25
	)
	routes := []string{"/healthz", "/v1/policies"}

	before := scrape(t, ts.URL)

	var wg sync.WaitGroup
	scrapeStop := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() { // concurrent scraper: every snapshot must be monotonic
		defer close(scrapeDone)
		prev := map[string]float64{}
		for {
			select {
			case <-scrapeStop:
				return
			default:
			}
			sc := scrape(t, ts.URL)
			for series, v := range prev {
				if nv, ok := sc.samples[series]; ok && strings.HasSuffix(strings.SplitN(series, "{", 2)[0], "_total") && nv < v {
					t.Errorf("counter %s went backwards: %v -> %v", series, v, nv)
				}
			}
			prev = sc.samples
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				resp, err := http.Get(ts.URL + routes[(w+i)%len(routes)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(scrapeStop)
	<-scrapeDone

	after := scrape(t, ts.URL)
	total := 0.0
	for _, route := range routes {
		series := fmt.Sprintf(`dc_http_requests_total{route="%s",code="200"}`, route)
		delta := after.mustSample(t, series) - before.samples[series]
		total += delta
		buckets, sum, count := after.histogram(t, "dc_http_request_seconds", fmt.Sprintf(`route="%s"`, route))
		checkHistogram(t, "dc_http_request_seconds{"+route+"}", buckets, sum, count)
		// before may predate the series entirely; a missing sample reads 0.
		prevCount := before.samples[fmt.Sprintf(`dc_http_request_seconds_count{route="%s"}`, route)]
		if count-prevCount != delta {
			t.Errorf("route %s: histogram count delta %v != counter delta %v", route, count-prevCount, delta)
		}
	}
	if want := float64(workers * perW); total != want {
		t.Errorf("request counter deltas sum to %v, want %v (requests lost or double-counted)", total, want)
	}
}

// TestSessionMetricsAndTrace drives the Fig. 6 workload through a live
// session and checks the engine-side metrics: decision counters by kind,
// per-session gauges (cost over optimum within Theorem 3's bound), the
// bounded trace endpoint, and that closing the session retires its series.
func TestSessionMetricsAndTrace(t *testing.T) {
	ts := newTestServer(t)
	seq, cm := offline.Fig6Instance()

	var state SessionState
	post(t, ts.URL+"/v1/session", SessionCreateRequest{
		M: seq.M, Origin: seq.Origin, Model: CostModelDTO{Mu: cm.Mu, Lambda: cm.Lambda},
	}, &state)
	id := state.ID

	var last SessionDecision
	for _, r := range seq.Requests {
		post(t, ts.URL+"/v1/session/"+id+"/request",
			StreamAppendRequest{Server: r.Server, Time: r.Time}, &last)
	}

	sc := scrape(t, ts.URL)
	if v := sc.mustSample(t, `dc_engine_events_total{kind="request"}`); v != float64(seq.N()) {
		t.Errorf("request events = %v, want %d", v, seq.N())
	}
	if v := sc.mustSample(t, `dc_engine_events_total{kind="transfer"}`); v != 5 {
		t.Errorf("transfer events = %v, want 5 (Fig. 6 SC schedule)", v)
	}
	if v := sc.mustSample(t, `dc_engine_events_total{kind="hit"}`); v != 2 {
		t.Errorf("hit events = %v, want 2", v)
	}
	if v := sc.mustSample(t, `dc_sessions_open`); v != 1 {
		t.Errorf("dc_sessions_open = %v, want 1", v)
	}
	ratio := sc.mustSample(t, fmt.Sprintf(`dc_session_cost_over_optimum{session="%s"}`, id))
	if ratio > 3+1e-9 {
		t.Errorf("cost_over_optimum = %v, beyond Theorem 3's factor 3", ratio)
	}
	if math.Abs(ratio-last.Ratio) > 1e-9 {
		t.Errorf("gauge ratio %v != last decision ratio %v", ratio, last.Ratio)
	}
	if v := sc.mustSample(t, fmt.Sprintf(`dc_session_live_copies{session="%s"}`, id)); v != float64(state.LiveCopies) && v < 1 {
		t.Errorf("live copies gauge = %v, want >= 1", v)
	}
	buckets, sum, count := sc.histogram(t, "dc_engine_decision_seconds", "")
	checkHistogram(t, "dc_engine_decision_seconds", buckets, sum, count)
	if count != float64(seq.N()) {
		t.Errorf("decision latency count = %v, want %d", count, seq.N())
	}

	// Trace endpoint: bounded ring carrying the same stream the engine
	// golden test pins (22 events for Fig. 6 under canonical SC).
	var tr SessionTraceResponse
	resp, err := http.Get(ts.URL + "/v1/session/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tr.Cap != DefaultTraceCap {
		t.Errorf("trace cap = %d, want %d", tr.Cap, DefaultTraceCap)
	}
	if len(tr.Events) != 22 {
		t.Errorf("trace has %d events, want 22", len(tr.Events))
	}
	if tr.Dropped != 0 {
		t.Errorf("trace dropped = %d, want 0", tr.Dropped)
	}
	counts := map[string]int{}
	for _, ev := range tr.Events {
		b, _ := json.Marshal(ev.Kind)
		counts[strings.Trim(string(b), `"`)]++
	}
	for kind, want := range map[string]int{"request": 7, "transfer": 5, "hit": 2, "drop": 4, "timer": 4} {
		if counts[kind] != want {
			t.Errorf("trace %s events = %d, want %d (counts: %v)", kind, counts[kind], want, counts)
		}
	}

	// Closing the session retires its gauge series and decrements the
	// open-sessions gauge.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()

	sc = scrape(t, ts.URL)
	if v := sc.mustSample(t, `dc_sessions_open`); v != 0 {
		t.Errorf("dc_sessions_open after close = %v, want 0", v)
	}
	// Full series retirement is pinned by TestSeriesRetirementSweep.
}

// TestTraceRingBounded overflows a small trace ring and checks the
// endpoint reports the eviction count and only the most recent events.
func TestTraceRingBounded(t *testing.T) {
	srv := httptest.NewServer(New(WithTraceCap(8)))
	defer srv.Close()

	var state SessionState
	post(t, srv.URL+"/v1/session", SessionCreateRequest{
		M: 3, Model: CostModelDTO{Mu: 1, Lambda: 1},
	}, &state)
	for i := 0; i < 20; i++ {
		post(t, srv.URL+"/v1/session/"+state.ID+"/request",
			StreamAppendRequest{Server: model.ServerID(1 + i%3), Time: float64(i+1) * 0.3}, nil)
	}
	var tr SessionTraceResponse
	resp, err := http.Get(srv.URL + "/v1/session/" + state.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tr.Events) != 8 {
		t.Errorf("bounded trace returned %d events, want cap 8", len(tr.Events))
	}
	if tr.Dropped <= 0 {
		t.Errorf("dropped = %d, want > 0 after overflow", tr.Dropped)
	}
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].At < tr.Events[i-1].At {
			t.Errorf("trace events out of order: %v after %v", tr.Events[i], tr.Events[i-1])
		}
	}
}

// TestErrorCarriesRequestID checks that error bodies use the uniform
// {"error": {"code", "message", "request_id"}} envelope and echo the
// request ID issued in the X-Request-Id response header.
func TestErrorCarriesRequestID(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/session/absent")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	header := resp.Header.Get("X-Request-Id")
	if header == "" {
		t.Fatal("missing X-Request-Id header")
	}
	var body ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != CodeNotFound {
		t.Errorf("error code = %q, want %q", body.Error.Code, CodeNotFound)
	}
	if body.Error.Message == "" {
		t.Error("error body has no message")
	}
	if body.Error.RequestID != header {
		t.Errorf("body request_id %q != header %q", body.Error.RequestID, header)
	}
}

// TestErrorEnvelopeAcrossRoutes pins the machine-readable code every
// error class maps to, across routes that used to answer with ad-hoc
// bodies.
func TestErrorEnvelopeAcrossRoutes(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
		code   ErrCode
	}{
		{"unknown session", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/session/nope")
		}, http.StatusNotFound, CodeNotFound},
		// /v1/stream was retired in 1.12.0; its paths fall through to
		// the catch-all.
		{"unknown stream", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/stream/nope")
		}, http.StatusNotFound, CodeNotFound},
		{"retired stream create", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/stream", "application/json",
				strings.NewReader(`{"m":4,"origin":1,"model":{"mu":1,"lambda":1}}`))
		}, http.StatusNotFound, CodeNotFound},
		{"bad optimize body", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(`{"nonsense": 1}`))
		}, http.StatusBadRequest, CodeBadRequest},
		{"wrong verb on session create", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/session")
		}, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"bad generate params", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(`{"workload":"uniform","m":0,"n":5,"seed":1}`))
		}, http.StatusBadRequest, CodeBadRequest},
		// Unmounted paths, the retired /metricz alias included, answer
		// 404 inside the envelope rather than the mux's plain text.
		{"unknown route", func() (*http.Response, error) {
			return http.Get(ts.URL + "/metricz")
		}, http.StatusNotFound, CodeNotFound},
		{"unknown top-level route", func() (*http.Response, error) {
			return http.Get(ts.URL + "/nope")
		}, http.StatusNotFound, CodeNotFound},
		{"unknown nested route", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/sessionz", "application/json", strings.NewReader(`{}`))
		}, http.StatusNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := tc.do()
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			var body ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("decoding envelope: %v", err)
			}
			if body.Error.Code != tc.code {
				t.Errorf("code = %q, want %q", body.Error.Code, tc.code)
			}
			if body.Error.Message == "" || body.Error.RequestID == "" {
				t.Errorf("incomplete envelope: %+v", body.Error)
			}
			if got := resp.Header.Get("X-Request-Id"); got != body.Error.RequestID {
				t.Errorf("X-Request-Id %q, envelope request_id %q", got, body.Error.RequestID)
			}
		})
	}
}
