package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"datacache"
	"datacache/internal/offline"
	"datacache/internal/online"
)

func createFig6Session(t *testing.T, ts *httptest.Server) SessionState {
	t.Helper()
	var st SessionState
	resp := post(t, ts.URL+"/v1/session", SessionCreateRequest{
		M: 4, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1},
	}, &st)
	if resp.StatusCode != http.StatusCreated || st.ID == "" {
		t.Fatalf("create: status %d, state %+v", resp.StatusCode, st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/session/"+st.ID {
		t.Fatalf("create Location = %q, want /v1/session/%s", loc, st.ID)
	}
	return st
}

// TestBatchEquivalenceFig6 serves the whole Fig. 6 trace as one batch and
// pins the reply to the sequential engine exactly: same per-request
// decisions, same final cost/optimum/ratio as the batch online runner.
func TestBatchEquivalenceFig6(t *testing.T) {
	ts := newTestServer(t)
	st := createFig6Session(t, ts)

	seq, cm := offline.Fig6Instance()
	items := make([]BatchRequestItem, 0, seq.N())
	for _, r := range seq.Requests {
		items = append(items, BatchRequestItem{Server: r.Server, T: r.Time})
	}
	var out SessionBatchResponse
	resp := post(t, ts.URL+"/v1/session/"+st.ID+"/requests",
		SessionBatchRequest{Requests: items}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if out.Applied != seq.N() || out.FirstRejected != -1 || out.N != seq.N() {
		t.Fatalf("batch reply %+v, want all %d applied", out, seq.N())
	}
	if len(out.Decisions) != seq.N() {
		t.Fatalf("got %d decisions, want %d", len(out.Decisions), seq.N())
	}
	for i, d := range out.Decisions {
		if d.Server != seq.Requests[i].Server || d.Time != seq.Requests[i].Time {
			t.Errorf("decision %d echoed as %+v", i, d)
		}
	}

	run, err := online.Run(online.SpeculativeCaching{}, seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost != run.Stats.Cost {
		t.Errorf("batch cost %v != sequential cost %v", out.Cost, run.Stats.Cost)
	}
	opt, err := offline.FastDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if out.Optimal != opt.Cost() {
		t.Errorf("batch optimum %v != FastDP %v", out.Optimal, opt.Cost())
	}
	// The per-decision trail must equal the single-request trail: its last
	// element carries the same running totals as the summary.
	lastD := out.Decisions[len(out.Decisions)-1]
	if lastD.Cost != out.Cost || lastD.Optimal != out.Optimal {
		t.Errorf("last decision %+v disagrees with summary cost=%v opt=%v", lastD, out.Cost, out.Optimal)
	}
}

// TestBatchEmpty: an empty batch is a no-op that still returns the
// current snapshot.
func TestBatchEmpty(t *testing.T) {
	ts := newTestServer(t)
	st := createFig6Session(t, ts)
	var out SessionBatchResponse
	resp := post(t, ts.URL+"/v1/session/"+st.ID+"/requests",
		SessionBatchRequest{}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}
	if out.Applied != 0 || out.FirstRejected != -1 || out.N != 0 || len(out.Decisions) != 0 {
		t.Errorf("empty batch reply %+v", out)
	}
}

// TestBatchPartialApply: a non-monotonic timestamp mid-batch applies the
// prefix, reports the first-rejected index, and leaves the session
// serving from the applied prefix.
func TestBatchPartialApply(t *testing.T) {
	ts := newTestServer(t)
	st := createFig6Session(t, ts)
	items := []BatchRequestItem{
		{Server: 2, T: 1.0},
		{Server: 3, T: 2.0},
		{Server: 4, T: 1.5}, // goes backwards — rejected
		{Server: 1, T: 3.0}, // never reached
	}
	var out SessionBatchResponse
	resp := post(t, ts.URL+"/v1/session/"+st.ID+"/requests",
		SessionBatchRequest{Requests: items}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial batch: status %d", resp.StatusCode)
	}
	if out.Applied != 2 || out.FirstRejected != 2 || out.RejectReason == "" {
		t.Fatalf("partial reply %+v, want applied=2 firstRejected=2", out)
	}
	if out.N != 2 || len(out.Decisions) != 2 {
		t.Errorf("n=%d decisions=%d after partial apply, want 2/2", out.N, len(out.Decisions))
	}
	// The session keeps serving from the applied prefix (t > 2.0 works).
	var d SessionDecision
	resp2 := post(t, ts.URL+"/v1/session/"+st.ID+"/request",
		StreamAppendRequest{Server: 1, Time: 2.5}, &d)
	if resp2.StatusCode != http.StatusOK || d.N != 3 {
		t.Errorf("post-batch request: status %d, decision %+v", resp2.StatusCode, d)
	}
}

// TestBatchAgainstClosedSession: once DELETE has torn the session down,
// the batch route answers 404 with the not_found code.
func TestBatchAgainstClosedSession(t *testing.T) {
	ts := newTestServer(t)
	st := createFig6Session(t, ts)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
	buf, _ := json.Marshal(SessionBatchRequest{Requests: []BatchRequestItem{{Server: 1, T: 1}}})
	resp2, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/requests", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("batch on closed session: status %d", resp2.StatusCode)
	}
	var envelope ErrorBody
	if err := json.NewDecoder(resp2.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != CodeNotFound {
		t.Errorf("code = %q, want %q", envelope.Error.Code, CodeNotFound)
	}
}

// TestBatchBodyShapes: the bare-array shorthand and the NDJSON stream
// produce the same decisions as the {"requests": [...]} object.
func TestBatchBodyShapes(t *testing.T) {
	ts := newTestServer(t)
	seq, _ := offline.Fig6Instance()

	serveAs := func(body []byte, contentType string) SessionBatchResponse {
		t.Helper()
		st := createFig6Session(t, ts)
		resp, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/requests", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", contentType, resp.StatusCode)
		}
		var out SessionBatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	items := make([]BatchRequestItem, 0, seq.N())
	for _, r := range seq.Requests {
		items = append(items, BatchRequestItem{Server: r.Server, T: r.Time})
	}
	objBody, _ := json.Marshal(SessionBatchRequest{Requests: items})
	arrBody, _ := json.Marshal(items)
	var nd bytes.Buffer
	enc := json.NewEncoder(&nd)
	for _, it := range items {
		enc.Encode(it)
	}

	obj := serveAs(objBody, "application/json")
	arr := serveAs(arrBody, "application/json")
	ndj := serveAs(nd.Bytes(), "application/x-ndjson")
	for name, got := range map[string]SessionBatchResponse{"bare array": arr, "ndjson": ndj} {
		if got.Applied != obj.Applied || got.Cost != obj.Cost || got.Optimal != obj.Optimal {
			t.Errorf("%s reply %+v differs from object-shape reply %+v", name, got, obj)
		}
	}

	// "time" is accepted as an alias of "t".
	aliasSt := createFig6Session(t, ts)
	alias := []byte(`{"requests": [{"server": 2, "time": 0.5}]}`)
	resp, err := http.Post(ts.URL+"/v1/session/"+aliasSt.ID+"/requests", "application/json", bytes.NewReader(alias))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SessionBatchResponse
	json.NewDecoder(resp.Body).Decode(&out)
	if resp.StatusCode != http.StatusOK || out.Applied != 1 || out.Decisions[0].Time != 0.5 {
		t.Errorf(`"time" alias: status %d, reply %+v`, resp.StatusCode, out)
	}
}

// TestBatchMalformedBodies: garbage and wrong-shape bodies answer 400
// with the bad_request code and touch nothing.
func TestBatchMalformedBodies(t *testing.T) {
	ts := newTestServer(t)
	st := createFig6Session(t, ts)
	for name, body := range map[string]io.Reader{
		"not json":      strings.NewReader(`,,,`),
		"unknown field": strings.NewReader(`{"requestz": []}`),
		"bad ndjson":    strings.NewReader(`{"server": 1, "t": 1}` + "\n" + `nope`),
		// Every shape refuses bytes after the body and unknown item fields.
		"trailing bytes after the object":  strings.NewReader(`{"requests":[{"server":2,"t":1}]} garbage`),
		"trailing bytes after the array":   strings.NewReader(`[{"server":2,"t":1}] garbage`),
		"trailing bytes in ndjson":         strings.NewReader(`{"server":2,"t":1}` + "\n" + `garbage`),
		"unknown item field in the object": strings.NewReader(`{"requests":[{"server":2,"t":1,"bogus":1}]}`),
		"unknown item field in the array":  strings.NewReader(`[{"server":2,"t":1,"bogus":1}]`),
		"unknown item field in ndjson":     strings.NewReader(`{"server":2,"t":1,"bogus":1}` + "\n"),
		// One valid request padded past the 64 MiB bound, in each shape.
		"oversized object": padded(`{"requests":[{"server":2,"t":1}`, `]}`),
		"oversized array":  padded(`[{"server":2,"t":1}`, `]`),
		"oversized ndjson": padded(`{"server":2,"t":1}`, "\n"),
	} {
		ct := "application/json"
		if strings.Contains(name, "ndjson") {
			ct = "application/x-ndjson"
		}
		resp, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/requests", ct, body)
		if err != nil {
			t.Fatal(err)
		}
		var envelope ErrorBody
		json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != CodeBadRequest {
			t.Errorf("%s: status %d code %q", name, resp.StatusCode, envelope.Error.Code)
		}
		if strings.HasPrefix(name, "oversized") && !strings.Contains(envelope.Error.Message, "64 MiB") {
			t.Errorf("%s: message %q does not name the 64 MiB bound", name, envelope.Error.Message)
		}
	}
	// The session is untouched by the malformed attempts.
	var got SessionState
	resp, err := http.Get(ts.URL + "/v1/session/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.N != 0 {
		t.Errorf("session advanced to n=%d by rejected bodies", got.N)
	}
}

// TestBatchInflightShed pins the backpressure contract: when a session's
// inflight budget is exhausted, the batch route sheds with 429, the
// overloaded code and a Retry-After hint — and recovers once the slot
// frees.
func TestBatchInflightShed(t *testing.T) {
	srv := New(WithInflightBudget(1))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var st SessionState
	resp := post(t, ts.URL+"/v1/session", SessionCreateRequest{
		M: 4, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1},
	}, &st)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}

	// Occupy the single budget slot directly (deterministic — no racing
	// goroutines needed to overlap two HTTP requests).
	entry, ok := srv.sessions.get(st.ID)
	if !ok {
		t.Fatalf("session %s not in registry", st.ID)
	}
	entry.inflight.Add(1)

	buf, _ := json.Marshal(SessionBatchRequest{Requests: []BatchRequestItem{{Server: 2, T: 0.5}}})
	resp2, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/requests", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var envelope ErrorBody
	json.NewDecoder(resp2.Body).Decode(&envelope)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed: status %d, want 429", resp2.StatusCode)
	}
	if envelope.Error.Code != CodeOverloaded {
		t.Errorf("shed code = %q, want %q", envelope.Error.Code, CodeOverloaded)
	}
	if ra := resp2.Header.Get("Retry-After"); ra == "" {
		t.Error("shed reply missing Retry-After")
	}

	// Single-request route sheds the same way.
	body, _ := json.Marshal(StreamAppendRequest{Server: 2, Time: 0.5})
	resp3, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/request", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Errorf("single-request shed: status %d, want 429", resp3.StatusCode)
	}

	// Freeing the slot restores service.
	entry.inflight.Add(-1)
	resp4, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/requests", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK {
		t.Errorf("after release: status %d, want 200", resp4.StatusCode)
	}
}

// TestBatchMetrics: serving a batch moves the batch-size histogram and
// the shed counter stays where the shed test left it (zero here).
func TestBatchMetrics(t *testing.T) {
	ts := newTestServer(t)
	st := createFig6Session(t, ts)
	buf, _ := json.Marshal(SessionBatchRequest{Requests: []BatchRequestItem{
		{Server: 2, T: 0.5}, {Server: 3, T: 0.8},
	}})
	resp, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/requests", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(metrics.Body)
	metrics.Body.Close()
	text := body.String()
	if !strings.Contains(text, "dc_session_batch_size_count 1") {
		t.Errorf("batch-size histogram not observed:\n%s", grepLines(text, "dc_session_batch_size"))
	}
	if !strings.Contains(text, "dc_registry_shard_sessions") {
		t.Error("per-shard session gauges missing from /metrics")
	}
}

// padded returns a body of prefix, then one byte more than the 64 MiB
// body bound of spaces, then suffix, generated as it is read.
func padded(prefix, suffix string) io.Reader {
	return io.MultiReader(strings.NewReader(prefix),
		io.LimitReader(spaces{}, maxBody+1), strings.NewReader(suffix))
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func grepLines(text, needle string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, needle) {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// TestEventBufferBounded: a batch of MaxBatchRequests requests, with gaps
// past Δt so that each causes several events, leaves the session entry's
// event buffer at or under maxEventBuffer, and the batch's serve spans
// still carry their events. A 64-request batch then keeps its buffer for
// the next serve.
func TestEventBufferBounded(t *testing.T) {
	srv := New()
	w := fuzzCall(srv, http.MethodPost, "/v1/session", []byte(`{"m":4,"origin":1,"model":{"mu":1,"lambda":1}}`), false)
	var st SessionState
	if w.Code != http.StatusCreated || json.Unmarshal(w.Body.Bytes(), &st) != nil {
		t.Fatalf("create: status %d: %s", w.Code, w.Body)
	}
	batch := func(from, n int) *httptest.ResponseRecorder {
		var body bytes.Buffer
		body.WriteByte('[')
		for i := from; i < from+n; i++ {
			if i > from {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, `{"server":%d,"t":%g}`, 1+i%4, 2.5*float64(i+1))
		}
		body.WriteByte(']')
		w := fuzzCall(srv, http.MethodPost, "/v1/session/"+st.ID+"/requests", body.Bytes(), false)
		var res SessionBatchResponse
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &res) != nil || res.Applied != n {
			t.Fatalf("batch of %d: status %d, applied %d", n, w.Code, res.Applied)
		}
		return w
	}
	w = batch(0, MaxBatchRequests)
	e, _ := srv.sessions.get(st.ID)
	if c := cap(e.evs); c > maxEventBuffer {
		t.Errorf("a %d-request batch left an event buffer of capacity %d, want at most %d", MaxBatchRequests, c, maxEventBuffer)
	}
	spans := srv.tracer.TraceSpans(strings.Split(w.Header().Get("Traceparent"), "-")[1])
	if len(spans) < 2 {
		t.Fatalf("the batch's trace holds %d spans", len(spans))
	}
	for _, sp := range spans[1:] {
		if sp.Name != "serve" || !strings.Contains(sp.Events, "request") || strings.Count(sp.Events, "request") != 1 {
			t.Fatalf("serve span %+v: want the events of one request", sp)
		}
	}
	batch(MaxBatchRequests, 64)
	if c := cap(e.evs); c == 0 || c > maxEventBuffer {
		t.Errorf("a 64-request batch left an event buffer of capacity %d, want one kept, at most %d", c, maxEventBuffer)
	}
}

// TestLargeBatchServeCost serves one MaxBatchRequests session batch and
// checks what it costs and what it leaves: the serve mints no span that
// the trace would drop, buffers no event of a decision past the spans
// and sizes its reply once, so it stays within a fixed malloc and byte
// budget; the trace keeps its first 512 spans (obs's bound per trace,
// the root included);
// and the reply is byte for byte encoding/json's encoding of the DTO a
// datacache.Session reference builds.
func TestLargeBatchServeCost(t *testing.T) {
	srv := New()
	w := fuzzCall(srv, http.MethodPost, "/v1/session", []byte(`{"m":4,"origin":1,"model":{"mu":1,"lambda":1}}`), false)
	var st SessionState
	if w.Code != http.StatusCreated || json.Unmarshal(w.Body.Bytes(), &st) != nil {
		t.Fatalf("create: status %d: %s", w.Code, w.Body)
	}
	ref, err := datacache.NewSession(4, 1, datacache.CostModel{Mu: 1, Lambda: 1}, &datacache.SessionOptions{
		TraceCap: srv.traceCap, SLOWindow: srv.sloWindow, ShadowMargin: srv.shadowMargin,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]datacache.Request, MaxBatchRequests)
	var body bytes.Buffer
	body.WriteByte('[')
	for i := range reqs {
		reqs[i] = datacache.Request{Server: datacache.ServerID(1 + i%4), Time: 2.5 * float64(i+1)}
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"server":%d,"t":%g}`, reqs[i].Server, reqs[i].Time)
	}
	body.WriteByte(']')
	r := httptest.NewRequest(http.MethodPost, "/v1/session/"+st.ID+"/requests", &body)
	w = httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.ServeHTTP(w, r)
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("one %d-request batch: %d mallocs, %d bytes", MaxBatchRequests, mallocs, after.TotalAlloc-before.TotalAlloc)
	if !raceEnabled && mallocs > 5000 {
		t.Errorf("one %d-request batch made %d mallocs, want at most 5000", MaxBatchRequests, mallocs)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; !raceEnabled && alloc > 100<<20 {
		t.Errorf("one %d-request batch allocated %d bytes, want at most 100 MiB", MaxBatchRequests, alloc)
	}

	res, err := ref.ServeBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(sessionBatchResponse(st.ID, ref.N(), res)); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
		t.Fatalf("status %d; the %d-byte reply differs from the %d-byte encoding/json reference", w.Code, w.Body.Len(), want.Len())
	}

	spans := srv.tracer.TraceSpans(strings.Split(w.Header().Get("Traceparent"), "-")[1])
	if len(spans) != 512 {
		t.Fatalf("the batch's trace stores %d spans, want 512", len(spans))
	}
	for i, sp := range spans[1:] {
		if sp.Name != "serve" || sp.Server != int(res.Decisions[i].Server) {
			t.Fatalf("span %d is %s on server %d, want the serve of decision %d on server %d", i+1, sp.Name, sp.Server, i, res.Decisions[i].Server)
		}
	}
}
