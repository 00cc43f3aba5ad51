package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"datacache/internal/model"
)

// TestBodiesAreOneBoundedValue: the single-request and create routes read
// their body through the 64 MiB bound and take exactly one JSON value, as
// the batch routes do. Bytes after the value, a second value and a body
// padded past the bound answer 400 bad_request, and none of them serves
// a request or opens an entry.
func TestBodiesAreOneBoundedValue(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	st := createFig6Session(t, ts)
	var pool PoolState
	if resp := post(t, ts.URL+"/v1/pool", PoolCreateRequest{M: 4, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1}}, &pool); resp.StatusCode != http.StatusCreated {
		t.Fatalf("pool create: status %d", resp.StatusCode)
	}
	single := `{"server":2,"time":1}`
	item := `{"item":"a","server":2,"t":1}`
	create := `{"m":4,"origin":1,"model":{"mu":1,"lambda":1}}`
	for _, c := range []struct {
		name, path, body string
		padded           bool
		want             string // in the error message
	}{
		{"session request, trailing bytes", "/v1/session/" + st.ID + "/request", single + " junk", false, "after top-level value"},
		{"session request, two objects", "/v1/session/" + st.ID + "/request", `{"server":3,"time":2}{"server":4,"time":3}`, false, "after top-level value"},
		{"session request, padded", "/v1/session/" + st.ID + "/request", single, true, "64 MiB"},
		{"pool request, trailing bytes", "/v1/pool/" + pool.ID + "/request", item + " junk", false, "after top-level value"},
		{"pool request, two objects", "/v1/pool/" + pool.ID + "/request", item + item, false, "after top-level value"},
		{"pool request, padded", "/v1/pool/" + pool.ID + "/request", item, true, "64 MiB"},
		{"session create, trailing bytes", "/v1/session", create + " junk", false, "after top-level value"},
		{"session create, two objects", "/v1/session", create + create, false, "after top-level value"},
		{"session create, padded", "/v1/session", create, true, "64 MiB"},
		{"pool create, trailing bytes", "/v1/pool", create + " junk", false, "after top-level value"},
		{"pool create, padded", "/v1/pool", create, true, "64 MiB"},
	} {
		var body io.Reader = strings.NewReader(c.body)
		if c.padded {
			body = padded(c.body, "")
		}
		resp, err := http.Post(ts.URL+c.path, "application/json", body)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var envelope ErrorBody
		json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != CodeBadRequest ||
			!strings.Contains(envelope.Error.Message, c.want) {
			t.Errorf("%s: status %d, envelope %+v; want 400 bad_request naming %q", c.name, resp.StatusCode, envelope.Error, c.want)
		}
	}
	if n := sessionStanding(srv, st.ID).n; n != 0 {
		t.Errorf("the session served %d requests from rejected bodies", n)
	}
	if n := poolStanding(srv, pool.ID).n; n != 0 {
		t.Errorf("the pool served %d requests from rejected bodies", n)
	}
	if sessions, pools := srv.sessions.len(), srv.pools.len(); sessions != 1 || pools != 1 {
		t.Errorf("rejected create bodies left %d sessions and %d pools open, want 1 and 1", sessions, pools)
	}
}

// TestRepliesCarryContentLength: an encoded reply past net/http's 2 KB
// buffer still goes out with its length, not chunked.
func TestRepliesCarryContentLength(t *testing.T) {
	ts := newTestServer(t)
	st := createFig6Session(t, ts)
	var batch SessionBatchRequest
	for i := 0; i < 64; i++ {
		// Gaps past Δt = λ/μ = 1: every request transfers, so the close
		// reply's schedule holds one interval per request.
		batch.Requests = append(batch.Requests, BatchRequestItem{Server: model.ServerID(1 + i%4), T: 2.5 * float64(i+1)})
	}
	body, _ := json.Marshal(batch)
	check := func(name string, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", name, resp.StatusCode, err)
		}
		if len(reply) <= 2048 {
			t.Fatalf("%s reply of %d bytes fits net/http's buffer; the test needs a longer one", name, len(reply))
		}
		if resp.TransferEncoding != nil || resp.ContentLength != int64(len(reply)) {
			t.Errorf("%s reply of %d bytes: Transfer-Encoding %v, Content-Length %d", name, len(reply), resp.TransferEncoding, resp.ContentLength)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/requests", "application/json", bytes.NewReader(body))
	check("batch", resp, err)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	check("close", resp, err)
}

// TestTracesAfterCloseOnWrappedStore closes a session whose spans share a
// wrapped span store with another session's: /v1/traces must then list
// the other session's most recent traces, each once and whole.
func TestTracesAfterCloseOnWrappedStore(t *testing.T) {
	srv := New(WithSpanCap(16))
	open := func() string {
		w := fuzzCall(srv, http.MethodPost, "/v1/session", []byte(`{"m":4,"origin":1,"model":{"mu":1,"lambda":1}}`), false)
		var st SessionState
		if w.Code != http.StatusCreated || json.Unmarshal(w.Body.Bytes(), &st) != nil {
			t.Fatalf("create: status %d: %s", w.Code, w.Body)
		}
		return st.ID
	}
	a, b := open(), open()
	var traces []string // b's, in serve order
	for i := 0; i < 20; i++ {
		id := a
		if i%2 == 1 {
			id = b
		}
		body := fmt.Sprintf(`{"server":%d,"time":%d}`, 1+i%4, i+1)
		w := fuzzCall(srv, http.MethodPost, "/v1/session/"+id+"/request", []byte(body), false)
		if w.Code != http.StatusOK {
			t.Fatalf("serve %d: status %d: %s", i, w.Code, w.Body)
		}
		if id == b {
			traces = append(traces, strings.Split(w.Header().Get("Traceparent"), "-")[1])
		}
	}
	// The store holds the last eight two-span serve traces, four of each
	// session, and has wrapped.
	if w := fuzzCall(srv, http.MethodDelete, "/v1/session/"+a, nil, false); w.Code != http.StatusOK {
		t.Fatalf("close: status %d", w.Code)
	}
	w := fuzzCall(srv, http.MethodGet, "/v1/traces?session="+b, nil, false)
	var list TraceListResponse
	if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &list) != nil {
		t.Fatalf("traces: status %d: %s", w.Code, w.Body)
	}
	got := map[string]int{}
	for _, sum := range list.Traces {
		got[sum.TraceID] = sum.Spans
	}
	want := traces[len(traces)-4:]
	if len(got) != len(want) {
		t.Fatalf("session %s lists %d traces %v, want its last four %v", b, len(got), got, want)
	}
	for _, id := range want {
		if got[id] != 2 {
			t.Errorf("trace %s lists %d spans, want 2 (all: %v)", id, got[id], got)
		}
	}
}

// TestSingleServeAllocations pins what one in-process single serve
// allocates, middleware, span and log call included: on an SC session,
// and on an SC pool serving one item.
func TestSingleServeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	for _, c := range []struct {
		route, create, body string // body takes a server and a time
		bound               float64
	}{
		{"/v1/session", `{"m":16,"origin":1,"model":{"mu":1,"lambda":2}}`, `{"server":%d,"time":%g}`, 25},
		{"/v1/pool", `{"m":16,"origin":1,"model":{"mu":1,"lambda":2}}`, `{"item":"a","server":%d,"t":%g}`, 24},
	} {
		srv := New()
		w := fuzzCall(srv, http.MethodPost, c.route, []byte(c.create), false)
		var st struct {
			ID string `json:"id"`
		}
		if w.Code != http.StatusCreated || json.Unmarshal(w.Body.Bytes(), &st) != nil {
			t.Fatalf("create %s: status %d: %s", c.route, w.Code, w.Body)
		}
		const runs = 200
		reqs := make([]*http.Request, runs+1)
		for i := range reqs {
			body := fmt.Sprintf(c.body, 1+i%16, 0.5*float64(i+1))
			reqs[i] = httptest.NewRequest(http.MethodPost, c.route+"/"+st.ID+"/request", strings.NewReader(body))
		}
		nw := &nullWriter{h: http.Header{}}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			nw.code = http.StatusOK
			srv.ServeHTTP(nw, reqs[next])
			next++
			if nw.code != http.StatusOK {
				t.Fatalf("%s serve %d: status %d", c.route, next, nw.code)
			}
		})
		t.Logf("%s: %v allocations per single serve", c.route, allocs)
		if allocs > c.bound {
			t.Errorf("a single serve on %s allocates %v times, want at most %v", c.route, allocs, c.bound)
		}
	}
}
