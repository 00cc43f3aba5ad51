package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"datacache/internal/model"
	"datacache/internal/workload"
)

// These benchmarks drive Server.ServeHTTP in process, without a network
// or a client, so they price the service layer and everything under it:
//
//	go test ./internal/service -run '^$' -bench 'Serve|Open' -benchmem
//
// Every shape runs on m = 16 servers under μ = 1, λ = 2 (Δt = 2), like
// the perfbench workloads.

var benchModel = CostModelDTO{Mu: 1, Lambda: 2}

// nullWriter is an http.ResponseWriter that keeps the status and drops
// the body, so a large /metrics render is not buffered in memory.
type nullWriter struct {
	h    http.Header
	code int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }

// call serves one request in process and returns its status.
func call(s *Server, method, path string, body []byte) int {
	w := &nullWriter{h: http.Header{}, code: http.StatusOK}
	s.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return w.code
}

// create POSTs a create body in process and decodes the 201 reply into
// out.
func create(b *testing.B, s *Server, path string, req, out interface{}) {
	body, _ := json.Marshal(req)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if w.Code != http.StatusCreated || json.Unmarshal(w.Body.Bytes(), out) != nil {
		b.Fatalf("POST %s: status %d: %s", path, w.Code, w.Body)
	}
}

func singleBodies(seq *model.Sequence) [][]byte {
	out := make([][]byte, len(seq.Requests))
	for i, r := range seq.Requests {
		out[i], _ = json.Marshal(StreamAppendRequest{Server: r.Server, Time: r.Time})
	}
	return out
}

// BenchmarkServeLongSession serves one request per call on an SC session
// warmed with 2048 requests: the perfbench session-long shape.
func BenchmarkServeLongSession(b *testing.B) {
	const warm = 2048
	s := New()
	seq := workload.Zipf{M: 16, S: 1.2, MeanGap: 0.5}.Generate(rand.New(rand.NewSource(1)), warm+b.N)
	var st SessionState
	create(b, s, "/v1/session", SessionCreateRequest{M: 16, Origin: 1, Model: benchModel}, &st)
	for i := 0; i < warm; i += 64 {
		var batch SessionBatchRequest
		for _, r := range seq.Requests[i:min(i+64, warm)] {
			batch.Requests = append(batch.Requests, BatchRequestItem{Server: r.Server, T: r.Time})
		}
		body, _ := json.Marshal(batch)
		if code := call(s, http.MethodPost, "/v1/session/"+st.ID+"/requests", body); code != http.StatusOK {
			b.Fatalf("warm batch: status %d", code)
		}
	}
	bodies := singleBodies(&model.Sequence{Requests: seq.Requests[warm:]})
	path := "/v1/session/" + st.ID + "/request"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := call(s, http.MethodPost, path, bodies[i]); code != http.StatusOK {
			b.Fatalf("serve: status %d", code)
		}
	}
}

// BenchmarkServeObservedSessions serves one request per call on hybrid
// sessions with the four-policy shadow panel, closing each session and
// opening the next every 64 requests: the perfbench session-observed
// shape without its recorder and scrapes.
func BenchmarkServeObservedSessions(b *testing.B) {
	const perSession = 64
	s := New()
	seq := workload.Zipf{M: 16, S: 1.2, MeanGap: 1}.Generate(rand.New(rand.NewSource(1)), perSession)
	bodies := singleBodies(seq)
	req := SessionCreateRequest{
		M: 16, Origin: 1, Model: benchModel, Policy: "hybrid:horizon=8,order=2",
		Shadows: []string{"ttl:window=1", "sc:epoch=16", "migrate", "replicate"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st SessionState
	var path string
	for i := 0; i < b.N; i++ {
		j := i % perSession
		if j == 0 {
			if st.ID != "" {
				call(s, http.MethodDelete, "/v1/session/"+st.ID, nil)
			}
			create(b, s, "/v1/session", req, &st)
			path = "/v1/session/" + st.ID + "/request"
		}
		if code := call(s, http.MethodPost, path, bodies[j]); code != http.StatusOK {
			b.Fatalf("serve: status %d", code)
		}
	}
}

// BenchmarkServePoolChurn serves 64-request batches on a pool bounded at
// 256 live items whose keys are uniform over four times as many, so LRU
// eviction and revival never stop: the perfbench pool-churn shape. One
// op is one batch.
func BenchmarkServePoolChurn(b *testing.B) {
	const maxItems, keys, batch = 256, 1024, 64
	s := New()
	var pool PoolState
	create(b, s, "/v1/pool", PoolCreateRequest{M: 16, Origin: 1, Model: benchModel, MaxItems: maxItems}, &pool)
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, b.N)
	t := 0.0
	for i := range bodies {
		var req PoolBatchRequestBody
		for j := 0; j < batch; j++ {
			t += max(1e-6, rng.ExpFloat64()*2/keys)
			k := rng.Intn(keys)
			req.Requests = append(req.Requests, PoolServeRequest{
				Tenant: "t" + strconv.Itoa(k%4), Item: "i" + strconv.Itoa(k/4),
				Server: model.ServerID(1 + rng.Intn(16)), T: t,
			})
		}
		bodies[i], _ = json.Marshal(req)
	}
	path := "/v1/pool/" + pool.ID + "/requests"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := call(s, http.MethodPost, path, bodies[i]); code != http.StatusOK {
			b.Fatalf("batch: status %d", code)
		}
	}
}

// openSessions opens n SC sessions of four requests each.
func openSessions(b *testing.B, s *Server, n int) {
	seq := workload.Zipf{M: 16, S: 1.2, MeanGap: 0.5}.Generate(rand.New(rand.NewSource(1)), 4)
	bodies := singleBodies(seq)
	for i := 0; i < n; i++ {
		var st SessionState
		create(b, s, "/v1/session", SessionCreateRequest{M: 16, Origin: 1, Model: benchModel}, &st)
		for _, body := range bodies {
			if code := call(s, http.MethodPost, "/v1/session/"+st.ID+"/request", body); code != http.StatusOK {
				b.Fatalf("serve: status %d", code)
			}
		}
	}
}

// BenchmarkOpenSessionsScrape renders /metrics with 10k open sessions.
func BenchmarkOpenSessionsScrape(b *testing.B) {
	s := New()
	openSessions(b, s, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := call(s, http.MethodGet, "/metrics", nil); code != http.StatusOK {
			b.Fatalf("scrape: status %d", code)
		}
	}
}

// BenchmarkOpenSessionsSample runs one metrics-history sampling pass with
// 10k open sessions.
func BenchmarkOpenSessionsSample(b *testing.B) {
	s := New()
	openSessions(b, s, 10000)
	s.SampleMetricsNow() // the first pass admits every series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleMetricsNow()
	}
	b.StopTimer()
	if st := s.History().Stats(); st.Series == 0 {
		b.Fatalf("history holds no series: %+v", st)
	}
}
