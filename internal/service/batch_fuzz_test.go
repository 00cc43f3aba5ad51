package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"datacache"
	"datacache/internal/model"
)

// The body fuzzers post arbitrary bodies, in all three shapes, to the
// real batch handlers of an in-process server, and require that:
//
//   - no body panics the server;
//   - every answer is a 200 or the error envelope, its code matching
//     its status;
//   - a body the handler rejects leaves N, cost and optimum untouched;
//   - a body it takes applies exactly the prefix a datacache reference
//     applies for the same requests: the same N, cost and optimum, bit
//     for bit, and the same applied count and rejections in the reply.
//
// Each exec opens its own session or pool, and deletes it at the end.

// fuzzCall serves one request in process.
func fuzzCall(s *Server, method, path string, body []byte, ndjson bool) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ndjson {
		r.Header.Set("Content-Type", "application/x-ndjson")
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// fuzzOpen creates a session or pool and serves it a first request, so
// that a rejected body has a standing to leave as it was.
func fuzzOpen(t *testing.T, s *Server, route string, create, first []byte) string {
	w := fuzzCall(s, http.MethodPost, route, create, false)
	var st struct {
		ID string `json:"id"`
	}
	if w.Code != http.StatusCreated || json.Unmarshal(w.Body.Bytes(), &st) != nil {
		t.Fatalf("create %s: status %d: %s", route, w.Code, w.Body)
	}
	if w := fuzzCall(s, http.MethodPost, route+"/"+st.ID+"/request", first, false); w.Code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", w.Code, w.Body)
	}
	return st.ID
}

// checkAnswer requires a 200 or the error envelope.
func checkAnswer(t *testing.T, body []byte, w *httptest.ResponseRecorder) {
	if w.Code == http.StatusOK {
		return
	}
	var env ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error.Code != codeForStatus(w.Code) || env.Error.Message == "" {
		t.Fatalf("body %q: status %d answered %q, not the error envelope", body, w.Code, w.Body)
	}
}

// standing is what a batch may change: N, and the bits of cost and
// optimum.
type standing struct {
	n         int
	cost, opt uint64
}

func standingOf(n int, cost, opt float64) standing {
	return standing{n, math.Float64bits(cost), math.Float64bits(opt)}
}

func sessionStanding(s *Server, id string) standing {
	e, _ := s.sessions.get(id)
	_ = e.lk.lock(context.Background())
	defer e.lk.unlock()
	return standingOf(e.sess.N(), e.sess.Cost(), e.sess.OptimalCost())
}

func poolStanding(s *Server, id string) standing {
	e, _ := s.pools.get(id)
	_ = e.lk.lock(context.Background())
	defer e.lk.unlock()
	return standingOf(e.pool.N(), e.pool.Cost(), e.pool.Optimal())
}

// bodySeeds are batch bodies for both fuzzers: canonical shapes, partial
// rejections, bodies the scanner leaves to encoding/json, malformed
// ones, and one whose cost overflows to +Inf.
var bodySeeds = []string{
	`{"requests":[{"item":"a","server":2,"t":1},{"item":"b","server":3,"t":1.5},{"item":"a","server":1,"t":0.75},{"item":"a","server":3,"t":3}]}`,
	`[{"tenant":"x","item":"a","server":2,"t":1},{"item":"c","server":1,"time":2},{"item":"d","server":3,"t":2.5}]`,
	`{"item":"a","server":1,"t":4}` + "\n" + `{"tenant":"acme","item":"a","server":2,"t":1}` + "\n",
	`{"requests":[{"server":2,"t":1},{"server":3,"t":2},{"server":4,"t":1.5},{"server":1,"t":3}]}`,
	`[{"server":2,"t":1},{"server":9,"t":2}]`,
	`{"server":3,"t":0.75}` + "\n" + `{"server":1,"t":0.25}` + "\n",
	`{"requests":[]}`, `[]`, ``, `{}`, `null`, `[{}]`,
	`{"requests":[{"server":2,"t":1}]} garbage`, `[{"server":2,"t":1,"bogus":1}]`, `,,,`,
	`[{"Server":2,"T":1}]`, `[{"server":2,"server":3,"t":1}]`, `[{"item":"café","server":2,"t":1}]`,
	`[{"item":"a","server":2,"t":1e308}]`, `[{"server":2,"t":1e308}]`,
}

// FuzzSessionRequestsBody holds POST /v1/session/{id}/requests to the
// rules above, against a datacache.Session.
func FuzzSessionRequestsBody(f *testing.F) {
	for _, body := range bodySeeds {
		f.Add([]byte(body), false)
		f.Add([]byte(body), true)
	}
	srv := New()
	cm := datacache.CostModel{Mu: 1, Lambda: 2}
	f.Fuzz(func(t *testing.T, body []byte, ndjson bool) {
		id := fuzzOpen(t, srv, "/v1/session",
			[]byte(`{"m":4,"origin":1,"model":{"mu":1,"lambda":2}}`), []byte(`{"server":2,"time":0.5}`))
		defer fuzzCall(srv, http.MethodDelete, "/v1/session/"+id, nil, false)
		ref, err := datacache.NewSession(4, 1, cm, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Serve(2, 0.5); err != nil {
			t.Fatal(err)
		}
		before := sessionStanding(srv, id)

		w := fuzzCall(srv, http.MethodPost, "/v1/session/"+id+"/requests", body, ndjson)
		checkAnswer(t, body, w)
		after := sessionStanding(srv, id)
		items, err := decodeBatchJSON[SessionBatchRequest](body, ndjson)
		if err != nil || len(items) > MaxBatchRequests {
			if w.Code != http.StatusBadRequest || after != before {
				t.Fatalf("body %q (ndjson %v), rejected by encoding/json (%v): status %d, standing %+v -> %+v",
					body, ndjson, err, w.Code, before, after)
			}
			return
		}
		reqs := make([]model.Request, len(items))
		for i, it := range items {
			reqs[i] = model.Request{Server: it.Server, Time: it.at()}
		}
		res, err := ref.ServeBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		if want := standingOf(ref.N(), ref.Cost(), ref.OptimalCost()); after != want {
			t.Fatalf("body %q (ndjson %v): standing %+v, the reference %+v", body, ndjson, after, want)
		}
		switch w.Code {
		case http.StatusOK:
			var reply SessionBatchResponse
			if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
				t.Fatalf("body %q: reply %q: %v", body, w.Body, err)
			}
			if reply.Applied != len(res.Decisions) || len(reply.Decisions) != reply.Applied ||
				reply.FirstRejected != res.FirstRejected || reply.N != ref.N() {
				t.Fatalf("body %q (ndjson %v): reply %+v, the reference %+v", body, ndjson, reply, res)
			}
		case http.StatusInternalServerError: // the batch applied; its reply held a non-finite float
		default:
			t.Fatalf("body %q (ndjson %v): status %d for a body encoding/json takes", body, ndjson, w.Code)
		}
	})
}

// FuzzPoolRequestsBody holds POST /v1/pool/{id}/requests to the rules
// above, against a datacache.Pool bounded at two live items, so that
// batches evict and revive.
func FuzzPoolRequestsBody(f *testing.F) {
	for _, body := range bodySeeds {
		f.Add([]byte(body), false)
		f.Add([]byte(body), true)
	}
	srv := New()
	cm := datacache.CostModel{Mu: 1, Lambda: 2}
	f.Fuzz(func(t *testing.T, body []byte, ndjson bool) {
		id := fuzzOpen(t, srv, "/v1/pool",
			[]byte(`{"m":3,"origin":1,"model":{"mu":1,"lambda":2},"maxItems":2}`), []byte(`{"item":"a","server":2,"t":0.5}`))
		defer fuzzCall(srv, http.MethodDelete, "/v1/pool/"+id, nil, false)
		ref, err := datacache.NewPool(3, 1, cm, &datacache.PoolOptions{MaxItems: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Serve("", "a", 2, 0.5); err != nil {
			t.Fatal(err)
		}
		before := poolStanding(srv, id)

		w := fuzzCall(srv, http.MethodPost, "/v1/pool/"+id+"/requests", body, ndjson)
		checkAnswer(t, body, w)
		after := poolStanding(srv, id)
		items, err := decodeBatchJSON[PoolBatchRequestBody](body, ndjson)
		if err != nil || len(items) > MaxBatchRequests {
			if w.Code != http.StatusBadRequest || after != before {
				t.Fatalf("body %q (ndjson %v), rejected by encoding/json (%v): status %d, standing %+v -> %+v",
					body, ndjson, err, w.Code, before, after)
			}
			return
		}
		reqs := make([]datacache.PoolRequest, len(items))
		for i, it := range items {
			reqs[i] = datacache.PoolRequest{Tenant: it.Tenant, Item: it.Item, Server: it.Server, Time: it.at()}
		}
		res, err := ref.ServeBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		if want := standingOf(ref.N(), ref.Cost(), ref.Optimal()); after != want {
			t.Fatalf("body %q (ndjson %v): standing %+v, the reference %+v", body, ndjson, after, want)
		}
		switch w.Code {
		case http.StatusOK:
			var reply PoolBatchResponse
			if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
				t.Fatalf("body %q: reply %q: %v", body, w.Body, err)
			}
			if reply.Applied != len(res.Decisions) || len(reply.Decisions) != reply.Applied ||
				reply.FirstRejected != res.FirstRejected || reply.N != ref.N() ||
				fmt.Sprint(reply.Rejected) != fmt.Sprint(res.Rejected) {
				t.Fatalf("body %q (ndjson %v): reply %+v, the reference %+v", body, ndjson, reply, res)
			}
		case http.StatusInternalServerError: // the batch applied; its reply held a non-finite float
		default:
			t.Fatalf("body %q (ndjson %v): status %d for a body encoding/json takes", body, ndjson, w.Code)
		}
	})
}
