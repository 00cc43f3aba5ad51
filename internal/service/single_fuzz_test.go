package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"datacache"
)

// The single-request body fuzzers post arbitrary bodies to the real
// single-request handlers of an in-process server, under the rules the
// batch body fuzzers keep (batch_fuzz_test.go): no panic; a 200 or the
// error envelope; a body encoding/json refuses leaves N, cost and optimum
// untouched; and a body it takes serves what a datacache reference
// serves for the same request, with the reply encoding/json writes for
// the reference's decision, byte for byte.

// singleBodySeeds are request bodies for both fuzzers: requests the
// engine serves and ones it refuses, bodies the scanner leaves to
// encoding/json, malformed ones, and one whose cost overflows to +Inf.
var singleBodySeeds = []string{
	`{"server":3,"time":1}`, `{"time":2,"server":1}`, `{"server":9,"time":2}`, `{"server":2,"time":0.25}`,
	`{"item":"a","server":2,"t":1}`, `{"tenant":"x","item":"b","server":3,"time":1.5}`, `{"item":"c","server":1,"t":2}`,
	`{"item":"a","server":1,"time":2,"t":3}`, `{"item":"café","server":2,"t":1}`, `{"tenant":"<&>","item":"a","server":3,"t":1}`,
	`{"server":3,"time":1} junk`, `{"server":3,"time":2}{"server":4,"time":3}`, `{"server":3,"time":1,"bogus":1}`,
	`{"Server":3,"Time":1}`, `{"server":3,"server":2,"time":1}`, `{"server":3.0,"time":1}`, `{"server":"3"}`,
	`{}`, `null`, ``, `[]`, `,,,`, `{"server":3,"time":1e308}`, `{"item":"a","server":3,"t":1e308}`,
}

// FuzzSessionRequestBody holds POST /v1/session/{id}/request to the rules
// above, against a datacache.Session.
func FuzzSessionRequestBody(f *testing.F) {
	for _, body := range singleBodySeeds {
		f.Add([]byte(body))
	}
	srv := New()
	cm := datacache.CostModel{Mu: 1, Lambda: 2}
	f.Fuzz(func(t *testing.T, body []byte) {
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

		w := fuzzCall(srv, http.MethodPost, "/v1/session/"+id+"/request", body, false)
		checkAnswer(t, body, w)
		after := sessionStanding(srv, id)
		var req StreamAppendRequest
		if err := decodeValue(body, &req); err != nil {
			if w.Code != http.StatusBadRequest || after != before {
				t.Fatalf("body %q, rejected by encoding/json (%v): status %d, standing %+v -> %+v",
					body, err, w.Code, before, after)
			}
			return
		}
		d, serveErr := ref.Serve(req.Server, req.Time)
		if want := standingOf(ref.N(), ref.Cost(), ref.OptimalCost()); after != want {
			t.Fatalf("body %q: standing %+v, the reference %+v", body, after, want)
		}
		var want bytes.Buffer
		encErr := json.NewEncoder(&want).Encode(SessionDecision{
			ID: id, N: ref.N(), Server: d.Server, Time: d.Time, Hit: d.Hit, From: d.From,
			Cost: d.Cost, Optimal: d.Optimal, Ratio: d.Ratio, Regret: d.Regret,
		})
		checkSingleAnswer(t, body, w, serveErr, encErr, want.Bytes())
	})
}

// FuzzPoolRequestBody holds POST /v1/pool/{id}/request to the rules
// above, against a datacache.Pool bounded at two live items, so that
// requests evict and revive.
func FuzzPoolRequestBody(f *testing.F) {
	for _, body := range singleBodySeeds {
		f.Add([]byte(body))
	}
	srv := New()
	cm := datacache.CostModel{Mu: 1, Lambda: 2}
	f.Fuzz(func(t *testing.T, body []byte) {
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
		if _, err := ref.Serve("", "b", 3, 0.75); err != nil {
			t.Fatal(err)
		}
		fuzzCall(srv, http.MethodPost, "/v1/pool/"+id+"/request", []byte(`{"item":"b","server":3,"t":0.75}`), false)
		before := poolStanding(srv, id)

		w := fuzzCall(srv, http.MethodPost, "/v1/pool/"+id+"/request", body, false)
		checkAnswer(t, body, w)
		after := poolStanding(srv, id)
		var req PoolServeRequest
		if err := decodeValue(body, &req); err != nil {
			if w.Code != http.StatusBadRequest || after != before {
				t.Fatalf("body %q, rejected by encoding/json (%v): status %d, standing %+v -> %+v",
					body, err, w.Code, before, after)
			}
			return
		}
		d, serveErr := ref.Serve(req.Tenant, req.Item, req.Server, req.at())
		if want := standingOf(ref.N(), ref.Cost(), ref.Optimal()); after != want {
			t.Fatalf("body %q: standing %+v, the reference %+v", body, after, want)
		}
		var want bytes.Buffer
		encErr := json.NewEncoder(&want).Encode(poolDecisionDTO(id, d))
		checkSingleAnswer(t, body, w, serveErr, encErr, want.Bytes())
	})
}

// checkSingleAnswer requires the status the reference's outcome implies:
// 400 when the reference refused the request, 500 when it served it but
// its reply cannot be encoded (a non-finite float), and otherwise a 200
// carrying exactly the reference's reply.
func checkSingleAnswer(t *testing.T, body []byte, w *httptest.ResponseRecorder, serveErr, encErr error, want []byte) {
	t.Helper()
	switch {
	case serveErr != nil:
		if w.Code != http.StatusBadRequest {
			t.Fatalf("body %q, refused by the reference (%v): status %d", body, serveErr, w.Code)
		}
	case encErr != nil:
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("body %q, an unencodable reply (%v): status %d", body, encErr, w.Code)
		}
	case w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want):
		t.Fatalf("body %q: status %d, reply %q; the reference's reply %q", body, w.Code, w.Body, want)
	}
}
