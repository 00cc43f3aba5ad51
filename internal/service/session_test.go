package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"datacache/internal/model"
	"datacache/internal/offline"
	"datacache/internal/online"
)

func TestSessionLifecycle(t *testing.T) {
	ts := newTestServer(t)
	var st SessionState
	resp := post(t, ts.URL+"/v1/session", SessionCreateRequest{
		M: 4, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1},
	}, &st)
	if resp.StatusCode != http.StatusCreated || st.ID == "" || st.Policy != "sc" {
		t.Fatalf("create: status %d, state %+v", resp.StatusCode, st)
	}

	// Serve the Fig. 6 requests one at a time; the accumulated cost must
	// match the batch online runner exactly (same engine, not a twin).
	seq, cm := offline.Fig6Instance()
	var last SessionDecision
	for i, r := range seq.Requests {
		resp := post(t, ts.URL+"/v1/session/"+st.ID+"/request",
			StreamAppendRequest{Server: r.Server, Time: r.Time}, &last)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if last.N != i+1 || last.Server != r.Server || last.Time != r.Time {
			t.Fatalf("request %d echoed as %+v", i, last)
		}
		if last.Optimal > last.Cost+1e-9 {
			t.Fatalf("request %d: optimum %v above cost %v", i, last.Optimal, last.Cost)
		}
	}
	run, err := online.Run(online.SpeculativeCaching{}, seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if last.Cost != run.Stats.Cost {
		t.Errorf("session cost %v != batch cost %v", last.Cost, run.Stats.Cost)
	}
	opt, err := offline.FastDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(last.Optimal-opt.Cost()) > 1e-12 {
		t.Errorf("session optimum %v != FastDP %v", last.Optimal, opt.Cost())
	}
	// The paper's Fig. 6 golden: the prefix optimum C(7) = 8.9.
	if last.N != 7 || math.Abs(last.Optimal-8.9) > 1e-9 {
		t.Errorf("after %d requests optimal = %v, want 8.9 at n = 7", last.N, last.Optimal)
	}
	if last.Ratio > 3+1e-9 {
		t.Errorf("live ratio %v breaks Theorem 3", last.Ratio)
	}

	// Mid-session state and schedule reads.
	resp2, err := http.Get(ts.URL + "/v1/session/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got SessionState
	json.NewDecoder(resp2.Body).Decode(&got)
	resp2.Body.Close()
	if got.N != seq.N() || got.Cost != last.Cost {
		t.Errorf("state = %+v, want n=%d cost=%v", got, seq.N(), last.Cost)
	}
	resp3, err := http.Get(ts.URL + "/v1/session/" + st.ID + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	var snap model.Schedule
	json.NewDecoder(resp3.Body).Decode(&snap)
	resp3.Body.Close()
	if err := snap.Validate(seq); err != nil {
		t.Errorf("snapshot schedule infeasible: %v", err)
	}

	// Stale request rejected, session unharmed.
	resp = post(t, ts.URL+"/v1/session/"+st.ID+"/request",
		StreamAppendRequest{Server: 1, Time: 0.1}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("stale request: status %d", resp.StatusCode)
	}

	// Close: final state plus a feasible schedule, then 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+st.ID, nil)
	resp4, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var closed SessionCloseResponse
	json.NewDecoder(resp4.Body).Decode(&closed)
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK || closed.Schedule == nil {
		t.Fatalf("close: status %d, body %+v", resp4.StatusCode, closed)
	}
	if err := closed.Schedule.Validate(seq); err != nil {
		t.Errorf("final schedule infeasible: %v", err)
	}
	if closed.State.Cost != run.Stats.Cost || closed.State.Transfers != run.Stats.Transfers {
		t.Errorf("final state %+v disagrees with batch run %+v", closed.State, run.Stats)
	}
	resp5, err := http.Get(ts.URL + "/v1/session/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusNotFound {
		t.Errorf("closed session: status %d", resp5.StatusCode)
	}
}

func TestSessionBadInputs(t *testing.T) {
	ts := newTestServer(t)
	// Bad creates.
	for name, body := range map[string]SessionCreateRequest{
		"m=0":          {M: 0, Model: CostModelDTO{Mu: 1, Lambda: 1}},
		"bad policy":   {M: 3, Model: CostModelDTO{Mu: 1, Lambda: 1}, Policy: "lru"},
		"ttl no win":   {M: 3, Model: CostModelDTO{Mu: 1, Lambda: 1}, Policy: "ttl"},
		"zero model":   {M: 3},
		"origin range": {M: 3, Origin: 9, Model: CostModelDTO{Mu: 1, Lambda: 1}},
	} {
		if resp := post(t, ts.URL+"/v1/session", body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d", name, resp.StatusCode)
		}
	}
	// Unknown session.
	resp, err := http.Get(ts.URL + "/v1/session/sn-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d", resp.StatusCode)
	}
	// Bogus op on a real session.
	var st SessionState
	post(t, ts.URL+"/v1/session", SessionCreateRequest{
		M: 2, Model: CostModelDTO{Mu: 1, Lambda: 1},
	}, &st)
	resp2, err := http.Get(ts.URL + "/v1/session/" + st.ID + "/bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("bogus op: status %d", resp2.StatusCode)
	}
	// Out-of-range server on a request.
	resp3 := post(t, ts.URL+"/v1/session/"+st.ID+"/request",
		StreamAppendRequest{Server: 7, Time: 1}, nil)
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("bad server: status %d", resp3.StatusCode)
	}
}

// TestSessionConcurrentHammer drives many sessions from parallel goroutines
// while other goroutines hit the read-only and stateless routes — the
// concurrency-hardening check for the service, meant to run under -race.
// TestSessionServeOnClosedSessionConflicts covers a serve that takes
// the entry just after a concurrent DELETE closed its session but before
// the registry drops it: the single and the batch route both answer 409
// conflict, as the pool routes do.
func TestSessionServeOnClosedSessionConflicts(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s)
	defer ts.Close()
	var st SessionState
	post(t, ts.URL+"/v1/session", SessionCreateRequest{
		M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1},
	}, &st)
	e, _ := s.sessions.get(st.ID)
	_ = e.lk.lock(context.Background())
	if _, err := e.sess.Close(); err != nil {
		t.Fatal(err)
	}
	e.lk.unlock()
	for _, route := range []struct {
		path string
		body interface{}
	}{
		{"/request", StreamAppendRequest{Server: 2, Time: 1}},
		{"/requests", SessionBatchRequest{Requests: []BatchRequestItem{{Server: 2, T: 1}}}},
	} {
		buf, _ := json.Marshal(route.body)
		resp, err := http.Post(ts.URL+"/v1/session/"+st.ID+route.path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		var body ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusConflict || body.Error.Code != CodeConflict {
			t.Errorf("POST %s on a closed session: %d %q, want 409 %q",
				route.path, resp.StatusCode, body.Error.Code, CodeConflict)
		}
	}
}

func TestSessionConcurrentHammer(t *testing.T) {
	ts := newTestServer(t)
	const sessions = 6
	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, sessions+readers)

	for k := 0; k < sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			policy := []string{"sc", "ttl:window=0.5", "migrate", "replicate"}[k%4]
			create := SessionCreateRequest{
				M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2}, Policy: policy,
			}
			buf, _ := json.Marshal(create)
			resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(buf))
			if err != nil {
				errs <- err
				return
			}
			var st SessionState
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if st.ID == "" {
				errs <- fmt.Errorf("session %d: create failed", k)
				return
			}
			for i := 1; i <= 25; i++ {
				body, _ := json.Marshal(StreamAppendRequest{
					Server: model.ServerID(1 + (i+k)%3),
					Time:   float64(i) * 0.3,
				})
				resp, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/request", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode >= 500 {
					errs <- fmt.Errorf("session %s request %d: status %d", st.ID, i, resp.StatusCode)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				// Interleave a state read.
				if i%5 == 0 {
					r2, err := http.Get(ts.URL + "/v1/session/" + st.ID)
					if err != nil {
						errs <- err
						return
					}
					r2.Body.Close()
				}
			}
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+st.ID, nil)
			resp2, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			if resp2.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("session %s close: status %d", st.ID, resp2.StatusCode)
			}
			resp2.Body.Close()
		}(k)
	}

	// Readers hammer the stateless routes while sessions serve.
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			seq, cm := offline.Fig6Instance()
			for i := 0; i < 15; i++ {
				for _, route := range []string{"/healthz", "/metricz", "/v1/spec", "/v1/policies"} {
					resp, err := http.Get(ts.URL + route)
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode >= 500 {
						errs <- fmt.Errorf("%s: status %d", route, resp.StatusCode)
						resp.Body.Close()
						return
					}
					resp.Body.Close()
				}
				buf, _ := json.Marshal(SimulateRequest{
					Sequence: seq,
					Model:    CostModelDTO{Mu: cm.Mu, Lambda: cm.Lambda},
					Policy:   "sc",
				})
				resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(buf))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode >= 500 {
					errs <- fmt.Errorf("/v1/simulate: status %d", resp.StatusCode)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
			}
		}(k)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHybridSessionEndpoint drives a hybrid live session over HTTP: the
// spec parses at create, the state document carries the planner stats
// block once the planner engages, and a malformed hybrid spec is a 400
// at create time, not a 500 at first serve.
func TestHybridSessionEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var st SessionState
	resp := post(t, ts.URL+"/v1/session", SessionCreateRequest{
		M: 4, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2},
		Policy: "hybrid:horizon=6,order=2",
	}, &st)
	if resp.StatusCode != http.StatusCreated || st.Policy != "hybrid:horizon=6,order=2" {
		t.Fatalf("create: status %d, state %+v", resp.StatusCode, st)
	}
	if st.Planner == nil {
		t.Fatal("create state has no planner block")
	}
	if st.Planner.Horizon != 6 || st.Planner.Order != 2 {
		t.Fatalf("planner block = %+v, want horizon=6 order=2", st.Planner)
	}
	for i := 0; i < 120; i++ {
		post(t, ts.URL+"/v1/session/"+st.ID+"/request",
			StreamAppendRequest{Server: model.ServerID(1 + i%4), Time: float64(i + 1)}, nil)
	}
	getJSON(t, ts.URL+"/v1/session/"+st.ID, &st)
	if st.Planner == nil || st.Planner.Plans == 0 {
		t.Fatalf("planner never engaged over HTTP: %+v", st.Planner)
	}
	if st.Planner.PredictedHitRatio < 0.9 {
		t.Errorf("predicted-hit ratio %v < 0.9 on a deterministic cycle", st.Planner.PredictedHitRatio)
	}

	resp = post(t, ts.URL+"/v1/session", SessionCreateRequest{
		M: 4, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2},
		Policy: "sc:horizon=4",
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad hybrid spec: status %d, want 400", resp.StatusCode)
	}
}
