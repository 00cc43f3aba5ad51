package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"datacache/internal/model"
	"datacache/internal/obs"
	"datacache/internal/obs/tsdb"
)

// retirementCase describes one resource whose metric series must appear
// while it lives and vanish when it closes. create builds and drives the
// resource and returns its ID; kind picks the /v1/{kind}/{id} close
// route and the {kind}="{id}" series label; families lists every metric
// family that must have at least one live series carrying that label;
// extra runs optional mid-life assertions.
type retirementCase struct {
	name     string
	kind     string
	families []string
	create   func(t *testing.T, base string) string
	extra    func(t *testing.T, sc scrapeResult, id string)
}

// TestSeriesRetirementSweep is the single series-lifecycle regression
// test: per-session gauges, per-server cost attribution, SLO alert
// standings, per-pool and per-tenant gauges, and the shadow-policy
// counterfactual families all must be published while the resource is
// open and retired — every last series — on close. Earlier PRs carried
// one hand-rolled copy of this loop per resource; this table is the
// only place the contract lives now.
func TestSeriesRetirementSweep(t *testing.T) {
	cases := []retirementCase{
		{
			name: "session with SLO rules",
			kind: "session",
			families: []string{
				"dc_session_cost", "dc_session_optimal_cost", "dc_session_cost_over_optimum",
				"dc_session_live_copies", "dc_session_windowed_ratio",
				"dc_session_server_cost", "dc_alert_state",
			},
			create: func(t *testing.T, base string) string {
				var state SessionState
				post(t, base+"/v1/session", SessionCreateRequest{
					M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1}, Policy: "migrate",
				}, &state)
				for i := 0; i < 12; i++ {
					post(t, base+"/v1/session/"+state.ID+"/request",
						StreamAppendRequest{Server: model.ServerID(1 + i%3), Time: float64(i+1) * 0.4}, nil)
				}
				return state.ID
			},
		},
		{
			name: "pool with tenants and evictions",
			kind: "pool",
			families: []string{
				"dc_pool_items", "dc_pool_cost", "dc_pool_optimal_cost",
				"dc_pool_cost_over_optimum", "dc_pool_evictions_total",
				"dc_pool_tenant_windowed_ratio",
			},
			create: func(t *testing.T, base string) string {
				var pool PoolState
				post(t, base+"/v1/pool", PoolCreateRequest{
					M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1}, MaxItems: 2,
				}, &pool)
				// Three keys under a 2-item bound forces evictions, so the
				// evictions counter gets a series too.
				for i, item := range []string{"x", "y", "z", "x"} {
					post(t, base+"/v1/pool/"+pool.ID+"/request", PoolServeRequest{
						Tenant: "acme", Item: item, Server: model.ServerID(1 + i%3), T: float64(i+1) * 0.7,
					}, nil)
				}
				return pool.ID
			},
			extra: func(t *testing.T, sc scrapeResult, id string) {
				if v, ok := sc.samples[fmt.Sprintf(`dc_pool_evictions_total{pool="%s"}`, id)]; !ok || v < 2 {
					t.Errorf("evictions counter = %v (present %v), want >= 2", v, ok)
				}
			},
		},
		{
			name: "session with shadow policies",
			kind: "session",
			families: []string{
				"dc_session_cost", "dc_shadow_cost", "dc_shadow_cost_over_optimum",
				"dc_shadow_best_policy", "dc_alert_state",
			},
			create: func(t *testing.T, base string) string {
				var state SessionState
				post(t, base+"/v1/session", SessionCreateRequest{
					M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2},
					Shadows: []string{"migrate", "replicate"},
				}, &state)
				for i := 0; i < 10; i++ {
					post(t, base+"/v1/session/"+state.ID+"/request",
						StreamAppendRequest{Server: model.ServerID(1 + i%3), Time: float64(i+1) * 0.5}, nil)
				}
				return state.ID
			},
			extra: func(t *testing.T, sc scrapeResult, id string) {
				// Every shadow label and the live policy carry a best-policy
				// row; exactly one of the three is 1.
				ones := 0.0
				for _, policy := range []string{"sc", "migrate", "replicate"} {
					ones += sc.mustSample(t, fmt.Sprintf(`dc_shadow_best_policy{session="%s",policy="%s"}`, id, policy))
				}
				if ones != 1 {
					t.Errorf("dc_shadow_best_policy rows sum to %v, want exactly one winner", ones)
				}
			},
		},
		{
			name: "hybrid session with planner gauges",
			kind: "session",
			families: []string{
				"dc_session_cost", "dc_planner_predicted_hit_ratio",
				"dc_planner_horizon_depth", "dc_planner_confidence",
				"dc_planner_plans", "dc_planner_mispredicts",
				"dc_shadow_cost", "dc_alert_state",
			},
			create: func(t *testing.T, base string) string {
				var state SessionState
				post(t, base+"/v1/session", SessionCreateRequest{
					M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2},
					Policy: "hybrid:horizon=4,order=1",
				}, &state)
				for i := 0; i < 12; i++ {
					post(t, base+"/v1/session/"+state.ID+"/request",
						StreamAppendRequest{Server: model.ServerID(1 + i%3), Time: float64(i+1) * 0.5}, nil)
				}
				return state.ID
			},
			extra: func(t *testing.T, sc scrapeResult, id string) {
				// The implicit sc self-check shadow publishes under the
				// shadow families, and the planner alert has a standing row.
				sc.mustSample(t, fmt.Sprintf(`dc_shadow_cost{session="%s",policy="sc"}`, id))
				sc.mustSample(t, fmt.Sprintf(`dc_alert_state{session="%s",alert="planner_worse_than_sc"}`, id))
			},
		},
		{
			name: "pool with shadow policies",
			kind: "pool",
			families: []string{
				"dc_pool_cost", "dc_pool_shadow_cost",
				"dc_pool_shadow_cost_over_optimum", "dc_pool_shadow_best_policy",
			},
			create: func(t *testing.T, base string) string {
				var pool PoolState
				post(t, base+"/v1/pool", PoolCreateRequest{
					M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2},
					Shadows: []string{"ttl:window=0.5", "replicate"},
				}, &pool)
				for i, item := range []string{"x", "y", "x", "y"} {
					post(t, base+"/v1/pool/"+pool.ID+"/request", PoolServeRequest{
						Item: item, Server: model.ServerID(1 + i%3), T: float64(i+1) * 0.5,
					}, nil)
				}
				return pool.ID
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &histClock{t: 1}
			s := New(WithSLOWindow(8), WithHistoryOptions(tsdb.Options{
				Now: clk.now, StaleAfter: 5 * time.Second,
			}))
			srv := httptest.NewServer(s)
			defer srv.Close()

			id := tc.create(t, srv.URL)
			label := fmt.Sprintf(`%s="%s"`, tc.kind, id)

			// One sampling pass captures every live series into the
			// history store; the tsdb lifecycle must track the gauge
			// lifecycle below.
			clk.advance(1)
			s.SampleMetricsNow()
			histKeys := func() []string {
				var got []string
				for _, key := range s.History().SeriesKeys() {
					if strings.Contains(key, label) {
						got = append(got, key)
					}
				}
				return got
			}
			if len(histKeys()) == 0 {
				t.Errorf("history store holds no series for the live %s", tc.kind)
			}

			sc := scrape(t, srv.URL)
			present := map[string]bool{}
			for series := range sc.samples {
				if strings.Contains(series, label) {
					present[strings.SplitN(series, "{", 2)[0]] = true
				}
			}
			for _, fam := range tc.families {
				if !present[fam] {
					t.Errorf("family %s has no series for the live %s (families seen: %v)", fam, tc.kind, present)
				}
			}
			if tc.extra != nil {
				tc.extra(t, sc, id)
			}

			req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/"+tc.kind+"/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
				t.Fatalf("DELETE /v1/%s/%s: status %d", tc.kind, id, resp.StatusCode)
			}

			sc = scrape(t, srv.URL)
			for series := range sc.samples {
				if strings.Contains(series, label) {
					t.Errorf("series %s survived %s close", series, tc.kind)
				}
			}

			// The scrape series vanish immediately; their history lingers
			// for post-mortems but must expire within one retention
			// window of the close — and sampling must have stopped, so
			// the next pass past StaleAfter sweeps every key.
			clk.advance(1)
			s.SampleMetricsNow()
			if len(histKeys()) == 0 {
				t.Errorf("history expired immediately on %s close; want one StaleAfter window of retention", tc.kind)
			}
			clk.advance(6)
			s.SampleMetricsNow()
			if keys := histKeys(); len(keys) != 0 {
				t.Errorf("history series %v survived %s close past the retention window", keys, tc.kind)
			}
		})
	}
}

// TestRetirementClosedEntryWritesNothing covers the window between
// DELETE's Close and its registry delete: the entry is still registered
// but its session or pool is closed, so a Gather must write no series
// for it, while the open entries next to it keep theirs.
func TestRetirementClosedEntryWritesNothing(t *testing.T) {
	s := New(WithSLOWindow(8))
	srv := httptest.NewServer(s)
	defer srv.Close()

	ids := map[string]string{} // label -> "open" | "closed"
	for _, fate := range []string{"open", "closed"} {
		var st SessionState
		post(t, srv.URL+"/v1/session", SessionCreateRequest{
			M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2},
			Policy: "hybrid:horizon=4,order=1", Shadows: []string{"migrate"},
		}, &st)
		for i := 0; i < 6; i++ {
			post(t, srv.URL+"/v1/session/"+st.ID+"/request",
				StreamAppendRequest{Server: model.ServerID(1 + i%3), Time: float64(i+1) * 0.5}, nil)
		}
		var pl PoolState
		post(t, srv.URL+"/v1/pool", PoolCreateRequest{
			M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1}, MaxItems: 1,
			Shadows: []string{"replicate"},
		}, &pl)
		for i, item := range []string{"x", "y", "x"} {
			post(t, srv.URL+"/v1/pool/"+pl.ID+"/request", PoolServeRequest{
				Tenant: "acme", Item: item, Server: model.ServerID(1 + i%3), T: float64(i+1) * 0.5,
			}, nil)
		}
		ids[`session="`+st.ID+`"`] = fate
		ids[`pool="`+pl.ID+`"`] = fate
		if fate != "closed" {
			continue
		}
		// Close under the entry locks, as DELETE does, but leave both
		// entries registered.
		se, _ := s.sessions.get(st.ID)
		_ = se.lk.lock(context.Background())
		if _, err := se.sess.Close(); err != nil {
			t.Fatal(err)
		}
		se.lk.unlock()
		pe, _ := s.pools.get(pl.ID)
		_ = pe.lk.lock(context.Background())
		if err := pe.pool.Close(); err != nil {
			t.Fatal(err)
		}
		pe.lk.unlock()
	}

	seen := map[string]int{}
	s.reg.Gather(func(p obs.MetricPoint) {
		for label := range ids {
			if strings.Contains(p.Key(), label) {
				seen[label]++
			}
		}
	})
	for label, fate := range ids {
		if fate == "open" && seen[label] == 0 {
			t.Errorf("Gather wrote no series for the open entry %s", label)
		}
		if fate == "closed" && seen[label] != 0 {
			t.Errorf("Gather wrote %d series for the closed entry %s", seen[label], label)
		}
	}
}

// TestRetirementHammer creates, serves, batches and closes sessions and
// pools from several goroutines while others scrape /metrics and run
// history sampling passes (run it under -race). Once every entry is
// closed, a final scrape must carry no session or pool series.
func TestRetirementHammer(t *testing.T) {
	// Anomaly rules would add dc_alert_state rows keyed by watched series
	// under the session label; they are not entry series, so they stay off.
	s := New(WithSLOWindow(8), WithAnomalyRules([]tsdb.AnomalyRule{}))
	srv := httptest.NewServer(s)
	defer srv.Close()

	call := func(method, path string, body interface{}, out interface{}) bool {
		buf, _ := json.Marshal(body)
		req, _ := http.NewRequest(method, srv.URL+path, bytes.NewReader(buf))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Errorf("%s %s: status %d", method, path, resp.StatusCode)
			return false
		}
		if out != nil {
			return json.NewDecoder(resp.Body).Decode(out) == nil
		}
		return true
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func(scrape bool) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if !scrape {
					s.SampleMetricsNow()
					continue
				}
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i == 0)
	}

	const workers, rounds = 4, 6
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for r := 0; r < rounds; r++ {
				var st SessionState
				if !call(http.MethodPost, "/v1/session", SessionCreateRequest{
					M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2}, Shadows: []string{"migrate"},
				}, &st) {
					return
				}
				var batch SessionBatchRequest
				for i := 0; i < 6; i++ {
					req := BatchRequestItem{Server: model.ServerID(1 + (w+i)%3), T: float64(i+1) * 0.4}
					if i < 3 {
						call(http.MethodPost, "/v1/session/"+st.ID+"/request", StreamAppendRequest{Server: req.Server, Time: req.T}, nil)
					} else {
						batch.Requests = append(batch.Requests, req)
					}
				}
				call(http.MethodPost, "/v1/session/"+st.ID+"/requests", batch, nil)
				call(http.MethodDelete, "/v1/session/"+st.ID, nil, nil)

				var pl PoolState
				if !call(http.MethodPost, "/v1/pool", PoolCreateRequest{
					M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1}, MaxItems: 2,
					Shadows: []string{"replicate"},
				}, &pl) {
					return
				}
				var pb PoolBatchRequestBody
				for i, item := range []string{"x", "y", "z", "x", "y", "z"} {
					req := PoolServeRequest{Tenant: fmt.Sprint("t", i%2), Item: item, Server: model.ServerID(1 + (w+i)%3), T: float64(i+1) * 0.4}
					if i < 3 {
						call(http.MethodPost, "/v1/pool/"+pl.ID+"/request", req, nil)
					} else {
						pb.Requests = append(pb.Requests, req)
					}
				}
				call(http.MethodPost, "/v1/pool/"+pl.ID+"/requests", pb, nil)
				call(http.MethodDelete, "/v1/pool/"+pl.ID, nil, nil)
			}
		}(w)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	sc := scrape(t, srv.URL)
	for series := range sc.samples {
		if strings.Contains(series, `session="`) || strings.Contains(series, `pool="`) {
			t.Errorf("series %s survived its entry's close", series)
		}
	}
	if v := sc.mustSample(t, `dc_sessions_open`); v != 0 {
		t.Errorf("dc_sessions_open = %v after every close", v)
	}
}
