package service

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"datacache"
	"datacache/internal/model"
	"datacache/internal/offline"
)

// TestSessionShadowAcceptance is the counterfactual-accounting acceptance
// test over HTTP: a live-SC session on the paper's Fig. 6 workload with an
// "sc" shadow (the self-check configuration) must export a
// dc_shadow_cost{policy="sc"} gauge matching dc_session_cost to 1e-9, the
// /shadow route must return standings whose twin row reproduces the
// session cost exactly, and serve spans must name the policies that
// decided differently.
func TestSessionShadowAcceptance(t *testing.T) {
	ts := newTestServer(t)
	seq, cm := offline.Fig6Instance()

	var state SessionState
	post(t, ts.URL+"/v1/session", SessionCreateRequest{
		M: seq.M, Origin: seq.Origin, Model: CostModelDTO{Mu: cm.Mu, Lambda: cm.Lambda},
		Shadows: []string{"sc", "replicate"},
	}, &state)
	id := state.ID
	for _, r := range seq.Requests {
		post(t, ts.URL+"/v1/session/"+id+"/request",
			StreamAppendRequest{Server: r.Server, Time: r.Time}, nil)
	}

	sc := scrape(t, ts.URL)
	liveCost := sc.mustSample(t, fmt.Sprintf(`dc_session_cost{session="%s"}`, id))
	twinCost := sc.mustSample(t, fmt.Sprintf(`dc_shadow_cost{session="%s",policy="sc"}`, id))
	if math.Abs(twinCost-liveCost) > 1e-9 {
		t.Errorf("dc_shadow_cost{policy=sc} = %v, dc_session_cost = %v: self-check drift %g",
			twinCost, liveCost, twinCost-liveCost)
	}
	liveRatio := sc.mustSample(t, fmt.Sprintf(`dc_session_cost_over_optimum{session="%s"}`, id))
	twinRatio := sc.mustSample(t, fmt.Sprintf(`dc_shadow_cost_over_optimum{session="%s",policy="sc"}`, id))
	if math.Abs(twinRatio-liveRatio) > 1e-9 {
		t.Errorf("shadow ratio %v != live ratio %v", twinRatio, liveRatio)
	}
	// Exactly one winner among {live sc, shadow sc, replicate}; the sc
	// labels collapse to one series.
	ones := sc.mustSample(t, fmt.Sprintf(`dc_shadow_best_policy{session="%s",policy="sc"}`, id)) +
		sc.mustSample(t, fmt.Sprintf(`dc_shadow_best_policy{session="%s",policy="replicate"}`, id))
	if ones != 1 {
		t.Errorf("dc_shadow_best_policy rows sum to %v, want exactly one winner", ones)
	}

	var rep SessionShadowResponse
	getJSON(t, ts.URL+"/v1/session/"+id+"/shadow", &rep)
	if rep.ID != id || rep.Policy != "sc" || rep.N != seq.N() {
		t.Errorf("shadow reply header %+v, want id=%s policy=sc n=%d", rep, id, seq.N())
	}
	if len(rep.Standings) != 3 {
		t.Fatalf("standings = %d rows, want live + 2 shadows", len(rep.Standings))
	}
	live := rep.Standings[0]
	if !live.Live || live.Cost != rep.Cost {
		t.Errorf("live row %+v does not lead with the session cost %v", live, rep.Cost)
	}
	var twin datacache.ShadowStanding
	for _, row := range rep.Standings[1:] {
		if row.Policy == "sc" {
			twin = row
		}
	}
	// Every standing is priced as the session cost is, so the twin is
	// bitwise equal.
	if twin.Cost != rep.Cost {
		t.Errorf("twin standing cost %v != session cost %v (must be bitwise equal)", twin.Cost, rep.Cost)
	}
	if twin.Divergence != 0 {
		t.Errorf("twin divergence = %d, want 0", twin.Divergence)
	}

	// Serve spans carry the divergence annotation: replicate disagrees
	// with SC on at least one Fig. 6 request, the twin never does.
	list := waitTraces(t, ts.URL, "?session="+id, seq.N())
	sawReplicate := false
	for _, tr := range list.Traces {
		var got TraceGetResponse
		getJSON(t, ts.URL+"/v1/traces/"+tr.TraceID, &got)
		for _, sp := range got.Spans {
			if sp.Name != "serve" {
				continue
			}
			if strings.Contains(sp.Shadows, "replicate") {
				sawReplicate = true
			}
			if strings.Contains(sp.Shadows, "sc") {
				t.Errorf("trace %s: twin shadow flagged as diverged (%q)", tr.TraceID, sp.Shadows)
			}
		}
	}
	if !sawReplicate {
		t.Error("no serve span names replicate as diverged on Fig. 6")
	}
}

// TestSessionShadowRouteErrors pins the failure modes: /shadow on a
// session without shadows is 404, a bad spec at create is 400, and a
// duplicate shadow label is 400.
func TestSessionShadowRouteErrors(t *testing.T) {
	ts := newTestServer(t)

	var state SessionState
	post(t, ts.URL+"/v1/session", SessionCreateRequest{
		M: 3, Model: CostModelDTO{Mu: 1, Lambda: 1},
	}, &state)
	resp, err := http.Get(ts.URL + "/v1/session/" + state.ID + "/shadow")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("shadow route on plain session: status %d, want 404", resp.StatusCode)
	}

	for _, shadows := range [][]string{
		{"warp"}, {"ttl"}, {"sc:epoch=0"}, {"migrate", "migrate"},
	} {
		resp := post(t, ts.URL+"/v1/session", SessionCreateRequest{
			M: 3, Model: CostModelDTO{Mu: 1, Lambda: 1}, Shadows: shadows,
		}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("create with shadows %v: status %d, want 400", shadows, resp.StatusCode)
		}
	}
}

// TestPoolShadowRoute drives a shadowed pool and checks the aggregated
// counterfactual: the /shadow route's twin row and the
// dc_pool_shadow_cost gauge both track the pool-wide live cost, and a
// shadow-less pool answers 404.
func TestPoolShadowRoute(t *testing.T) {
	ts := newTestServer(t)

	var pool PoolState
	post(t, ts.URL+"/v1/pool", PoolCreateRequest{
		M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2},
		Shadows: []string{"sc", "migrate"},
	}, &pool)
	id := pool.ID
	for i, item := range []string{"x", "y", "x", "z", "y", "x"} {
		post(t, ts.URL+"/v1/pool/"+id+"/request", PoolServeRequest{
			Item: item, Server: model.ServerID(1 + i%3), T: float64(i+1) * 0.5,
		}, nil)
	}

	var rep PoolShadowResponse
	getJSON(t, ts.URL+"/v1/pool/"+id+"/shadow", &rep)
	if rep.ID != id || rep.Policy != "sc" || rep.N != 6 {
		t.Errorf("pool shadow reply header %+v, want id=%s policy=sc n=6", rep, id)
	}
	if len(rep.Standings) != 3 {
		t.Fatalf("pool standings = %d rows, want live + 2", len(rep.Standings))
	}
	if !rep.Standings[0].Live {
		t.Error("pool standings do not lead with the live row")
	}
	var twin datacache.ShadowStanding
	for _, row := range rep.Standings[1:] {
		if row.Policy == "sc" {
			twin = row
		}
	}
	if math.Abs(twin.Cost-rep.Cost) > 1e-9 {
		t.Errorf("pool twin standing cost %v != pool cost %v", twin.Cost, rep.Cost)
	}

	sc := scrape(t, ts.URL)
	liveCost := sc.mustSample(t, fmt.Sprintf(`dc_pool_cost{pool="%s"}`, id))
	twinCost := sc.mustSample(t, fmt.Sprintf(`dc_pool_shadow_cost{pool="%s",policy="sc"}`, id))
	if math.Abs(twinCost-liveCost) > 1e-9 {
		t.Errorf("dc_pool_shadow_cost{policy=sc} = %v, dc_pool_cost = %v", twinCost, liveCost)
	}

	var plain PoolState
	post(t, ts.URL+"/v1/pool", PoolCreateRequest{M: 3, Model: CostModelDTO{Mu: 1, Lambda: 1}}, &plain)
	resp, err := http.Get(ts.URL + "/v1/pool/" + plain.ID + "/shadow")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("shadow route on plain pool: status %d, want 404", resp.StatusCode)
	}

	badResp := post(t, ts.URL+"/v1/pool", PoolCreateRequest{
		M: 3, Model: CostModelDTO{Mu: 1, Lambda: 1}, Shadows: []string{"warp"},
	}, nil)
	if badResp.StatusCode != http.StatusBadRequest {
		t.Errorf("pool create with bad shadow spec: status %d, want 400", badResp.StatusCode)
	}
}
