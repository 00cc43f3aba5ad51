package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"datacache/internal/model"
)

func TestPoolLifecycle(t *testing.T) {
	ts := newTestServer(t)

	var state PoolState
	resp := post(t, ts.URL+"/v1/pool", PoolCreateRequest{
		M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1},
	}, &state)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d, want 201", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/pool/"+state.ID {
		t.Errorf("Location %q, want /v1/pool/%s", loc, state.ID)
	}
	id := state.ID

	// Serve three items across two tenants through the single path.
	serves := []PoolServeRequest{
		{Item: "video", Server: 2, T: 1},
		{Tenant: "acme", Item: "video", Server: 3, T: 1.5},
		{Item: "video", Server: 2, T: 2},
		{Tenant: "acme", Item: "profile", Server: 1, T: 2.5},
	}
	var last PoolDecisionDTO
	for _, req := range serves {
		resp := post(t, ts.URL+"/v1/pool/"+id+"/request", req, &last)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("serve %+v: status %d", req, resp.StatusCode)
		}
	}
	if last.Item != "profile" || last.Tenant != "acme" || last.PoolCost <= 0 {
		t.Errorf("last decision %+v, want acme/profile with positive pool cost", last)
	}

	var got PoolState
	getJSON(t, ts.URL+"/v1/pool/"+id, &got)
	if got.N != 4 || got.Items != 3 || got.LiveItems != 3 {
		t.Errorf("state %+v, want n=4 items=3 live=3", got)
	}
	if len(got.Tenants) != 2 {
		t.Errorf("tenants %+v, want the default and acme", got.Tenants)
	}

	// Ranked item standings, both orders plus a limit.
	var items PoolItemsResponse
	getJSON(t, ts.URL+"/v1/pool/"+id+"/items", &items)
	if items.By != "cost" || items.Total != 3 || len(items.Items) != 3 {
		t.Fatalf("items %+v, want 3 cost-ranked items", items)
	}
	for i := 1; i < len(items.Items); i++ {
		if items.Items[i].Cost > items.Items[i-1].Cost {
			t.Errorf("items not cost-descending: %+v", items.Items)
		}
	}
	getJSON(t, ts.URL+"/v1/pool/"+id+"/items?by=regret&limit=1", &items)
	if items.By != "regret" || len(items.Items) != 1 || items.Total != 3 {
		t.Errorf("regret top-1 %+v, want 1 of 3", items)
	}
	if resp, err := http.Get(ts.URL + "/v1/pool/" + id + "/items?by=zorp"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad ranking status %d, want 400", resp.StatusCode)
		}
	}

	// Close; the reply carries the final standings, and the id is gone.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/pool/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/v1/pool/" + id); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET after delete: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestPoolMatchesSessions is the HTTP-layer equivalence check: per-item
// standings served through one pool equal dedicated /v1/session sessions
// fed the same subsequences.
func TestPoolMatchesSessions(t *testing.T) {
	ts := newTestServer(t)

	type keyed struct {
		tenant, item string
		reqs         []StreamAppendRequest
	}
	keys := []keyed{
		{"", "a", []StreamAppendRequest{{Server: 2, Time: 1}, {Server: 3, Time: 2.2}, {Server: 2, Time: 4}}},
		{"acme", "a", []StreamAppendRequest{{Server: 1, Time: 0.5}, {Server: 1, Time: 3}}},
		{"acme", "b", []StreamAppendRequest{{Server: 3, Time: 1.7}, {Server: 2, Time: 2.9}, {Server: 3, Time: 3.1}}},
	}

	var pool PoolState
	post(t, ts.URL+"/v1/pool", PoolCreateRequest{
		M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2},
	}, &pool)
	want := map[string]SessionState{}
	for _, k := range keys {
		var sess SessionState
		post(t, ts.URL+"/v1/session", SessionCreateRequest{
			M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2},
		}, &sess)
		for _, r := range k.reqs {
			post(t, ts.URL+"/v1/session/"+sess.ID+"/request", r, nil)
			post(t, ts.URL+"/v1/pool/"+pool.ID+"/request", PoolServeRequest{
				Tenant: k.tenant, Item: k.item, Server: r.Server, T: r.Time,
			}, nil)
		}
		getJSON(t, ts.URL+"/v1/session/"+sess.ID, &sess)
		want[k.tenant+"/"+k.item] = sess
	}

	var items PoolItemsResponse
	getJSON(t, ts.URL+"/v1/pool/"+pool.ID+"/items", &items)
	if len(items.Items) != len(keys) {
		t.Fatalf("pool has %d items, want %d", len(items.Items), len(keys))
	}
	for _, st := range items.Items {
		ref, ok := want[st.Tenant+"/"+st.Item]
		if !ok {
			t.Fatalf("unexpected pool item %s/%s", st.Tenant, st.Item)
		}
		if st.Cost != ref.Cost || st.Optimal != ref.Optimal || st.N != ref.N ||
			st.Hits != ref.Hits || st.Transfers != ref.Transfers {
			t.Errorf("item %s/%s (%+v) != dedicated session (%+v)", st.Tenant, st.Item, st, ref)
		}
	}
}

func TestPoolBatchShapesAndPartial(t *testing.T) {
	ts := newTestServer(t)

	var pool PoolState
	post(t, ts.URL+"/v1/pool", PoolCreateRequest{
		M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1},
	}, &pool)
	id := pool.ID

	// Object shape, mixed items, with one per-item rejection: item "a"
	// goes back in time mid-batch, item "b" is unaffected.
	var br PoolBatchResponse
	resp := post(t, ts.URL+"/v1/pool/"+id+"/requests", PoolBatchRequestBody{
		Requests: []PoolServeRequest{
			{Item: "a", Server: 2, T: 1},
			{Item: "b", Server: 3, T: 1.5},
			{Item: "a", Server: 2, T: 0.5},
			{Item: "b", Server: 1, Time: 2}, // "time" alias
			{Item: "a", Server: 3, T: 3},
		},
	}, &br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if br.Applied != 3 || br.FirstRejected != 2 || len(br.Rejected) != 1 || br.Rejected[0].Index != 2 {
		t.Fatalf("batch result %+v, want 3 applied with index 2 rejected", br)
	}
	if br.N != 3 {
		t.Errorf("pool n=%d after batch, want 3", br.N)
	}

	// NDJSON shape continues both items.
	nd := "{\"item\":\"a\",\"server\":1,\"t\":4}\n{\"tenant\":\"acme\",\"item\":\"a\",\"server\":2,\"t\":1}\n"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/pool/"+id+"/requests", strings.NewReader(nd))
	req.Header.Set("Content-Type", "application/x-ndjson")
	ndResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer ndResp.Body.Close()
	if ndResp.StatusCode != http.StatusOK {
		t.Fatalf("NDJSON batch status %d", ndResp.StatusCode)
	}

	// Bare-array shape.
	arr := `[{"item":"b","server":2,"t":5}]`
	aresp, err := http.Post(ts.URL+"/v1/pool/"+id+"/requests", "application/json", bytes.NewReader([]byte(arr)))
	if err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("array batch status %d", aresp.StatusCode)
	}

	var state PoolState
	getJSON(t, ts.URL+"/v1/pool/"+id, &state)
	if state.N != 6 || state.Items != 3 {
		t.Errorf("state %+v, want n=6 over 3 keys", state)
	}
}

// The pool metric-retirement contract (per-pool and per-tenant series
// retired on close) is pinned by TestSeriesRetirementSweep in
// retirement_test.go.

// TestPoolsOpenGauge checks the open-pools gauge tracks create/close.
func TestPoolsOpenGauge(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()

	var pool PoolState
	post(t, srv.URL+"/v1/pool", PoolCreateRequest{
		M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1},
	}, &pool)
	sc := scrape(t, srv.URL)
	if v := sc.samples["dc_pools_open"]; v != 1 {
		t.Errorf("dc_pools_open = %v with one pool, want 1", v)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/pool/"+pool.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sc = scrape(t, srv.URL)
	if v := sc.samples["dc_pools_open"]; v != 0 {
		t.Errorf("dc_pools_open = %v after close, want 0", v)
	}
}

func TestPoolBadInputs(t *testing.T) {
	ts := newTestServer(t)

	// Bad create: unknown policy surfaces at creation, not first serve.
	resp := post(t, ts.URL+"/v1/pool", PoolCreateRequest{
		M: 2, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1}, Policy: "nope",
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad policy create status %d, want 400", resp.StatusCode)
	}

	if resp, err := http.Get(ts.URL + "/v1/pool/pl-999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown pool status %d, want 404", resp.StatusCode)
		}
	}

	var pool PoolState
	post(t, ts.URL+"/v1/pool", PoolCreateRequest{
		M: 2, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1},
	}, &pool)
	// Out-of-range server on the single path.
	resp = post(t, ts.URL+"/v1/pool/"+pool.ID+"/request",
		PoolServeRequest{Item: "x", Server: 9, T: 1}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad server status %d, want 400", resp.StatusCode)
	}

	// Every batch shape refuses bytes after the body and unknown item
	// fields, and applies nothing.
	for name, body := range map[string]string{
		"trailing bytes after the object":  `{"requests":[{"item":"x","server":2,"t":1}]} garbage`,
		"trailing bytes after the array":   `[{"item":"x","server":2,"t":1}] garbage`,
		"trailing bytes in ndjson":         `{"item":"x","server":2,"t":1}` + "\n" + `garbage`,
		"unknown item field in the object": `{"requests":[{"item":"x","server":2,"t":1,"bogus":1}]}`,
		"unknown item field in the array":  `[{"item":"x","server":2,"t":1,"bogus":1}]`,
		"unknown item field in ndjson":     `{"item":"x","server":2,"t":1,"bogus":1}` + "\n",
	} {
		ct := "application/json"
		if strings.Contains(name, "ndjson") {
			ct = "application/x-ndjson"
		}
		resp, err := http.Post(ts.URL+"/v1/pool/"+pool.ID+"/requests", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var envelope ErrorBody
		json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != CodeBadRequest {
			t.Errorf("%s: status %d code %q", name, resp.StatusCode, envelope.Error.Code)
		}
	}
	var state PoolState
	getJSON(t, ts.URL+"/v1/pool/"+pool.ID, &state)
	if state.N != 0 {
		t.Errorf("pool advanced to n=%d by rejected batch bodies", state.N)
	}
}

// TestPoolHammer drives one pool from many goroutines (the -race pool
// hammer of the CI matrix). Each goroutine is its own tenant, so per-key
// times are strictly increasing even though the wall-clock interleaving
// is arbitrary.
func TestPoolHammer(t *testing.T) {
	ts := newTestServer(t)

	var pool PoolState
	post(t, ts.URL+"/v1/pool", PoolCreateRequest{
		M: 4, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2}, MaxItems: 8,
	}, &pool)
	id := pool.ID

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("w%d", w)
			for i := 0; i < perWorker; i++ {
				item := fmt.Sprintf("item-%d", i%5)
				if i%10 == 9 {
					// Mix in a small batch to exercise the grouped path.
					post(t, ts.URL+"/v1/pool/"+id+"/requests", PoolBatchRequestBody{
						Requests: []PoolServeRequest{
							{Tenant: tenant, Item: item, Server: model.ServerID(1 + i%4), T: float64(i + 1)},
							{Tenant: tenant, Item: "hot", Server: model.ServerID(1 + (i+1)%4), T: float64(i + 1)},
						},
					}, nil)
					continue
				}
				post(t, ts.URL+"/v1/pool/"+id+"/request", PoolServeRequest{
					Tenant: tenant, Item: item, Server: model.ServerID(1 + i%4), T: float64(i + 1),
				}, nil)
			}
		}(w)
	}
	wg.Wait()

	var state PoolState
	getJSON(t, ts.URL+"/v1/pool/"+id, &state)
	if state.N == 0 || len(state.Tenants) != workers {
		t.Fatalf("hammer state %+v, want all %d tenants represented", state, workers)
	}
	if state.LiveItems > 8 {
		t.Errorf("live items %d exceeds the MaxItems=8 bound", state.LiveItems)
	}
	if state.Cost < state.Optimal {
		t.Errorf("pool cost %v below its optimum %v", state.Cost, state.Optimal)
	}
}

// TestPoolServeOnClosedPoolConflicts closes a pool through its entry
// under the entry lock, as DELETE does, and then serves to it: both the
// single and the batch route answer 409 conflict.
func TestPoolServeOnClosedPoolConflicts(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s)
	defer ts.Close()
	var st PoolState
	post(t, ts.URL+"/v1/pool", PoolCreateRequest{
		M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1},
	}, &st)
	e, _ := s.pools.get(st.ID)
	_ = e.lk.lock(context.Background())
	if err := e.pool.Close(); err != nil {
		t.Fatal(err)
	}
	e.lk.unlock()
	for _, route := range []struct {
		path string
		body interface{}
	}{
		{"/request", PoolServeRequest{Item: "a", Server: 2, T: 1}},
		{"/requests", PoolBatchRequestBody{Requests: []PoolServeRequest{{Item: "a", Server: 2, T: 1}}}},
	} {
		buf, _ := json.Marshal(route.body)
		resp, err := http.Post(ts.URL+"/v1/pool/"+st.ID+route.path, "application/json", bytes.NewReader(buf))
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
			t.Errorf("POST %s on a closed pool: %d %q, want 409 %q",
				route.path, resp.StatusCode, body.Error.Code, CodeConflict)
		}
	}
}
