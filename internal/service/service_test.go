package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"datacache"
	"datacache/internal/model"
	"datacache/internal/multi"
	"datacache/internal/offline"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url string, body interface{}, out interface{}) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func fig6Body() OptimizeRequest {
	seq, cm := offline.Fig6Instance()
	return OptimizeRequest{
		Sequence: seq,
		Model:    CostModelDTO{Mu: cm.Mu, Lambda: cm.Lambda},
	}
}

func TestHealth(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestOptimizeEndpoint(t *testing.T) {
	ts := newTestServer(t)
	req := fig6Body()
	req.Schedule = true
	req.Vectors = true
	var out OptimizeResponse
	resp := post(t, ts.URL+"/v1/optimize", req, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if math.Abs(out.Cost-8.9) > 1e-9 {
		t.Errorf("cost = %v, want 8.9", out.Cost)
	}
	if out.LowerBound > out.Cost || out.UpperBound < out.Cost {
		t.Errorf("bounds [%v, %v] exclude cost %v", out.LowerBound, out.UpperBound, out.Cost)
	}
	if out.SingleCopy < out.Cost {
		t.Errorf("single copy %v below optimum", out.SingleCopy)
	}
	if out.Schedule == nil || len(out.C) != 8 || len(out.D) != 8 {
		t.Errorf("missing schedule or vectors: %+v", out)
	}
	if err := out.Schedule.Validate(req.Sequence); err != nil {
		t.Errorf("returned schedule infeasible: %v", err)
	}
}

func TestOptimizeRejectsBadInput(t *testing.T) {
	ts := newTestServer(t)
	// Invalid m.
	resp := post(t, ts.URL+"/v1/optimize", OptimizeRequest{
		Sequence: &model.Sequence{M: 0},
		Model:    CostModelDTO{Mu: 1, Lambda: 1},
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid sequence: status %d", resp.StatusCode)
	}
	// Missing sequence.
	resp = post(t, ts.URL+"/v1/optimize", OptimizeRequest{Model: CostModelDTO{Mu: 1, Lambda: 1}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing sequence: status %d", resp.StatusCode)
	}
	// Wrong method.
	get, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d", get.StatusCode)
	}
	// Unknown fields rejected.
	raw := bytes.NewReader([]byte(`{"bogus": 1}`))
	r2, err := http.Post(ts.URL+"/v1/optimize", "application/json", raw)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", r2.StatusCode)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out ExplainResponse
	resp := post(t, ts.URL+"/v1/explain", fig6Body(), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if math.Abs(out.Cost-8.9) > 1e-9 || len(out.Decisions) != 7 {
		t.Fatalf("explain = cost %v, %d decisions", out.Cost, len(out.Decisions))
	}
	sum := 0.0
	for _, d := range out.Decisions {
		sum += d.Cost
	}
	if math.Abs(sum-out.Cost) > 1e-6 {
		t.Errorf("attributions sum to %v, want %v", sum, out.Cost)
	}
	if out.Rendered == "" {
		t.Error("missing rendering")
	}
	resp = post(t, ts.URL+"/v1/explain", OptimizeRequest{Model: CostModelDTO{Mu: 1, Lambda: 1}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing sequence: status %d", resp.StatusCode)
	}
}

func TestRenderEndpoint(t *testing.T) {
	ts := newTestServer(t)
	req := fig6Body()
	body, _ := json.Marshal(RenderRequest{Sequence: req.Sequence, Model: req.Model, Width: 60})
	resp, err := http.Post(ts.URL+"/v1/render", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	raw := make([]byte, 8192)
	n, _ := resp.Body.Read(raw)
	out := string(raw[:n])
	for _, want := range []string{"s1", "s4", "*", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("diagram missing %q:\n%s", want, out)
		}
	}
	resp2 := post(t, ts.URL+"/v1/render", RenderRequest{Model: CostModelDTO{Mu: 1, Lambda: 1}}, nil)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("missing sequence: status %d", resp2.StatusCode)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	ts := newTestServer(t)
	seq, cm := offline.Fig6Instance()
	canonical := map[string]string{
		"":                         "sc",
		"sc":                       "sc",
		"sc:epoch=2":               "sc:epoch=2",
		"ttl:window=0.5":           "ttl:window=0.5",
		"adaptive":                 "adaptive",
		"migrate":                  "migrate",
		"keep":                     "replicate",
		"hybrid:horizon=8,order=2": "hybrid:horizon=8,order=2",
	}
	for policy, name := range canonical {
		var out SimulateResponse
		resp := post(t, ts.URL+"/v1/simulate", SimulateRequest{
			Sequence: seq,
			Model:    CostModelDTO{Mu: cm.Mu, Lambda: cm.Lambda},
			Policy:   policy,
		}, &out)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", policy, resp.StatusCode)
		}
		if out.Policy != name {
			t.Errorf("%q: reply names %q, want %q", policy, out.Policy, name)
		}
		if out.Cost < out.Optimal-1e-9 {
			t.Errorf("%s: cost %v below optimum %v", policy, out.Cost, out.Optimal)
		}
		if name == "sc" && out.Ratio > 3 {
			t.Errorf("sc ratio %v > 3", out.Ratio)
		}
	}
	for _, bad := range []string{"nope", "ttl", "ttl:window=1,epoch=3", "SC"} {
		resp := post(t, ts.URL+"/v1/simulate", SimulateRequest{
			Sequence: seq, Model: CostModelDTO{Mu: 1, Lambda: 1}, Policy: bad,
		}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("policy %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	// The window and epoch fields are retired: the spec carries them.
	retired := `{"sequence":{"M":2,"Origin":1,"Requests":[{"Server":2,"Time":1}]},"model":{"mu":1,"lambda":1},"policy":"ttl","window":0.5}`
	if resp := post(t, ts.URL+"/v1/simulate", json.RawMessage(retired), nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("retired window field: status %d, want 400", resp.StatusCode)
	}
}

func TestGenerateEndpoint(t *testing.T) {
	ts := newTestServer(t)
	for _, w := range []string{"uniform", "zipf", "bursty", "markov", "adversarial"} {
		var seq model.Sequence
		resp := post(t, ts.URL+"/v1/generate", GenerateRequest{Workload: w, M: 4, N: 25, Seed: 3}, &seq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", w, resp.StatusCode)
		}
		if seq.N() != 25 || seq.M != 4 {
			t.Errorf("%s: got n=%d m=%d", w, seq.N(), seq.M)
		}
		if err := seq.Validate(); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
	resp := post(t, ts.URL+"/v1/generate", GenerateRequest{Workload: "nope", M: 2, N: 5}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown workload: status %d", resp.StatusCode)
	}
	resp = post(t, ts.URL+"/v1/generate", GenerateRequest{M: 0, N: 5}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("m=0: status %d", resp.StatusCode)
	}
}

func TestPlanEndpoint(t *testing.T) {
	ts := newTestServer(t)
	req := PlanRequest{
		M:     3,
		Model: CostModelDTO{Mu: 1, Lambda: 2},
		Events: []multi.Event{
			{Item: "video", Server: 2, Time: 0.5},
			{Item: "profile", Server: 1, Time: 0.9},
			{Item: "video", Server: 2, Time: 1.4},
			{Item: "video", Server: 3, Time: 2.0},
			{Item: "profile", Server: 1, Time: 2.5},
		},
		Online: "sc",
	}
	var out PlanResponse
	resp := post(t, ts.URL+"/v1/plan", req, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Items) != 2 {
		t.Fatalf("items = %+v", out.Items)
	}
	sum := 0.0
	for _, it := range out.Items {
		sum += it.Planned
		if it.Online < it.Planned {
			t.Errorf("%s: online %v below planned optimum %v", it.Item, it.Online, it.Planned)
		}
	}
	if math.Abs(sum-out.PlannedTotal) > 1e-9 {
		t.Errorf("items sum %v != total %v", sum, out.PlannedTotal)
	}
	if out.OnlineTotal > 3*out.PlannedTotal {
		t.Errorf("composed bound broken: %v > 3*%v", out.OnlineTotal, out.PlannedTotal)
	}
	// Bad catalog.
	bad := req
	bad.M = 0
	if resp := post(t, ts.URL+"/v1/plan", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("m=0: status %d", resp.StatusCode)
	}
	// Unknown policy.
	bad = req
	bad.Online = "nope"
	if resp := post(t, ts.URL+"/v1/plan", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad policy: status %d", resp.StatusCode)
	}
}

func TestPoliciesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/policies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	if want := datacache.PolicyKinds(); !reflect.DeepEqual(names, want) {
		t.Errorf("policies = %v, want the spec kinds %v", names, want)
	}
}

func TestSpecAndMetrics(t *testing.T) {
	ts := newTestServer(t)
	// Hit a couple of routes first.
	post(t, ts.URL+"/v1/optimize", fig6Body(), nil)
	post(t, ts.URL+"/v1/optimize", fig6Body(), nil)

	resp, err := http.Get(ts.URL + "/v1/spec")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]string
	json.NewDecoder(resp.Body).Decode(&spec)
	resp.Body.Close()
	for _, route := range []string{"/v1/optimize", "/v1/session", "/v1/session/", "/metrics"} {
		if _, ok := spec[route]; !ok {
			t.Errorf("spec missing %s", route)
		}
	}
	// The retired /metricz alias and /v1/stream routes have no route of
	// their own.
	for _, route := range []string{"/metricz", "/v1/stream", "/v1/stream/"} {
		if _, ok := spec[route]; ok {
			t.Errorf("spec still lists the retired %s", route)
		}
	}
}

func TestHealthReportsVersion(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	json.NewDecoder(resp.Body).Decode(&body)
	if body["version"] != Version {
		t.Errorf("version = %q, want %q", body["version"], Version)
	}
}

// TestUnencodableReplyAnswersInternal: a cost that overflows to +Inf
// cannot be written as JSON. Every reply that would carry it, single
// serve, batch and state alike, answers 500 internal in the error
// envelope, never a 200 with an empty body.
func TestUnencodableReplyAnswersInternal(t *testing.T) {
	ts := newTestServer(t)
	cm := CostModelDTO{Mu: 10, Lambda: 1}
	var sess SessionState
	post(t, ts.URL+"/v1/session", SessionCreateRequest{M: 2, Origin: 1, Model: cm}, &sess)
	var pool PoolState
	post(t, ts.URL+"/v1/pool", PoolCreateRequest{M: 2, Origin: 1, Model: cm}, &pool)
	for _, c := range []struct {
		name, path string
		body       interface{} // nil: GET
	}{
		{"session serve", "/v1/session/" + sess.ID + "/request", StreamAppendRequest{Server: 2, Time: 1e308}},
		{"session batch", "/v1/session/" + sess.ID + "/requests",
			SessionBatchRequest{Requests: []BatchRequestItem{{Server: 1, T: 1.2e308}}}},
		{"session state", "/v1/session/" + sess.ID, nil},
		{"pool serve", "/v1/pool/" + pool.ID + "/request", PoolServeRequest{Item: "a", Server: 2, T: 1e308}},
		{"pool batch", "/v1/pool/" + pool.ID + "/requests",
			PoolBatchRequestBody{Requests: []PoolServeRequest{{Item: "a", Server: 1, T: 1.2e308}}}},
		{"pool state", "/v1/pool/" + pool.ID, nil},
	} {
		var resp *http.Response
		var err error
		if c.body == nil {
			resp, err = http.Get(ts.URL + c.path)
		} else {
			buf, _ := json.Marshal(c.body)
			resp, err = http.Post(ts.URL+c.path, "application/json", bytes.NewReader(buf))
		}
		if err != nil {
			t.Fatal(err)
		}
		var envelope ErrorBody
		decErr := json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || decErr != nil || envelope.Error.Code != CodeInternal ||
			!strings.Contains(envelope.Error.Message, "json: unsupported value") {
			t.Errorf("%s: status %d, envelope %+v (decode error %v), want 500 internal naming the value",
				c.name, resp.StatusCode, envelope, decErr)
		}
	}
}
