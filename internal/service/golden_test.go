package service

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datacache/internal/model"
)

// update rewrites golden files instead of comparing against them:
//
//	go test ./internal/service -run TestExpositionGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenFamilies lists the families TestExpositionGolden keeps besides
// every family whose series carry a session or pool label.
var goldenFamilies = map[string]bool{
	"dc_alert_state":             true,
	"dc_alert_transitions_total": true,
	"dc_engine_events_total":     true,
}

// entryExposition keeps the blocks of a Prometheus text exposition that
// describe live sessions and pools: every family whose samples carry a
// session or pool label, plus goldenFamilies. Latency, HTTP and
// process families depend on timing and stay out.
func entryExposition(text string) string {
	var out strings.Builder
	var block []string
	flush := func() {
		if len(block) == 0 {
			return
		}
		keep := false
		for _, line := range block {
			if strings.HasPrefix(line, "# TYPE ") && goldenFamilies[strings.Fields(line)[2]] {
				keep = true
			}
			if !strings.HasPrefix(line, "#") &&
				(strings.Contains(line, `{session="`) || strings.Contains(line, `{pool="`)) {
				keep = true
			}
		}
		if keep {
			for _, line := range block {
				out.WriteString(line)
				out.WriteByte('\n')
			}
		}
		block = block[:0]
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		// A family's block opens with its HELP line (or TYPE when it has
		// no help text).
		if strings.HasPrefix(line, "# HELP ") ||
			(strings.HasPrefix(line, "# TYPE ") && (len(block) == 0 || !strings.HasPrefix(block[len(block)-1], "# HELP "))) {
			flush()
		}
		block = append(block, line)
	}
	flush()
	return out.String()
}

// TestExpositionGolden pins the per-session and per-pool part of
// /metrics byte for byte against testdata/exposition.golden, after a
// fixed script: an SC session whose short SLO window drives its
// theorem3_ratio alert through transitions, a session with two shadows
// fed by batches, a hybrid session fed by NDJSON, a two-tenant pool whose
// MaxItems bound forces evictions and that runs shadows, and one session
// and one pool closed before the scrape, whose series must be gone.
func TestExpositionGolden(t *testing.T) {
	srv := httptest.NewServer(New(WithSLOWindow(4)))
	defer srv.Close()
	base := srv.URL

	createSession := func(req SessionCreateRequest) string {
		var st SessionState
		if resp := post(t, base+"/v1/session", req, &st); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create session: status %d", resp.StatusCode)
		}
		return st.ID
	}
	serve := func(id string, server model.ServerID, at float64) {
		if resp := post(t, base+"/v1/session/"+id+"/request",
			StreamAppendRequest{Server: server, Time: at}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("serve %s: status %d", id, resp.StatusCode)
		}
	}
	del := func(path string) {
		req, _ := http.NewRequest(http.MethodDelete, base+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s: status %d", path, resp.StatusCode)
		}
	}

	// SC session: one quick visit to each of five servers, then rapid
	// requests on server 1. SC keeps all five copies for Δt = λ/μ = 2, so
	// over a 4-request window it pays about five times the prefix
	// optimum's growth and theorem3_ratio fires; once the copies expire
	// the window prices at 1 and the alert resolves.
	scID := createSession(SessionCreateRequest{M: 5, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2}})
	now := 0.0
	for srv := 1; srv <= 5; srv++ {
		now += 0.1
		serve(scID, model.ServerID(srv), now)
	}
	for i := 0; i < 20; i++ {
		now += 0.05
		serve(scID, 1, now)
	}
	for i := 0; i < 8; i++ {
		now += 0.5
		serve(scID, 1, now)
	}

	// Shadowed session, served in two JSON batches.
	shID := createSession(SessionCreateRequest{
		M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2},
		Shadows: []string{"migrate", "ttl:window=0.5"},
	})
	var batch SessionBatchRequest
	for i := 0; i < 10; i++ {
		batch.Requests = append(batch.Requests, BatchRequestItem{Server: model.ServerID(1 + i%3), T: float64(i+1) * 0.7})
	}
	post(t, base+"/v1/session/"+shID+"/requests", SessionBatchRequest{Requests: batch.Requests[:4]}, nil)
	post(t, base+"/v1/session/"+shID+"/requests", SessionBatchRequest{Requests: batch.Requests[4:]}, nil)

	// Hybrid session on a predictable cycle, served as NDJSON.
	hyID := createSession(SessionCreateRequest{
		M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 2}, Policy: "hybrid:horizon=4,order=1",
	})
	var nd bytes.Buffer
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&nd, "{\"server\":%d,\"t\":%g}\n", 1+i%3, float64(i+1)*0.5)
	}
	resp, err := http.Post(base+"/v1/session/"+hyID+"/requests", "application/x-ndjson", &nd)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Two-tenant pool over three items with MaxItems 2 and two shadows:
	// single serves, then one mixed batch.
	var pool PoolState
	post(t, base+"/v1/pool", PoolCreateRequest{
		M: 3, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1}, MaxItems: 2,
		Shadows: []string{"replicate", "ttl:window=0.5"},
	}, &pool)
	for i, item := range []string{"x", "y", "z", "x"} {
		post(t, base+"/v1/pool/"+pool.ID+"/request", PoolServeRequest{
			Tenant: "acme", Item: item, Server: model.ServerID(1 + i%3), T: float64(i+1) * 0.6,
		}, nil)
	}
	var pb PoolBatchRequestBody
	for i, item := range []string{"y", "z", "x", "y", "z", "y"} {
		pb.Requests = append(pb.Requests, PoolServeRequest{
			Tenant: "globex", Item: item, Server: model.ServerID(3 - i%3), T: 3 + float64(i)*0.4,
		})
	}
	post(t, base+"/v1/pool/"+pool.ID+"/requests", pb, nil)

	// One session and one pool that close before the scrape.
	goneID := createSession(SessionCreateRequest{
		M: 2, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1}, Shadows: []string{"migrate"},
	})
	for i := 0; i < 5; i++ {
		serve(goneID, model.ServerID(1+i%2), float64(i+1)*0.3)
	}
	del("/v1/session/" + goneID)
	var gonePool PoolState
	post(t, base+"/v1/pool", PoolCreateRequest{
		M: 2, Origin: 1, Model: CostModelDTO{Mu: 1, Lambda: 1}, MaxItems: 1,
		Shadows: []string{"migrate"},
	}, &gonePool)
	for i, item := range []string{"a", "b", "a"} {
		post(t, base+"/v1/pool/"+gonePool.ID+"/request", PoolServeRequest{
			Tenant: "initech", Item: item, Server: model.ServerID(1 + i%2), T: float64(i+1) * 0.5,
		}, nil)
	}
	del("/v1/pool/" + gonePool.ID)

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := entryExposition(string(body))

	// The script must exercise what the golden file is meant to pin.
	for _, want := range []string{
		`dc_alert_transitions_total{alert="theorem3_ratio",to="firing"}`,
		`dc_pool_evictions_total{pool="` + pool.ID + `"}`,
		`dc_planner_plans{session="` + hyID + `"}`,
		`dc_shadow_best_policy{session="` + shID + `",policy="ttl:window=0.5"}`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("script did not produce %s", want)
		}
	}
	for _, gone := range []string{`session="` + goneID + `"`, `pool="` + gonePool.ID + `"`} {
		if strings.Contains(got, gone) {
			t.Errorf("a closed entry's series survived: %s", gone)
		}
	}

	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("exposition differs from %s at line %d:\n got: %q\nwant: %q", golden, i+1, g, w)
		}
	}
}
