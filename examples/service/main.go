// Service: drive the HTTP planning service end to end as a client — start
// it in-process, generate a workload through the API, optimize it, simulate
// the online policy against it, and serve requests through a live session
// whose every reply carries the online cost and the optimum so far.
//
//	go run ./examples/service
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"datacache/internal/model"
	"datacache/internal/service"
)

func main() {
	ts := httptest.NewServer(service.New())
	defer ts.Close()
	fmt.Println("planning service up at", ts.URL)

	// 1. Generate a sticky workload through the API.
	var seq model.Sequence
	post(ts.URL+"/v1/generate", map[string]interface{}{
		"workload": "markov", "m": 6, "n": 300, "seed": 11, "gap": 0.8,
	}, &seq)
	fmt.Printf("generated %d requests over %d servers\n", seq.N(), seq.M)

	// 2. Optimize off-line.
	var opt service.OptimizeResponse
	post(ts.URL+"/v1/optimize", service.OptimizeRequest{
		Sequence: &seq,
		Model:    service.CostModelDTO{Mu: 1, Lambda: 2},
	}, &opt)
	fmt.Printf("off-line optimum %.2f (bounds [%.2f, %.2f], single-copy %.2f)\n",
		opt.Cost, opt.LowerBound, opt.UpperBound, opt.SingleCopy)

	// 3. Simulate Speculative Caching online.
	var sim service.SimulateResponse
	post(ts.URL+"/v1/simulate", service.SimulateRequest{
		Sequence: &seq,
		Model:    service.CostModelDTO{Mu: 1, Lambda: 2},
		Policy:   "sc",
	}, &sim)
	fmt.Printf("online %s: cost %.2f, ratio %.3f (bound 3)\n", sim.Policy, sim.Cost, sim.Ratio)

	// 4. Serve the first 10 requests through a live session.
	var st service.SessionState
	post(ts.URL+"/v1/session", service.SessionCreateRequest{
		M: seq.M, Origin: 1, Model: service.CostModelDTO{Mu: 1, Lambda: 2},
	}, &st)
	for i := 0; i < 10 && i < seq.N(); i++ {
		var d service.SessionDecision
		post(ts.URL+"/v1/session/"+st.ID+"/request", service.StreamAppendRequest{
			Server: seq.Requests[i].Server,
			Time:   seq.Requests[i].Time,
		}, &d)
		fmt.Printf("  after request %2d: online cost %.3f, optimum so far %.3f\n", d.N, d.Cost, d.Optimal)
	}
}

func post(url string, body, out interface{}) {
	buf, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("POST %s: %d %v", url, resp.StatusCode, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatal(err)
		}
	}
}
