package datacache_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"datacache"
	"datacache/internal/offline"
	"datacache/internal/recorder"
	"datacache/internal/service"
	"datacache/internal/trace"
)

// buildTools compiles the CLI binaries once per test run.
func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI e2e in short mode")
	}
	dir := t.TempDir()
	out := map[string]string{}
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
		out[name] = bin
	}
	return out
}

func run(t *testing.T, bin string, stdin []byte, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s", bin, args, err, outBuf.String(), errBuf.String())
	}
	return outBuf.String(), errBuf.String()
}

// TestCLIPipeline drives the documented workflow end to end:
// generate -> optimize -> simulate, through real process boundaries.
func TestCLIPipeline(t *testing.T) {
	bins := buildTools(t, "dcgen", "dcopt", "dcsim")
	traceFile := filepath.Join(t.TempDir(), "trace.csv")
	_, genErr := run(t, bins["dcgen"], nil,
		"-workload", "markov", "-m", "5", "-n", "120", "-seed", "9", "-o", traceFile)
	if !strings.Contains(genErr, "wrote 120 requests over 5 servers") {
		t.Fatalf("dcgen stderr: %q", genErr)
	}

	optOut, _ := run(t, bins["dcopt"], nil, "-in", traceFile, "-lambda", "2", "-schedule", "-vectors")
	for _, want := range []string{"optimal cost C(n):", "caching cost:", "H(s", "i=1"} {
		if !strings.Contains(optOut, want) {
			t.Errorf("dcopt output missing %q:\n%s", want, optOut)
		}
	}

	simOut, _ := run(t, bins["dcsim"], nil, "-in", traceFile, "-lambda", "2", "-policy", "sc", "-metrics")
	for _, want := range []string{"policy: sc over", "ratio:", "utilization"} {
		if !strings.Contains(simOut, want) {
			t.Errorf("dcsim output missing %q:\n%s", want, simOut)
		}
	}

	cmpOut, _ := run(t, bins["dcsim"], nil, "-in", traceFile, "-lambda", "2", "-compare")
	for _, want := range []string{"OPT (offline)", "sc ", "ttl:window=0.5", "adaptive", "replicate", "cost/OPT"} {
		if !strings.Contains(cmpOut, want) {
			t.Errorf("dcsim -compare missing %q:\n%s", want, cmpOut)
		}
	}

	// -policy takes any spec, parameters included, and -trace dumps the
	// decision stream for every kind.
	for _, spec := range []string{"sc:epoch=4", "ttl:window=0.5", "adaptive", "migrate", "replicate", "hybrid:horizon=8,order=2"} {
		out, _ := run(t, bins["dcsim"], nil, "-in", traceFile, "-lambda", "2", "-policy", spec, "-trace")
		for _, want := range []string{"policy: " + spec + " over", "decision trace (", "request"} {
			if !strings.Contains(out, want) {
				t.Errorf("dcsim -policy %s -trace missing %q:\n%s", spec, want, out)
			}
		}
	}
	cmd := exec.Command(bins["dcsim"], "-in", traceFile, "-policy", "ttl:window=1,epoch=3")
	if out, err := cmd.CombinedOutput(); err == nil || !strings.Contains(string(out), "does not take epoch") {
		t.Errorf("dcsim accepted a key ttl ignores: err %v\n%s", err, out)
	}
}

// TestCLIStdinRoundTrip checks the pipe form: dcgen | dcopt.
func TestCLIStdinRoundTrip(t *testing.T) {
	bins := buildTools(t, "dcgen", "dcopt")
	genOut, _ := run(t, bins["dcgen"], nil, "-workload", "zipf", "-m", "4", "-n", "50", "-seed", "3")
	optOut, _ := run(t, bins["dcopt"], []byte(genOut), "-algo", "naive")
	if !strings.Contains(optOut, "optimal cost C(n):") {
		t.Fatalf("piped dcopt output:\n%s", optOut)
	}
	// The subset oracle must agree through the same pipe on a small trace.
	genSmall, _ := run(t, bins["dcgen"], nil, "-workload", "uniform", "-m", "3", "-n", "10", "-seed", "3")
	fastOut, _ := run(t, bins["dcopt"], []byte(genSmall), "-algo", "fast")
	oracleOut, _ := run(t, bins["dcopt"], []byte(genSmall), "-algo", "subset")
	fastCost := extractAfter(t, fastOut, "optimal cost C(n): ")
	oracleCost := extractAfter(t, oracleOut, "optimal cost (subset oracle): ")
	if fastCost != oracleCost {
		t.Errorf("fast %q != oracle %q through the CLI", fastCost, oracleCost)
	}
}

// TestCLIDcbenchGoldens spot-checks the experiment harness binary.
func TestCLIDcbenchGoldens(t *testing.T) {
	bins := buildTools(t, "dcbench")
	out, _ := run(t, bins["dcbench"], nil, "fig6")
	for _, want := range []string{"8.9", "9.2", "paper C", "space-time diagram"} {
		if !strings.Contains(out, want) {
			t.Errorf("dcbench fig6 missing %q:\n%s", want, out)
		}
	}
	out2, _ := run(t, bins["dcbench"], nil, "fig2")
	if !strings.Contains(out2, "7.2") {
		t.Errorf("dcbench fig2 missing the golden total:\n%s", out2)
	}
}

// TestCLIDcplanCatalog drives the catalog planner binary over an inline
// event trace.
func TestCLIDcplanCatalog(t *testing.T) {
	bins := buildTools(t, "dcplan")
	trace := "#datacache-events m=3\n" +
		"video,2,0.5\nprofile,1,0.9\nvideo,2,1.4\nvideo,3,2.0\nprofile,1,2.5\n"
	out, _ := run(t, bins["dcplan"], []byte(trace), "-lambda", "2", "-online", "sc")
	for _, want := range []string{"video", "profile", "TOTAL", "composed guarantee serve <= 3*plan holds: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("dcplan output missing %q:\n%s", want, out)
		}
	}
	// -online takes the same specs every other surface does.
	out2, _ := run(t, bins["dcplan"], []byte(trace), "-lambda", "2", "-online", "sc:window=1,epoch=2")
	if !strings.Contains(out2, "online/planned") {
		t.Errorf("dcplan -online with a parameterized spec:\n%s", out2)
	}
}

// isHex32 reports whether s is exactly 32 lowercase hex chars (a trace id).
func isHex32(s string) bool {
	if len(s) != 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

func extractAfter(t *testing.T, s, prefix string) string {
	t.Helper()
	i := strings.Index(s, prefix)
	if i < 0 {
		t.Fatalf("missing %q in %q", prefix, s)
	}
	rest := s[i+len(prefix):]
	if j := strings.IndexAny(rest, " \n"); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// TestCLIVersionFlags checks every binary answers -version with its name
// and the service version, so deployed fleets can be audited.
func TestCLIVersionFlags(t *testing.T) {
	names := []string{"dcbench", "dcgen", "dcload", "dcopt", "dcplan", "dcreplay", "dcserved", "dcsim", "dctop"}
	bins := buildTools(t, names...)
	for _, name := range names {
		out, _ := run(t, bins[name], nil, "-version")
		want := name + " " + service.Version + "\n"
		if out != want {
			t.Errorf("%s -version = %q, want %q", name, out, want)
		}
	}
}

// TestCLIDcloadSmoke runs the load generator end to end against an
// in-process dcserved: a deterministic zipf run through the batch
// endpoint must finish with zero errors, every session under the
// Theorem-3 ratio bound, and a latency report both on stdout and in the
// -out file.
func TestCLIDcloadSmoke(t *testing.T) {
	bins := buildTools(t, "dcload")
	srv := httptest.NewServer(service.New())
	defer srv.Close()

	dir := t.TempDir()
	reportFile := filepath.Join(dir, "report.txt")
	jsonFile := filepath.Join(dir, "report.json")
	out, _ := run(t, bins["dcload"], nil,
		"-addr", srv.URL, "-n", "600", "-c", "2", "-batch", "32",
		"-workload", "zipf", "-m", "8", "-seed", "1",
		"-max-ratio", "3", "-out", reportFile, "-keep-sessions",
		"-history-report", "-report-json", jsonFile)
	for _, want := range []string{
		"dcload report",
		"workload      zipf(m=8,s=1.2)  batch=32",
		"served        600 requests",
		"errors        4xx=0 5xx=0 transport=0",
		"final ratios  worst",
		"latency       mean",
		"slowest traces (GET /v1/traces/{id}):",
		"highest-regret traces (GET /v1/traces/{id}):",
		"history (server-side trajectories",
		`dc_session_windowed_ratio{session="`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dcload output missing %q:\n%s", want, out)
		}
	}
	// The JSON report always carries the alerts block, and a steady zipf
	// run must not trip the anomaly detector — zero firing transitions.
	var jr struct {
		Alerts []struct {
			Rule string `json:"rule"`
			To   string `json:"to"`
		} `json:"alerts"`
		History []struct {
			Series string `json:"series"`
		} `json:"history"`
	}
	raw, err := os.ReadFile(jsonFile)
	if err != nil {
		t.Fatalf("report json: %v", err)
	}
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatalf("report json: %v", err)
	}
	if !strings.Contains(string(raw), `"alerts"`) {
		t.Error("report json missing the alerts block")
	}
	for _, a := range jr.Alerts {
		if a.Rule == "metric_anomaly" && a.To == "firing" {
			t.Errorf("spurious metric_anomaly firing on a steady workload: %+v", jr.Alerts)
		}
	}
	if len(jr.History) == 0 {
		t.Error("report json missing history series despite -history-report")
	}
	// The reported trace ids must resolve on the server.
	checked := 0
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if len(line) < 32 || !isHex32(line[:32]) {
			continue
		}
		checked++
		resp, err := http.Get(srv.URL + "/v1/traces/" + line[:32])
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("reported trace %s not retained (status %d)", line[:32], resp.StatusCode)
		}
	}
	if checked == 0 {
		t.Error("report printed no trace ids to check")
	}
	written, err := os.ReadFile(reportFile)
	if err != nil {
		t.Fatalf("report file: %v", err)
	}
	if string(written) != out {
		t.Errorf("-out file differs from stdout:\n%s", written)
	}

	// The single-request path (-batch 1) and NDJSON bodies work too.
	out2, _ := run(t, bins["dcload"], nil,
		"-addr", srv.URL, "-n", "40", "-c", "1", "-batch", "1",
		"-workload", "uniform", "-m", "4", "-seed", "2", "-max-ratio", "3")
	if !strings.Contains(out2, "errors        4xx=0 5xx=0 transport=0") {
		t.Errorf("dcload -batch 1 reported errors:\n%s", out2)
	}
	out3, _ := run(t, bins["dcload"], nil,
		"-addr", srv.URL, "-n", "128", "-c", "1", "-batch", "64", "-ndjson",
		"-workload", "adversarial", "-m", "2", "-seed", "3")
	if !strings.Contains(out3, "errors        4xx=0 5xx=0 transport=0") {
		t.Errorf("dcload -ndjson reported errors:\n%s", out3)
	}

	// Pool mode: one shared multi-item pool, tenant-per-worker, skewed
	// keyspace — the report switches to pool standings and tenant ratios,
	// and -max-ratio gates on the worst tenant (exit 0 here means it held).
	out4, _ := run(t, bins["dcload"], nil,
		"-addr", srv.URL, "-n", "800", "-c", "2", "-batch", "32",
		"-workload", "zipf", "-m", "8", "-seed", "1",
		"-items", "64", "-item-dist", "zipf", "-max-ratio", "3")
	for _, want := range []string{
		"workload      zipf(m=8,s=1.2)/pool  batch=32",
		"served        800 requests",
		"errors        4xx=0 5xx=0 transport=0",
		"pool          items=",
		"tenant ratios worst",
		"w0",
		"w1",
	} {
		if !strings.Contains(out4, want) {
			t.Errorf("dcload pool mode missing %q:\n%s", want, out4)
		}
	}
	// Bounded engine state: evictions happen and the run still holds.
	out5, _ := run(t, bins["dcload"], nil,
		"-addr", srv.URL, "-n", "400", "-c", "1", "-batch", "16", "-ndjson",
		"-workload", "uniform", "-m", "4", "-seed", "2",
		"-items", "32", "-item-dist", "uniform", "-max-items", "8", "-max-ratio", "3")
	if !strings.Contains(out5, "errors        4xx=0 5xx=0 transport=0") {
		t.Errorf("dcload bounded pool mode reported errors:\n%s", out5)
	}
	if !strings.Contains(out5, "live=8 ") {
		t.Errorf("dcload -max-items 8 did not bound live engine state:\n%s", out5)
	}
}

// TestCLIDctopFrame runs dctop -once against an in-process dcserved
// carrying a session mid-excursion, and checks the frame shows the three
// panels: the ratio sparkline, the per-server cost map and the firing
// Theorem-3 alert.
func TestCLIDctopFrame(t *testing.T) {
	bins := buildTools(t, "dctop")

	srv := httptest.NewServer(service.New(service.WithSLOWindow(16)))
	defer srv.Close()

	body := func(v interface{}) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	postJSON := func(url string, payload, out interface{}) {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(body(payload)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, msg)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}

	var state service.SessionState
	postJSON(srv.URL+"/v1/session", map[string]interface{}{
		"m": 2, "origin": 1, "model": map[string]float64{"mu": 1, "lambda": 2}, "policy": "migrate",
	}, &state)
	now := 0.0
	for i := 0; i < 24; i++ { // good prefix
		now += 1
		postJSON(srv.URL+"/v1/session/"+state.ID+"/request",
			map[string]interface{}{"server": 1, "time": now}, nil)
	}
	for i := 0; i < 16; i++ { // ping-pong excursion: fires theorem3_ratio
		now += 0.01
		postJSON(srv.URL+"/v1/session/"+state.ID+"/request",
			map[string]interface{}{"server": 1 + i%2, "time": now}, nil)
	}

	out, _ := run(t, bins["dctop"], nil, "-addr", srv.URL, "-once")
	if strings.Contains(out, "\x1b[") {
		t.Errorf("-once frame contains ANSI control sequences:\n%q", out)
	}
	if !strings.Contains(out, "session "+state.ID) {
		t.Errorf("frame did not auto-pick session %s:\n%s", state.ID, out)
	}
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Errorf("frame has no sparkline runes:\n%s", out)
	}
	for _, want := range []string{"servers:", "srv", "caching", "transfer", "theorem3_ratio", "firing", "alerts: 1 firing", "ratio  windowed"} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// The history-backed panels: the decision-latency p99 line (fed by
	// the embedded tsdb's quantile series — the lazy sampling pass means
	// even a one-shot frame has at least one point) and the alert
	// transitions the server annotated onto the timeline.
	for _, want := range []string{"decision p99", "recent transitions:", "-> firing"} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing history panel %q:\n%s", want, out)
		}
	}
	// Both servers were touched by the ping-pong, so both rows render.
	for _, row := range []string{"\n  1    ", "\n  2    "} {
		if !strings.Contains(out, row) {
			t.Errorf("frame missing server row %q:\n%s", row, out)
		}
	}
	// The slow-traces panel lists the session's retained traces with a
	// resolvable id, a duration, a regret and a decision column.
	if !strings.Contains(out, "slow traces (by regret):") {
		t.Fatalf("frame missing the slow-traces panel:\n%s", out)
	}
	panel := out[strings.Index(out, "slow traces (by regret):"):]
	lines := strings.Split(panel, "\n")
	if len(lines) < 3 {
		t.Fatalf("slow-traces panel too short:\n%s", panel)
	}
	if !strings.Contains(lines[1], "trace id") || !strings.Contains(lines[1], "regret") {
		t.Errorf("slow-traces header = %q", lines[1])
	}
	first := strings.TrimSpace(lines[2])
	if len(first) < 32 || !isHex32(first[:32]) {
		t.Fatalf("slow-traces row has no trace id: %q", first)
	}
	resp, err := http.Get(srv.URL + "/v1/traces/" + first[:32])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("panel trace %s not retained (status %d)", first[:32], resp.StatusCode)
	}
	if !strings.Contains(first, "ms") {
		t.Errorf("slow-traces row missing duration: %q", first)
	}
	// No pool exists yet, so no top-items panel.
	if strings.Contains(out, "top items") {
		t.Errorf("frame has a top-items panel without a live pool:\n%s", out)
	}

	// Open a multi-item pool and serve a few keys; the next frame must
	// auto-pick it and append the top-items panel (by cost and by regret)
	// with the tenant rollups.
	var poolState service.PoolState
	postJSON(srv.URL+"/v1/pool", map[string]interface{}{
		"m": 3, "origin": 1, "model": map[string]float64{"mu": 1, "lambda": 2},
	}, &poolState)
	postJSON(srv.URL+"/v1/pool/"+poolState.ID+"/requests", map[string]interface{}{
		"requests": []map[string]interface{}{
			{"tenant": "acme", "item": "video", "server": 2, "t": 0.5},
			{"tenant": "acme", "item": "video", "server": 3, "t": 1.1},
			{"tenant": "acme", "item": "profile", "server": 2, "t": 0.9},
			{"tenant": "beta", "item": "video", "server": 3, "t": 0.7},
		},
	}, nil)

	// The embedded server samples history lazily, at most once per
	// interval (1s); wait one out so the next frame's query sees the
	// pool's series.
	time.Sleep(1100 * time.Millisecond)

	out2, _ := run(t, bins["dctop"], nil, "-addr", srv.URL, "-once")
	for _, want := range []string{
		"pool " + poolState.ID,
		"\n  /opt ", // pool cost-over-optimum history sparkline
		"top items by cost:",
		"top items by regret:",
		"acme/video",
		"acme/profile",
		"beta/video",
		"tenants:",
	} {
		if !strings.Contains(out2, want) {
			t.Errorf("pool frame missing %q:\n%s", want, out2)
		}
	}
}

// TestCLIDcreplaySmoke records a serving run over HTTP through a
// recording server, then verifies it with the dcreplay binary: human
// output, JSON output, the -max-ratio gate, and the exit-2 divergence
// path on a corrupted recording.
func TestCLIDcreplaySmoke(t *testing.T) {
	bins := buildTools(t, "dcreplay", "dcopt")
	dir := t.TempDir()
	w, err := recorder.NewWriter(recorder.Options{Dir: dir, Source: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.New(service.WithRecorder(w)))
	defer srv.Close()

	var st service.SessionState
	resp, err := http.Post(srv.URL+"/v1/session", "application/json",
		strings.NewReader(`{"m": 4, "origin": 1, "model": {"mu": 1, "lambda": 2}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var reqs bytes.Buffer
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&reqs, `{"server": %d, "t": %d.5}`+"\n", i%4+1, i)
	}
	resp2, err := http.Post(srv.URL+"/v1/session/"+st.ID+"/requests",
		"application/x-ndjson", bytes.NewReader(reqs.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	out, _ := run(t, bins["dcreplay"], nil, "-in", dir, "-max-ratio", "3")
	for _, want := range []string{
		"replayed 200 records, 1 streams",
		"fidelity OK (bit-for-bit)",
		"hindsight: live",
		"rolling window",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dcreplay output missing %q:\n%s", want, out)
		}
	}

	var rep struct {
		BitwiseOK bool    `json:"bitwiseOK"`
		Records   int     `json:"records"`
		Ratio     float64 `json:"ratio"`
	}
	jsonOut, _ := run(t, bins["dcreplay"], nil, "-in", dir, "-json")
	if err := json.Unmarshal([]byte(jsonOut), &rep); err != nil {
		t.Fatalf("dcreplay -json: %v\n%s", err, jsonOut)
	}
	if !rep.BitwiseOK || rep.Records != 200 || rep.Ratio < 1 || rep.Ratio > 3 {
		t.Fatalf("dcreplay -json report: %+v", rep)
	}

	// -export-trace reconstructs the workload through the canonical
	// sequence serializer; the exported file must feed dcopt directly.
	expDir := filepath.Join(t.TempDir(), "traces")
	_, expErr := run(t, bins["dcreplay"], nil, "-in", dir, "-export-trace", expDir)
	if !strings.Contains(expErr, "exported 1 workload trace(s) to "+expDir) {
		t.Errorf("dcreplay export stderr: %q", expErr)
	}
	expFile := filepath.Join(expDir, st.ID+".csv")
	ef, err := os.Open(expFile)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := trace.ReadSequence(ef, "csv")
	ef.Close()
	if err != nil {
		t.Fatal(err)
	}
	if seq.M != 4 || len(seq.Requests) != 200 {
		t.Fatalf("exported trace: m=%d n=%d", seq.M, len(seq.Requests))
	}
	optOut, _ := run(t, bins["dcopt"], nil, "-in", expFile, "-lambda", "2")
	if !strings.Contains(optOut, "optimal cost C(n):") {
		t.Errorf("dcopt on exported trace:\n%s", optOut)
	}

	// An impossible ratio bound must exit 3.
	cmd := exec.Command(bins["dcreplay"], "-in", dir, "-max-ratio", "1.0000001")
	if err := cmd.Run(); err == nil {
		t.Fatal("dcreplay accepted a breached -max-ratio")
	} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 {
		t.Fatalf("dcreplay ratio breach: %v", err)
	}

	// Corrupting a serve record's cost byte must fail bitwise (exit 2).
	files, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no recording files: %v", err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.wal")
	// Flipping a payload byte breaks the frame CRC (torn tail). Instead,
	// rewrite the recording with one cost altered, preserving framing.
	rec, err := recorder.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rec.Records {
		if rec.Records[i].Kind == recorder.KindServe {
			rec.Records[i].Cost += 0.5
			break
		}
	}
	bf, err := os.Create(bad)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := recorder.NewEncoder(bf, rec.Mode, "e2e-corrupt")
	if err != nil {
		t.Fatal(err)
	}
	for i := range rec.Records {
		if err := enc.Encode(&rec.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	cmd2 := exec.Command(bins["dcreplay"], "-in", bad)
	if err := cmd2.Run(); err == nil {
		t.Fatal("dcreplay verified a tampered recording")
	} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("dcreplay tampered recording: %v", err)
	}
}

// TestCLIDcloadRecordReplay is the record-in-prod, replay-for-hindsight
// loop across real process boundaries: dcload -record downloads every
// session's recording from a recording server, dcreplay verifies the
// downloaded set bit-for-bit and scores it against the hindsight
// optimum, and -report-json emits the machine-readable artifact.
func TestCLIDcloadRecordReplay(t *testing.T) {
	bins := buildTools(t, "dcload", "dcreplay")
	w, err := recorder.NewWriter(recorder.Options{Dir: t.TempDir(), Source: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.New(service.WithRecorder(w)))
	defer srv.Close()
	defer w.Close()

	recDir := filepath.Join(t.TempDir(), "recordings")
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	out, _ := run(t, bins["dcload"], nil,
		"-addr", srv.URL, "-n", "400", "-c", "2", "-batch", "32",
		"-workload", "zipf", "-m", "8", "-seed", "5",
		"-record", recDir, "-report-json", jsonPath, "-max-ratio", "3")
	if !strings.Contains(out, "recordings    2 file(s) in "+recDir) {
		t.Errorf("dcload output missing the recordings line:\n%s", out)
	}

	var jr struct {
		Served     int      `json:"served"`
		WorstRatio float64  `json:"worstRatio"`
		Recordings []string `json:"recordings"`
		Errs5xx    int      `json:"errs5xx"`
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatalf("report JSON: %v\n%s", err, raw)
	}
	if jr.Served != 400 || jr.Errs5xx != 0 || len(jr.Recordings) != 2 {
		t.Fatalf("report JSON: %+v", jr)
	}
	if jr.WorstRatio <= 0 || jr.WorstRatio > 3 {
		t.Fatalf("worst ratio %v outside (0, 3]", jr.WorstRatio)
	}

	var rep struct {
		BitwiseOK bool    `json:"bitwiseOK"`
		Records   int     `json:"records"`
		Ratio     float64 `json:"ratio"`
		Sessions  []struct {
			Session string  `json:"session"`
			Ratio   float64 `json:"ratio"`
		} `json:"sessions"`
	}
	replayOut, _ := run(t, bins["dcreplay"], nil, "-in", recDir, "-json", "-max-ratio", "3")
	if err := json.Unmarshal([]byte(replayOut), &rep); err != nil {
		t.Fatalf("dcreplay -json: %v\n%s", err, replayOut)
	}
	if !rep.BitwiseOK || rep.Records != 400 || len(rep.Sessions) != 2 {
		t.Fatalf("replay of downloaded recordings: %+v", rep)
	}
	if rep.Ratio < 1 || rep.Ratio > 3 {
		t.Fatalf("hindsight ratio %v outside [1, 3]", rep.Ratio)
	}

	// A shadow list may carry the labels the tools print, commas inside
	// a spec included.
	var srep struct {
		ShadowPanel struct {
			Standings []struct {
				Policy string `json:"policy"`
				Live   bool   `json:"live"`
			} `json:"standings"`
		} `json:"shadowPanel"`
	}
	shadowOut, _ := run(t, bins["dcreplay"], nil, "-in", recDir, "-json",
		"-shadows", "hybrid:horizon=8,order=2,migrate")
	if err := json.Unmarshal([]byte(shadowOut), &srep); err != nil {
		t.Fatalf("dcreplay -shadows -json: %v\n%s", err, shadowOut)
	}
	var labels []string
	for _, row := range srep.ShadowPanel.Standings {
		labels = append(labels, row.Policy)
	}
	if want := []string{"sc", "hybrid:horizon=8,order=2", "migrate"}; !reflect.DeepEqual(labels, want) {
		t.Fatalf("replay shadow panel %q, want %q", labels, want)
	}

	// Pool mode: the single pool recording replays the same way.
	poolDir := filepath.Join(t.TempDir(), "pool-recordings")
	out2, _ := run(t, bins["dcload"], nil,
		"-addr", srv.URL, "-n", "300", "-c", "2", "-batch", "16",
		"-workload", "uniform", "-m", "4", "-seed", "6",
		"-items", "8", "-item-dist", "zipf",
		"-record", poolDir, "-max-ratio", "3")
	if !strings.Contains(out2, "recordings    1 file(s) in "+poolDir) {
		t.Errorf("dcload pool output missing the recordings line:\n%s", out2)
	}
	replayOut2, _ := run(t, bins["dcreplay"], nil, "-in", poolDir, "-json")
	var prep struct {
		BitwiseOK bool `json:"bitwiseOK"`
		Records   int  `json:"records"`
		Tenants   []struct {
			Tenant string  `json:"tenant"`
			Ratio  float64 `json:"ratio"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal([]byte(replayOut2), &prep); err != nil {
		t.Fatalf("dcreplay pool -json: %v\n%s", err, replayOut2)
	}
	if !prep.BitwiseOK || prep.Records != 300 || len(prep.Tenants) != 2 {
		t.Fatalf("pool replay: %+v", prep)
	}
}

// TestCLIDctopRecorderLine checks dctop surfaces the flight-recorder
// standing when the server records, and omits the line when it doesn't.
func TestCLIDctopRecorderLine(t *testing.T) {
	bins := buildTools(t, "dctop")
	w, err := recorder.NewWriter(recorder.Options{Dir: t.TempDir(), Source: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.New(service.WithRecorder(w)))
	defer srv.Close()
	defer w.Close()

	resp, err := http.Post(srv.URL+"/v1/session", "application/json",
		strings.NewReader(`{"m": 2, "origin": 1, "model": {"mu": 1, "lambda": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	out, _ := run(t, bins["dctop"], nil, "-addr", srv.URL, "-once")
	if !strings.Contains(out, "recorder binary:") {
		t.Errorf("dctop frame missing the recorder line:\n%s", out)
	}

	plain := httptest.NewServer(service.New())
	defer plain.Close()
	out2, _ := run(t, bins["dctop"], nil, "-addr", plain.URL, "-once")
	if strings.Contains(out2, "recorder ") {
		t.Errorf("dctop frame shows a recorder line without a recorder:\n%s", out2)
	}
}

// TestCLIDcservedSIGTERMClosesRecording serves Fig. 6 through a
// recording dcserved process and stops it with SIGTERM, as a service
// manager would. dcserved must exit 0 having closed its recording: all
// seven serves on disk, no torn tail, and a bitwise replay.
func TestCLIDcservedSIGTERMClosesRecording(t *testing.T) {
	bins := buildTools(t, "dcserved")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	recDir := filepath.Join(t.TempDir(), "rec")
	var stderr bytes.Buffer
	cmd := exec.Command(bins["dcserved"], "-addr", addr, "-record-dir", recDir, "-history-interval", "0")
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-exited
	})

	base := "http://" + addr
	for i := 0; ; i++ {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if i == 100 {
			t.Fatalf("dcserved never became healthy: %v\n%s", err, stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	post := func(path, body string, out any) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, msg)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}
	var created struct {
		ID string `json:"id"`
	}
	post("/v1/session", `{"m":4,"origin":1,"model":{"mu":1,"lambda":1}}`, &created)
	seq, _ := offline.Fig6Instance()
	for _, r := range seq.Requests {
		post("/v1/session/"+created.ID+"/request", fmt.Sprintf(`{"server":%d,"time":%v}`, r.Server, r.Time), nil)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err // for the cleanup
		if err != nil {
			t.Fatalf("dcserved exited with %v after SIGTERM, want status 0\n%s", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("dcserved still running 10s after SIGTERM\n%s", stderr.String())
	}

	recs, err := recorder.ReadPath(recDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Truncated || recs[0].ServeCount() != 7 {
		t.Fatalf("recording: %d file(s), truncated=%v, %d serves; want 1 clean file of 7", len(recs), recs[0].Truncated, recs[0].ServeCount())
	}
	rep, err := datacache.Replay(recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BitwiseOK || rep.Records != 7 {
		t.Fatalf("replay: bitwise=%v records=%d", rep.BitwiseOK, rep.Records)
	}
}
