package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"datacache"
	"datacache/internal/model"
	"datacache/internal/obs"
	"datacache/internal/obs/tsdb"
	"datacache/internal/recorder"
)

// perfSnapshot is the committed perf-trajectory record (BENCH_pr6.json
// and successors): one wall-clock measurement per serving-path hot loop,
// taken on whatever machine ran it — the point is the trajectory across
// PRs on the same CI hardware, not absolute numbers.
type perfSnapshot struct {
	Schema  string       `json:"schema"` // "dcbench-perf/v1"
	Go      string       `json:"go"`
	Arch    string       `json:"arch"`
	Seed    int64        `json:"seed"`
	Results []perfResult `json:"results"`
}

type perfResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Note        string  `json:"note,omitempty"`
}

// perfSweep times the serving hot paths: the single-item session loop
// (plain, with the flight recorder attached, and with shadow policies),
// the multi-item pool (unbounded, batch-grouped, and bounded with
// eviction churn) and the offline DP. Each loop serves the same seeded
// zipf traffic so numbers are comparable across runs, and each records
// its allocation rate alongside wall time.
func perfSweep(seed int64, n int) (*perfSnapshot, error) {
	const (
		m        = 16
		items    = 256
		batch    = 64
		maxItems = 64
	)
	snap := &perfSnapshot{
		Schema: "dcbench-perf/v1",
		Go:     runtime.Version(),
		Arch:   runtime.GOOS + "/" + runtime.GOARCH,
		Seed:   seed,
	}

	rng := rand.New(rand.NewSource(seed))
	zipfSrv := rand.NewZipf(rng, 1.2, 1, uint64(m-1))
	zipfItem := rand.NewZipf(rng, 1.2, 1, uint64(items-1))
	reqs := make([]datacache.PoolRequest, n)
	for i := range reqs {
		reqs[i] = datacache.PoolRequest{
			Item:   fmt.Sprintf("item-%d", zipfItem.Uint64()),
			Server: datacache.ServerID(1 + zipfSrv.Uint64()),
			Time:   float64(i+1) * 0.1,
		}
	}

	// timeLoopN runs f reps times and keeps the fastest repetition —
	// best-of-N suppresses scheduler noise where two loops are compared
	// against each other in the same sweep (the recorder-overhead gate).
	timeLoopN := func(name, note string, ops, reps int, f func() error) error {
		var best perfResult
		for rep := 0; rep < reps; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			if err := f(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			el := time.Since(start)
			runtime.ReadMemStats(&after)
			r := perfResult{
				Name:        name,
				N:           ops,
				NsPerOp:     float64(el.Nanoseconds()) / float64(ops),
				OpsPerSec:   float64(ops) / el.Seconds(),
				AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
				Note:        note,
			}
			if rep == 0 || r.NsPerOp < best.NsPerOp {
				best = r
			}
		}
		snap.Results = append(snap.Results, best)
		return nil
	}
	timeLoop := func(name, note string, ops int, f func() error) error {
		return timeLoopN(name, note, ops, 1, f)
	}

	// serveReps: the loops feeding the recorder- and sampler-overhead
	// gates run best-of-3 so a single noisy repetition can't fake a >5%
	// delta.
	const serveReps = 3

	if err := timeLoopN("session/serve", fmt.Sprintf("single item, m=%d, zipf servers", m), n, serveReps, func() error {
		s, err := datacache.NewSession(m, 1, datacache.Unit, nil)
		if err != nil {
			return err
		}
		for _, r := range reqs {
			if _, err := s.Serve(r.Server, r.Time); err != nil {
				return err
			}
		}
		_, err = s.Close()
		return err
	}); err != nil {
		return nil, err
	}

	recDir, err := os.MkdirTemp("", "dcbench-rec")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(recDir)
	if err := timeLoopN("session/serve_recorded", fmt.Sprintf("single item, m=%d, flight recorder attached (binary WAL, synchronous writer)", m), n, serveReps, func() error {
		w, err := recorder.NewWriter(recorder.Options{Dir: recDir, Source: "dcbench"})
		if err != nil {
			return err
		}
		s, err := datacache.NewSession(m, 1, datacache.Unit, &datacache.SessionOptions{Recorder: w, RecordSession: "bench"})
		if err != nil {
			return err
		}
		for _, r := range reqs {
			if _, err := s.Serve(r.Server, r.Time); err != nil {
				return err
			}
		}
		if _, err := s.Close(); err != nil {
			return err
		}
		return w.Close()
	}); err != nil {
		return nil, err
	}

	if err := timeLoopN("session/serve_sampled", fmt.Sprintf("single item, m=%d, per-serve metrics + live tsdb sampler at 1ms", m), n, serveReps, func() error {
		// The serving path as the service runs it under the metrics
		// history: every serve updates a counter, a gauge and a latency
		// histogram on a shared registry while a tsdb sampler walks that
		// registry concurrently — sampled here at 1ms, three orders of
		// magnitude hotter than the 1s production cadence, so the lock
		// contention the gate bounds is actually exercised within the
		// loop's short wall time.
		reg := obs.NewRegistry()
		servedC := reg.Counter("bench_requests_total", "requests served")
		ratioG := reg.Gauge("bench_windowed_ratio", "running competitive ratio")
		latH := reg.Histogram("bench_decision_seconds", "decision latency",
			[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2})
		store := tsdb.New(reg, tsdb.Options{Interval: time.Millisecond})
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					store.Sample()
				}
			}
		}()
		defer func() { close(done); wg.Wait() }()
		s, err := datacache.NewSession(m, 1, datacache.Unit, nil)
		if err != nil {
			return err
		}
		for _, r := range reqs {
			t0 := time.Now()
			dec, err := s.Serve(r.Server, r.Time)
			if err != nil {
				return err
			}
			servedC.Add(1)
			ratioG.Set(dec.Ratio)
			latH.Observe(time.Since(t0).Seconds())
		}
		_, err = s.Close()
		return err
	}); err != nil {
		return nil, err
	}

	if err := timeLoop("session/serve_shadow", fmt.Sprintf("single item, m=%d, 4 shadow policies in lockstep", m), n, func() error {
		shadows, err := datacache.WithShadowPolicies("ttl:window=1", "sc:epoch=16", "migrate", "replicate")
		if err != nil {
			return err
		}
		s, err := datacache.NewSession(m, 1, datacache.Unit, &datacache.SessionOptions{ShadowPolicies: shadows})
		if err != nil {
			return err
		}
		for _, r := range reqs {
			if _, err := s.Serve(r.Server, r.Time); err != nil {
				return err
			}
		}
		_, err = s.Close()
		return err
	}); err != nil {
		return nil, err
	}

	if err := timeLoop("session/serve_hybrid", fmt.Sprintf("single item, m=%d, hybrid planner (horizon=8, order=2) + implicit sc shadow", m), n, func() error {
		s, err := datacache.NewSession(m, 1, datacache.Unit, &datacache.SessionOptions{Policy: "hybrid:horizon=8,order=2"})
		if err != nil {
			return err
		}
		for _, r := range reqs {
			if _, err := s.Serve(r.Server, r.Time); err != nil {
				return err
			}
		}
		_, err = s.Close()
		return err
	}); err != nil {
		return nil, err
	}

	if err := timeLoop("pool/serve", fmt.Sprintf("%d items zipf(1.2), unbounded, single path", items), n, func() error {
		p, err := datacache.NewPool(m, 1, datacache.Unit, nil)
		if err != nil {
			return err
		}
		for _, r := range reqs {
			if _, err := p.Serve("", r.Item, r.Server, r.Time); err != nil {
				return err
			}
		}
		return p.Close()
	}); err != nil {
		return nil, err
	}

	if err := timeLoop("pool/serve_batch", fmt.Sprintf("%d items zipf(1.2), batch=%d grouped by item", items, batch), n, func() error {
		p, err := datacache.NewPool(m, 1, datacache.Unit, nil)
		if err != nil {
			return err
		}
		for lo := 0; lo < len(reqs); lo += batch {
			hi := lo + batch
			if hi > len(reqs) {
				hi = len(reqs)
			}
			if _, err := p.ServeBatch(nil, reqs[lo:hi]); err != nil {
				return err
			}
		}
		return p.Close()
	}); err != nil {
		return nil, err
	}

	if err := timeLoop("pool/serve_bounded", fmt.Sprintf("%d items, MaxItems=%d (LRU eviction churn)", items, maxItems), n, func() error {
		p, err := datacache.NewPool(m, 1, datacache.Unit, &datacache.PoolOptions{MaxItems: maxItems})
		if err != nil {
			return err
		}
		for _, r := range reqs {
			if _, err := p.Serve("", r.Item, r.Server, r.Time); err != nil {
				return err
			}
		}
		return p.Close()
	}); err != nil {
		return nil, err
	}

	dpN := n
	if dpN > 2000 {
		dpN = 2000
	}
	seq := &model.Sequence{M: m, Origin: 1}
	for i := 0; i < dpN; i++ {
		seq.Requests = append(seq.Requests, model.Request{
			Server: model.ServerID(1 + zipfSrv.Uint64()),
			Time:   float64(i+1) * 0.1,
		})
	}
	if err := timeLoop("offline/fastdp", fmt.Sprintf("FastDP optimum, m=%d", m), dpN, func() error {
		_, err := datacache.Optimize(seq, datacache.Unit)
		return err
	}); err != nil {
		return nil, err
	}

	return snap, nil
}

// perfRegressionLimit is the gate -baseline enforces: a shared hot loop
// may be at most 25% slower (ns/op) than the committed snapshot.
const perfRegressionLimit = 1.25

// allocRegressionLimit is the allocation gate -baseline enforces: a
// shared hot loop may allocate at most 10% more per op than the
// committed snapshot (with a 2 alloc/op absolute slack so near-zero
// loops don't flap on measurement noise). Snapshots written before
// allocs were recorded carry 0 and are exempt.
const allocRegressionLimit = 1.10

// recorderOverheadLimit bounds what attaching the flight recorder may
// cost the single-item serve path: session/serve_recorded must stay
// within 5% of session/serve ns/op. Checked on every sweep, not just
// against a baseline, because both sides are measured in the same run.
const recorderOverheadLimit = 1.05

// checkRecorderOverhead enforces recorderOverheadLimit on a fresh
// sweep.
func checkRecorderOverhead(snap *perfSnapshot) error {
	var plain, recorded float64
	for _, r := range snap.Results {
		switch r.Name {
		case "session/serve":
			plain = r.NsPerOp
		case "session/serve_recorded":
			recorded = r.NsPerOp
		}
	}
	if plain == 0 || recorded == 0 {
		return nil
	}
	if ratio := recorded / plain; ratio > recorderOverheadLimit {
		return fmt.Errorf("recorder overhead %.1f%% exceeds %.0f%% (plain %.0f ns/op, recorded %.0f ns/op)",
			(ratio-1)*100, (recorderOverheadLimit-1)*100, plain, recorded)
	}
	return nil
}

// samplerOverheadLimit bounds what the metrics-history sampler may cost
// the single-item serve path: session/serve_sampled must stay within 5%
// of session/serve ns/op, even with the sampler running 1000x hotter
// than production. Checked on every sweep, like the recorder gate.
const samplerOverheadLimit = 1.05

// checkSamplerOverhead enforces samplerOverheadLimit on a fresh sweep.
func checkSamplerOverhead(snap *perfSnapshot) error {
	var plain, sampled float64
	for _, r := range snap.Results {
		switch r.Name {
		case "session/serve":
			plain = r.NsPerOp
		case "session/serve_sampled":
			sampled = r.NsPerOp
		}
	}
	if plain == 0 || sampled == 0 {
		return nil
	}
	if ratio := sampled / plain; ratio > samplerOverheadLimit {
		return fmt.Errorf("sampler overhead %.1f%% exceeds %.0f%% (plain %.0f ns/op, sampled %.0f ns/op)",
			(ratio-1)*100, (samplerOverheadLimit-1)*100, plain, sampled)
	}
	return nil
}

// runPerf executes the sweep and prints it as JSON (-json) or a table.
// With a baseline snapshot path it additionally prints a comparison
// table to stderr and fails on any >25% ns/op regression.
func runPerf(seed int64, n int, asJSON bool, baseline string) error {
	snap, err := perfSweep(seed, n)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			return err
		}
	} else {
		fmt.Printf("== Perf: serving-path hot loops (%s, %s, seed %d) ==\n", snap.Go, snap.Arch, snap.Seed)
		fmt.Printf("%-22s %9s %12s %14s %11s  %s\n", "benchmark", "ops", "ns/op", "ops/sec", "allocs/op", "note")
		for _, r := range snap.Results {
			fmt.Printf("%-22s %9d %12.0f %14.0f %11.1f  %s\n", r.Name, r.N, r.NsPerOp, r.OpsPerSec, r.AllocsPerOp, r.Note)
		}
		fmt.Println(strings.Repeat("-", 60))
	}
	if err := checkRecorderOverhead(snap); err != nil {
		return err
	}
	if err := checkSamplerOverhead(snap); err != nil {
		return err
	}
	if baseline == "" {
		return nil
	}
	return comparePerf(snap, baseline)
}

// comparePerf gates the fresh sweep against a committed snapshot. Loops
// only one side knows are reported but never gate (renames and new
// benchmarks must not fail CI); shared loops fail past the limit.
func comparePerf(snap *perfSnapshot, baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base perfSnapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	if base.Schema != snap.Schema {
		return fmt.Errorf("baseline %s has schema %q, want %q", baselinePath, base.Schema, snap.Schema)
	}
	baseBy := make(map[string]perfResult, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	fmt.Fprintf(os.Stderr, "== Perf vs baseline %s (gates: +%.0f%% ns/op, +%.0f%% allocs/op) ==\n",
		baselinePath, (perfRegressionLimit-1)*100, (allocRegressionLimit-1)*100)
	fmt.Fprintf(os.Stderr, "%-24s %12s %12s %9s %11s %11s %9s\n",
		"benchmark", "base ns/op", "head ns/op", "delta", "base alloc", "head alloc", "delta")
	var regressed []string
	for _, r := range snap.Results {
		b, ok := baseBy[r.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "%-24s %12s %12.0f %9s %11s %11.1f %9s\n",
				r.Name, "-", r.NsPerOp, "new", "-", r.AllocsPerOp, "")
			continue
		}
		delete(baseBy, r.Name)
		ratio := r.NsPerOp / b.NsPerOp
		verdict := fmt.Sprintf("%+.1f%%", (ratio-1)*100)
		if ratio > perfRegressionLimit {
			verdict += " FAIL"
			regressed = append(regressed, fmt.Sprintf("%s (%.0f -> %.0f ns/op, %+.1f%%)",
				r.Name, b.NsPerOp, r.NsPerOp, (ratio-1)*100))
		}
		// Allocation gate: only when the baseline recorded allocs, with a
		// small absolute slack so near-zero loops don't flap.
		allocVerdict := "-"
		if b.AllocsPerOp > 0 {
			allocVerdict = fmt.Sprintf("%+.1f%%", (r.AllocsPerOp/b.AllocsPerOp-1)*100)
			if r.AllocsPerOp > b.AllocsPerOp*allocRegressionLimit && r.AllocsPerOp > b.AllocsPerOp+2 {
				allocVerdict += " FAIL"
				regressed = append(regressed, fmt.Sprintf("%s (%.1f -> %.1f allocs/op, %+.1f%%)",
					r.Name, b.AllocsPerOp, r.AllocsPerOp, (r.AllocsPerOp/b.AllocsPerOp-1)*100))
			}
		}
		fmt.Fprintf(os.Stderr, "%-24s %12.0f %12.0f %9s %11.1f %11.1f %9s\n",
			r.Name, b.NsPerOp, r.NsPerOp, verdict, b.AllocsPerOp, r.AllocsPerOp, allocVerdict)
	}
	for name := range baseBy {
		fmt.Fprintf(os.Stderr, "%-24s %12.0f %12s %9s\n", name, baseBy[name].NsPerOp, "-", "gone")
	}
	if len(regressed) > 0 {
		return fmt.Errorf("perf regression past the gate: %s", strings.Join(regressed, "; "))
	}
	return nil
}
