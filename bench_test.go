// Benchmarks regenerating the performance side of every experiment in
// DESIGN.md §3. Run with:
//
//	go test -bench=. -benchmem
//
// E1  BenchmarkTable1_*         classic paging vs cloud optimization
// E2  BenchmarkFig2Golden       the Fig. 2 instance end to end
// E3  BenchmarkFig6Golden       the Fig. 6 instance end to end
// E4  BenchmarkFig7Analysis     SC + DT transform + reductions
// E5  BenchmarkFastDP/Naive     the O(mn) vs O(n²) scaling claim
// E6  BenchmarkCompetitiveRatio SC + OPT per workload family
// E7  BenchmarkPolicies         all online policies on one workload
// E8  BenchmarkPredictPlan      train, predict, plan, execute
// E9  BenchmarkHeteroOptimal    the subset DP under heterogeneous costs
//
// BenchmarkPoolChurn prices Pool.ServeBatch on the pool-churn traffic
// shape (LRU eviction and revival on every batch).
//
// BenchmarkSessionServe/plain and /recorded price one Session.Serve
// without and with the flight recorder; their difference is what
// recording adds to a serve.
//
// BenchmarkHybridServe/cycle and /zipf price one hybrid Session.Serve on
// traffic the planner replans on nearly every request, and on traffic it
// never plans.
package datacache_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"datacache"
	"datacache/internal/cloudsim"
	"datacache/internal/engine"
	"datacache/internal/hetero"
	"datacache/internal/model"
	"datacache/internal/obs"
	"datacache/internal/offline"
	"datacache/internal/online"
	"datacache/internal/paging"
	"datacache/internal/recorder"
	"datacache/internal/service"
	"datacache/internal/trajectory"
	"datacache/internal/workload"
)

var benchModel = model.CostModel{Mu: 1, Lambda: 2}

func benchSequence(m, n int, seed int64) *model.Sequence {
	return workload.Zipf{M: m, S: 1.5, MeanGap: benchModel.Delta()}.
		Generate(rand.New(rand.NewSource(seed)), n)
}

// E5: the headline scaling comparison. FastDP must grow linearly in n,
// NaiveDP quadratically; the per-op gap at n=16384 is the measured speedup.
func BenchmarkFastDP(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384, 65536} {
		seq := benchSequence(16, n, 42)
		b.Run(fmt.Sprintf("m=16/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := offline.FastDP(seq, benchModel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, m := range []int{4, 64, 256} {
		seq := benchSequence(m, 8192, 43)
		b.Run(fmt.Sprintf("n=8192/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := offline.FastDP(seq, benchModel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNaiveDP(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		seq := benchSequence(16, n, 42)
		b.Run(fmt.Sprintf("m=16/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := offline.NaiveDP(seq, benchModel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSweepDP(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384, 65536} {
		seq := benchSequence(16, n, 42)
		b.Run(fmt.Sprintf("m=16/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := offline.SweepDP(seq, benchModel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScheduleReconstruction(b *testing.B) {
	seq := benchSequence(16, 16384, 44)
	res, err := offline.FastDP(seq, benchModel)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Schedule(); err != nil {
			b.Fatal(err)
		}
	}
}

// E1: both paradigms' algorithms on matched stream lengths.
func BenchmarkTable1_Belady(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	zf := rand.NewZipf(rng, 1.4, 1, 63)
	refs := make([]paging.Page, 16384)
	for i := range refs {
		refs[i] = paging.Page(zf.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paging.Belady(refs, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_LRU(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	zf := rand.NewZipf(rng, 1.4, 1, 63)
	refs := make([]paging.Page, 16384)
	for i := range refs {
		refs[i] = paging.Page(zf.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paging.LRU(refs, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// E2/E3: the golden instances end to end (optimize + reconstruct + price).
func BenchmarkFig2Golden(b *testing.B) {
	seq, cm := offline.Fig2Instance()
	for i := 0; i < b.N; i++ {
		res, err := offline.FastDP(seq, cm)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.Schedule(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Golden(b *testing.B) {
	seq, cm := offline.Fig6Instance()
	for i := 0; i < b.N; i++ {
		res, err := offline.FastDP(seq, cm)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.Schedule(); err != nil {
			b.Fatal(err)
		}
	}
}

// E4: the proof machinery — SC run, DT transform, reductions.
func BenchmarkFig7Analysis(b *testing.B) {
	seq := workload.MarkovHop{M: 4, Stay: 0.5, MeanGap: benchModel.Delta() * 0.8}.
		Generate(rand.New(rand.NewSource(46)), 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := online.CheckLemmas(seq, benchModel, online.SpeculativeCaching{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E6: SC + OPT per workload family (the ratio experiment's inner loop).
func BenchmarkCompetitiveRatio(b *testing.B) {
	for _, g := range workload.Standard(8, benchModel.Delta()) {
		seq := g.Generate(rand.New(rand.NewSource(47)), 2048)
		b.Run(g.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt, err := online.CompetitiveRatio(online.SpeculativeCaching{}, seq, benchModel)
				if err != nil {
					b.Fatal(err)
				}
				if pt.Ratio > 3 {
					b.Fatalf("ratio %v exceeds 3", pt.Ratio)
				}
			}
		})
	}
}

// E7: each online policy on one trajectory-like workload.
func BenchmarkPolicies(b *testing.B) {
	seq := workload.MarkovHop{M: 8, Stay: 0.8, MeanGap: benchModel.Delta() / 2}.
		Generate(rand.New(rand.NewSource(48)), 8192)
	for _, p := range []online.Runner{
		online.SpeculativeCaching{},
		online.SpeculativeCaching{EpochTransfers: 64},
		online.AdaptiveTTL{},
		online.AlwaysMigrate{},
		online.KeepEverywhere{},
	} {
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := online.Run(p, seq, benchModel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Per-request decision latency of the shared engine core at increasing
// cluster sizes: one Serve call on a long-lived stream, allocations
// reported. This is the hot path of datacache.Session and every online
// Runner.
func BenchmarkEngineDecision(b *testing.B) {
	for _, m := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(61))
			servers := make([]model.ServerID, 4096)
			for i := range servers {
				servers[i] = model.ServerID(1 + rng.Intn(m))
			}
			gap := benchModel.Delta() / 2
			newStream := func() *engine.Stream {
				st, err := engine.NewStream(&engine.SC{}, engine.State{M: m, Origin: 1, Model: benchModel})
				if err != nil {
					b.Fatal(err)
				}
				return st
			}
			st := newStream()
			t := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%8192 == 8191 {
					// Periodically restart so the accumulated schedule does
					// not dominate memory; the rebuild is off the clock.
					b.StopTimer()
					st, t = newStream(), 0
					b.StartTimer()
				}
				t += gap
				if _, err := st.Serve(servers[i%len(servers)], t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineDecisionTraced is BenchmarkEngineDecision with the
// observability hooks live: a bounded trace ring plus a counting observer
// fan-out, the same wiring /v1/session uses. Compare against m=100 of the
// plain benchmark to price the observer path; the nil-observer case must
// stay at its untraced cost (one branch per event site).
func BenchmarkEngineDecisionTraced(b *testing.B) {
	const m = 100
	rng := rand.New(rand.NewSource(61))
	servers := make([]model.ServerID, 4096)
	for i := range servers {
		servers[i] = model.ServerID(1 + rng.Intn(m))
	}
	gap := benchModel.Delta() / 2
	var events int64
	counting := obs.ObserverFunc(func(obs.Event) { events++ })
	newStream := func() *engine.Stream {
		st, err := engine.NewStream(&engine.SC{}, engine.State{M: m, Origin: 1, Model: benchModel})
		if err != nil {
			b.Fatal(err)
		}
		st.SetObserver(obs.Multi(&obs.Ring{Cap: 256}, counting))
		return st
	}
	st := newStream()
	t := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8192 == 8191 {
			b.StopTimer()
			st, t = newStream(), 0
			b.StartTimer()
		}
		t += gap
		if _, err := st.Serve(servers[i%len(servers)], t); err != nil {
			b.Fatal(err)
		}
	}
	if events < int64(b.N) {
		b.Fatalf("observer saw %d events for %d requests", events, b.N)
	}
}

// BenchmarkEngineDecisionTracedSLO stacks the SLO tier on top of the
// traced decision path: the same trace ring and counting observer as
// BenchmarkEngineDecisionTraced plus one SLO.Observe per request feeding
// the rolling window, EWMA and the Theorem-3 alert rule — the full
// per-request work a /v1/session serve performs beyond the engine itself.
// The delta against the traced baseline prices the SLO layer; it must
// stay within 10% of it.
func BenchmarkEngineDecisionTracedSLO(b *testing.B) {
	const m = 100
	rng := rand.New(rand.NewSource(61))
	servers := make([]model.ServerID, 4096)
	for i := range servers {
		servers[i] = model.ServerID(1 + rng.Intn(m))
	}
	gap := benchModel.Delta() / 2
	var events int64
	counting := obs.ObserverFunc(func(obs.Event) { events++ })
	newStream := func() *engine.Stream {
		st, err := engine.NewStream(&engine.SC{}, engine.State{M: m, Origin: 1, Model: benchModel})
		if err != nil {
			b.Fatal(err)
		}
		st.SetObserver(obs.Multi(&obs.Ring{Cap: 256}, counting))
		return st
	}
	st := newStream()
	slo := obs.NewSLO(64, obs.Theorem3Rule())
	t := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8192 == 8191 {
			b.StopTimer()
			st, t = newStream(), 0
			b.StartTimer()
		}
		t += gap
		d, err := st.Serve(servers[i%len(servers)], t)
		if err != nil {
			b.Fatal(err)
		}
		// Price the SLO tier itself, not a cost query: feed the deltas the
		// decision implies (caching over the gap, lambda on a miss).
		costDelta := gap * benchModel.Mu
		if !d.Hit {
			costDelta += benchModel.Lambda
		}
		slo.Observe(t, costDelta, gap*benchModel.Mu)
	}
	if events < int64(b.N) {
		b.Fatalf("observer saw %d events for %d requests", events, b.N)
	}
	if slo.N() == 0 {
		b.Fatal("SLO observed nothing")
	}
}

// BenchmarkEngineDecisionSpans stacks the distributed-tracing tier on the
// decision path: per request, one head-sampled root span plus one serve
// child annotated with the decision's regret, ended into the bounded span
// store — the span work a /v1/session serve performs beyond the engine.
// Two budgets: the untraced engine path (BenchmarkEngineDecision/m=100)
// must stay within 5% of its pre-tracing cost — the drop accounting added
// to Stream.Serve is plain integer arithmetic and measures as noise — and
// this benchmark prices the full span tier itself (ids, two spans, store
// insert), which the service amortizes to one root per HTTP request
// however many decisions a batch carries.
func BenchmarkEngineDecisionSpans(b *testing.B) {
	const m = 100
	rng := rand.New(rand.NewSource(61))
	servers := make([]model.ServerID, 4096)
	for i := range servers {
		servers[i] = model.ServerID(1 + rng.Intn(m))
	}
	gap := benchModel.Delta() / 2
	tracer, err := obs.NewTracer(obs.TracerOptions{
		Rand:       rand.New(rand.NewSource(1)),
		SampleRate: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	newStream := func() *engine.Stream {
		st, err := engine.NewStream(&engine.SC{}, engine.State{M: m, Origin: 1, Model: benchModel})
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	st := newStream()
	t := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%8192 == 8191 {
			b.StopTimer()
			st, t = newStream(), 0
			b.StartTimer()
		}
		t += gap
		root := tracer.StartRoot("/v1/session/", obs.SpanContext{})
		sp := root.StartChild("serve")
		d, err := st.Serve(servers[i%len(servers)], t)
		if err != nil {
			b.Fatal(err)
		}
		sp.Regret = float64(d.Drops) // stand-in regret; the store path is what's priced
		sp.End()
		root.End()
	}
	if tracer.SpanCount() == 0 {
		b.Fatal("tracer stored nothing")
	}
}

// The event-driven simulator against the closed form (cross-check cost).
func BenchmarkSimulatorSC(b *testing.B) {
	seq := workload.MarkovHop{M: 8, Stay: 0.8, MeanGap: benchModel.Delta() / 2}.
		Generate(rand.New(rand.NewSource(48)), 8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cloudsim.Run(cloudsim.NewSCPolicy(0, 0), seq, benchModel); err != nil {
			b.Fatal(err)
		}
	}
}

// E8: the full prediction pipeline.
func BenchmarkPredictPlan(b *testing.B) {
	field := trajectory.GridField(9, 1.0)
	walker := trajectory.MarkovCells{Field: field, Stay: 0.9, Neighbors: 3, ReqGap: 0.9}
	rng := rand.New(rand.NewSource(49))
	train := walker.Generate(rng, 4096)
	test := walker.Generate(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := trajectory.NewPredictor(2)
		p.Train(trajectory.Servers(train))
		if _, err := trajectory.PlanAndExecute(p, test, model.Unit); err != nil {
			b.Fatal(err)
		}
	}
}

// E9: the heterogeneous exact DP (exponential in m, linear in n).
func BenchmarkHeteroOptimal(b *testing.B) {
	for _, m := range []int{4, 8, 12} {
		seq := benchSequence(m, 256, 50)
		h := hetero.NewUniform(m, model.Unit)
		pr := rand.New(rand.NewSource(51))
		h.Perturb(0.3, pr.Float64)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hetero.Optimal(seq, h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The exact subset oracle at its comfortable sizes.
func BenchmarkSubsetOracle(b *testing.B) {
	seq := benchSequence(10, 256, 52)
	for i := 0; i < b.N; i++ {
		if _, err := offline.SubsetOptimal(seq, benchModel); err != nil {
			b.Fatal(err)
		}
	}
}

// E10: the migration-only optimum (O(nm), O(m) space).
func BenchmarkSingleCopyOptimal(b *testing.B) {
	seq := benchSequence(16, 16384, 53)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := offline.SingleCopyOptimal(seq, benchModel); err != nil {
			b.Fatal(err)
		}
	}
}

// Catalog-scale parallel planning: 64 items, scaling with workers.
func BenchmarkOptimizeBatch(b *testing.B) {
	var items []offline.BatchItem
	for i := 0; i < 64; i++ {
		items = append(items, offline.BatchItem{
			Name:  fmt.Sprintf("item%d", i),
			Seq:   benchSequence(8, 2048, int64(54+i)),
			Model: benchModel,
		})
	}
	for _, workers := range []int{1, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range offline.OptimizeBatch(items, workers) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// The cheap bounds vs. the full DP they bracket.
func BenchmarkEstimateBounds(b *testing.B) {
	seq := benchSequence(16, 16384, 55)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := offline.ComputeBounds(seq, benchModel); err != nil {
			b.Fatal(err)
		}
	}
}

// Streaming appends: the amortized O(m) per-request update of the
// incremental DP.
func BenchmarkIncrementalAppend(b *testing.B) {
	seq := benchSequence(16, 65536, 56)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc, err := offline.NewIncremental(seq.M, seq.Origin, benchModel)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range seq.Requests {
			if err := inc.Append(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The graph-path single-copy solver vs its DP twin.
func BenchmarkGraphSingleCopy(b *testing.B) {
	seq := benchSequence(16, 16384, 57)
	for i := 0; i < b.N; i++ {
		if _, err := offline.GraphSingleCopy(seq, benchModel); err != nil {
			b.Fatal(err)
		}
	}
}

// The heterogeneous online policy at production-ish sizes.
func BenchmarkHeteroSC(b *testing.B) {
	seq := benchSequence(12, 8192, 58)
	h := hetero.NewUniform(12, model.Unit)
	pr := rand.New(rand.NewSource(59))
	h.Perturb(0.3, pr.Float64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := (hetero.SC{Model: h}).Run(seq); err != nil {
			b.Fatal(err)
		}
	}
}

// Fault-injected execution with recovery uploads.
func BenchmarkFaultedRun(b *testing.B) {
	seq := benchSequence(8, 8192, 60)
	var faults []cloudsim.Fault
	for ft := 1.0; ft < seq.End(); ft += 5 {
		faults = append(faults, cloudsim.Fault{Server: model.ServerID(1 + int(ft)%8), At: ft})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cloudsim.RunWithFaults(seq, benchModel, faults, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// The pool-churn shape: 64-request batches on 16 servers whose keys are
// uniform over 1024 (tenant, item) keys, four times the pool's MaxItems,
// so nearly every batch evicts and revives items. The global mean gap is
// Δt over the keyspace, which makes each key's mean gap Δt.
const (
	churnServers  = 16
	churnKeys     = 1024
	churnMaxItems = 256
	churnBatch    = 64
)

// poolChurnRequests draws one pass of the pool-churn shape: batches
// 64-request batches.
func poolChurnRequests(seed int64, batches int) []datacache.PoolRequest {
	rng := rand.New(rand.NewSource(seed))
	meanGap := benchModel.Delta() / churnKeys
	reqs := make([]datacache.PoolRequest, 0, batches*churnBatch)
	t := 0.0
	for i := 0; i < batches*churnBatch; i++ {
		t += math.Max(1e-6, rng.ExpFloat64()*meanGap)
		k := rng.Intn(churnKeys)
		reqs = append(reqs, datacache.PoolRequest{
			Tenant: "t" + strconv.Itoa(k%4),
			Item:   "i" + strconv.Itoa(k/4),
			Server: datacache.ServerID(1 + rng.Intn(churnServers)),
			Time:   t,
		})
	}
	return reqs
}

// poolChurnPass opens a pool with the options the HTTP service gives
// its pools' items, serves reqs through it in 64-request batches and
// closes it.
func poolChurnPass(reqs []datacache.PoolRequest) error {
	pool, err := datacache.NewPool(churnServers, 1, benchModel, &datacache.PoolOptions{
		Session: datacache.SessionOptions{
			Policy:        "sc",
			Observer:      obs.ObserverFunc(func(obs.Event) {}),
			ShadowMargin:  -1,
			RecordSession: "pl-1",
		},
		MaxItems:        churnMaxItems,
		TenantSLOWindow: service.DefaultSLOWindow,
	})
	if err != nil {
		return err
	}
	for i := 0; i < len(reqs); i += churnBatch {
		res, err := pool.ServeBatch(context.Background(), reqs[i:min(i+churnBatch, len(reqs))])
		if err != nil {
			return err
		}
		if res.FirstRejected >= 0 {
			return fmt.Errorf("batch at %d: %s", i, res.RejectReason)
		}
	}
	return pool.Close()
}

// BenchmarkPoolChurn serves one pass of the pool-churn shape per op; the
// ns/req and allocs/req metrics divide by its 8192 requests.
func BenchmarkPoolChurn(b *testing.B) {
	reqs := poolChurnRequests(1, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := poolChurnPass(reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
}

// TestPoolChurnAllocations pins what a pool-churn pass allocates per
// request: an evicted item's session is reset for the key being
// admitted, so revivals allocate nothing and a pass stays within a few
// allocations per request.
func TestPoolChurnAllocations(t *testing.T) {
	reqs := poolChurnRequests(1, 128)
	var err error
	perReq := testing.AllocsPerRun(2, func() { err = poolChurnPass(reqs) }) / float64(len(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if perReq > 3 {
		t.Errorf("a pool-churn pass allocates %.2f objects per request, want at most 3", perReq)
	}
	t.Logf("%.2f allocations per request", perReq)
}

// BenchmarkSessionServe prices one Session.Serve on an m=16 SC session,
// plain and with a binary flight recorder attached. The writer stays
// open across the run and its close is not timed; a session is replaced
// (untimed) every 4096 requests, so its length stays bounded.
func BenchmarkSessionServe(b *testing.B) {
	reqs := benchSequence(16, 4096, 1).Requests
	for _, recorded := range []bool{false, true} {
		name := "plain"
		if recorded {
			name = "recorded"
		}
		b.Run(name, func(b *testing.B) {
			opts := &datacache.SessionOptions{}
			if recorded {
				w, err := recorder.NewWriter(recorder.Options{Dir: b.TempDir(), Source: "bench"})
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				opts.Recorder, opts.RecordSession = w, "bench"
			}
			var s *datacache.Session
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(reqs)
				if j == 0 {
					b.StopTimer()
					if s != nil {
						_, _ = s.Close()
					}
					var err error
					if s, err = datacache.NewSession(16, 1, benchModel, opts); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, err := s.Serve(reqs[j].Server, reqs[j].Time); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
}

// TestRecordedServeAllocations pins recording's allocation cost at zero:
// a recorded Serve on a warm SC session, with a binary writer held open,
// allocates nothing.
func TestRecordedServeAllocations(t *testing.T) {
	reqs := benchSequence(16, 3000, 1).Requests
	w, err := recorder.NewWriter(recorder.Options{Dir: t.TempDir(), Source: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s, err := datacache.NewSession(16, 1, benchModel, &datacache.SessionOptions{Recorder: w, RecordSession: "sn-1"})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	serve := func() {
		r := reqs[next]
		next++
		if _, err := s.Serve(r.Server, r.Time); err != nil {
			t.Fatal(err)
		}
	}
	for next < 1000 {
		serve()
	}
	if allocs := testing.AllocsPerRun(1000, serve); allocs != 0 {
		t.Errorf("a recorded Serve allocates %v objects, want 0", allocs)
	}
	if st := w.Stats(); st.Records != int64(next)+1 || st.Dropped != 0 {
		t.Fatalf("writer stats %+v after %d serves", st, next)
	}
}

// BenchmarkHybridServe prices one Session.Serve under
// hybrid:horizon=8,order=2 and reports the plans it built per serve: on
// an m=8 cycle the planner replans on nearly every request, on m=16 Zipf
// traffic its confidence gate stays closed. A session is replaced
// (untimed) every 4096 requests.
func BenchmarkHybridServe(b *testing.B) {
	cycle := &model.Sequence{M: 8, Origin: 1}
	for i := 0; i < 4096; i++ {
		cycle.Requests = append(cycle.Requests, model.Request{Server: model.ServerID(i%8 + 1), Time: float64(i + 1)})
	}
	for _, tr := range []struct {
		name string
		seq  *model.Sequence
	}{{"cycle", cycle}, {"zipf", benchSequence(16, 4096, 1)}} {
		b.Run(tr.name, func(b *testing.B) {
			reqs := tr.seq.Requests
			opts := &datacache.SessionOptions{Policy: "hybrid:horizon=8,order=2"}
			var s *datacache.Session
			plans := 0
			closeSession := func() {
				if s != nil {
					st, _ := s.PlannerStats()
					plans += st.Plans
					_, _ = s.Close()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(reqs)
				if j == 0 {
					b.StopTimer()
					closeSession()
					var err error
					if s, err = datacache.NewSession(tr.seq.M, tr.seq.Origin, benchModel, opts); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, err := s.Serve(reqs[j].Server, reqs[j].Time); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			closeSession()
			b.ReportMetric(float64(plans)/float64(b.N), "plans/op")
		})
	}
}

// TestHybridServeAllocations pins the hybrid's cost on traffic it does
// not plan: on a warm m=16 session serving Zipf traffic the confidence
// gate stays closed, and a Serve allocates nothing (the predictor builds
// its context keys on the stack).
func TestHybridServeAllocations(t *testing.T) {
	reqs := benchSequence(16, 5000, 1).Requests
	s, err := datacache.NewSession(16, 1, benchModel, &datacache.SessionOptions{Policy: "hybrid:horizon=8,order=2"})
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	serve := func() {
		r := reqs[next]
		next++
		if _, err := s.Serve(r.Server, r.Time); err != nil {
			t.Fatal(err)
		}
	}
	for next < 3000 {
		serve()
	}
	if allocs := testing.AllocsPerRun(1000, serve); allocs != 0 {
		t.Errorf("a hybrid Serve allocates %v objects, want 0", allocs)
	}
	if st, _ := s.PlannerStats(); st.Plans != 0 {
		t.Fatalf("the planner planned %d times on Zipf traffic; the test needs its gate closed", st.Plans)
	}
}
