package datacache_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datacache"
	"datacache/internal/offline"
)

// randomSequence builds a valid workload: m servers, n strictly increasing
// request times.
func randomSequence(rng *rand.Rand, m, n int) *datacache.Sequence {
	seq := &datacache.Sequence{M: m, Origin: datacache.ServerID(1 + rng.Intn(m))}
	t := 0.0
	for i := 0; i < n; i++ {
		t += 0.05 + rng.Float64()*2
		seq.Requests = append(seq.Requests, datacache.Request{
			Server: datacache.ServerID(1 + rng.Intn(m)),
			Time:   t,
		})
	}
	return seq
}

// TestSessionMatchesBatchRun is the live-serving acceptance check: feeding a
// workload one request at a time through a Session must accumulate exactly
// (bitwise) the cost that the batch online runner reports for the same
// prefix — the Session is the same engine, not a reimplementation.
func TestSessionMatchesBatchRun(t *testing.T) {
	cm := datacache.CostModel{Mu: 1, Lambda: 2}
	cases := []struct {
		name   string
		opts   *datacache.SessionOptions
		policy datacache.Policy
	}{
		{"sc", nil, datacache.SpeculativeCaching{}},
		{"sc-epoch", &datacache.SessionOptions{Policy: "sc:epoch=3"}, datacache.SpeculativeCaching{EpochTransfers: 3}},
		{"ttl", &datacache.SessionOptions{Policy: "ttl:window=0.7"}, datacache.SpeculativeCaching{Window: 0.7}},
		{"adaptive", &datacache.SessionOptions{Policy: "adaptive"}, datacache.AdaptiveTTL{}},
		{"migrate", &datacache.SessionOptions{Policy: "migrate"}, datacache.AlwaysMigrate{}},
		{"replicate", &datacache.SessionOptions{Policy: "replicate"}, datacache.KeepEverywhere{}},
	}
	// The first request of the last sequence reaches a server other than
	// the origin within the schedule tolerance (1e-9) of t=0.
	seqs := []*datacache.Sequence{
		randomSequence(rand.New(rand.NewSource(1)), 5, 40),
		randomSequence(rand.New(rand.NewSource(2)), 5, 40),
		randomSequence(rand.New(rand.NewSource(3)), 5, 40),
		{M: 3, Origin: 1, Requests: []datacache.Request{{Server: 2, Time: 5e-10}, {Server: 3, Time: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, seq := range seqs {
				sess, err := datacache.NewSession(seq.M, seq.Origin, cm, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range seq.Requests {
					if _, err := sess.Serve(r.Server, r.Time); err != nil {
						t.Fatal(err)
					}
				}
				run, err := datacache.Serve(tc.policy, seq, cm)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := sess.Cost(), run.Stats.Cost; got != want {
					t.Errorf("sequence %d: session cost %v != batch cost %v", i, got, want)
				}
				if got, want := sess.Transfers(), run.Stats.Transfers; got != want {
					t.Errorf("sequence %d: session transfers %d != batch %d", i, got, want)
				}
				opt, err := datacache.OptimalCost(seq, cm)
				if err != nil {
					t.Fatal(err)
				}
				if got := sess.OptimalCost(); got != opt {
					t.Errorf("sequence %d: session optimum %v != batch optimum %v", i, got, opt)
				}
				sched, err := sess.Close()
				if err != nil {
					t.Fatal(err)
				}
				if err := sched.Validate(seq); err != nil {
					t.Errorf("sequence %d: final schedule invalid: %v", i, err)
				}
			}
		})
	}
}

// TestSessionDecisions spot-checks the per-request readout on the paper's
// running example with SC under the unit model.
func TestSessionDecisions(t *testing.T) {
	seq := demoSequence()
	sess, err := datacache.NewSession(seq.M, seq.Origin, datacache.Unit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Policy() != "sc" {
		t.Fatalf("policy = %q, want sc", sess.Policy())
	}
	for i, r := range seq.Requests {
		d, err := sess.Serve(r.Server, r.Time)
		if err != nil {
			t.Fatal(err)
		}
		if d.Server != r.Server || d.Time != r.Time {
			t.Fatalf("request %d echoed as (%d, %v)", i, d.Server, d.Time)
		}
		if !d.Hit && (d.From < 1 || int(d.From) > seq.M) {
			t.Fatalf("request %d: miss with bad source %d", i, d.From)
		}
		if d.Hit && d.From != 0 {
			t.Fatalf("request %d: hit with source %d", i, d.From)
		}
		if d.Optimal > d.Cost+1e-9 {
			t.Fatalf("request %d: optimum %v above policy cost %v", i, d.Optimal, d.Cost)
		}
		if d.Ratio > 3+1e-9 {
			t.Fatalf("request %d: live ratio %v breaks Theorem 3", i, d.Ratio)
		}
	}
	if sess.N() != seq.N() {
		t.Fatalf("N = %d, want %d", sess.N(), seq.N())
	}
	if sess.Ratio() > 3+1e-9 {
		t.Fatalf("final ratio %v breaks Theorem 3", sess.Ratio())
	}
}

// TestSessionErrors exercises the API's failure paths.
func TestSessionErrors(t *testing.T) {
	if _, err := datacache.NewSession(0, 1, datacache.Unit, nil); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := datacache.NewSession(3, 4, datacache.Unit, nil); err == nil {
		t.Error("origin out of range accepted")
	}
	if _, err := datacache.NewSession(3, 1, datacache.CostModel{}, nil); err == nil {
		t.Error("zero cost model accepted")
	}
	if _, err := datacache.NewSession(3, 1, datacache.Unit, &datacache.SessionOptions{Policy: "lru"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := datacache.NewSession(3, 1, datacache.Unit, &datacache.SessionOptions{Policy: "ttl"}); err == nil {
		t.Error("ttl without window accepted")
	}
	sess, err := datacache.NewSession(3, 1, datacache.Unit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Serve(2, 1.0); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Serve(2, 0.5); err == nil {
		t.Error("non-increasing time accepted")
	}
	if _, err := sess.Serve(9, 2.0); err == nil {
		t.Error("server out of range accepted")
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if !sess.Closed() {
		t.Error("Closed() false after Close")
	}
	if _, err := sess.Serve(2, 3.0); err == nil {
		t.Error("serve after close accepted")
	}
	if _, err := sess.Close(); err != nil {
		t.Error("second Close should be a no-op")
	}
}

// TestSessionCostBreakdownFig6 checks the per-server cost attribution on
// the paper's Fig. 6 instance: after every served request and again after
// Close, the breakdown's caching and transfer shares must sum to exactly
// the session's total cost, and the per-server transfer counts to the
// session's transfer count.
func TestSessionCostBreakdownFig6(t *testing.T) {
	seq, cm := offline.Fig6Instance()
	sess, err := datacache.NewSession(seq.M, seq.Origin, cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		sum, transfers, live := 0.0, 0, 0
		for _, sc := range sess.CostBreakdown() {
			if sc.Caching < 0 || sc.Transfer < 0 {
				t.Fatalf("%s: negative share on server %d: %+v", when, sc.Server, sc)
			}
			sum += sc.Cost()
			transfers += sc.Transfers
			if sc.Live {
				live++
			}
		}
		if diff := math.Abs(sum - sess.Cost()); diff > 1e-9 {
			t.Fatalf("%s: breakdown sums to %v, session cost %v (diff %g)", when, sum, sess.Cost(), diff)
		}
		if transfers != sess.Transfers() {
			t.Fatalf("%s: breakdown transfers %d, session transfers %d", when, transfers, sess.Transfers())
		}
		if !sess.Closed() && live != sess.LiveCopies() {
			t.Fatalf("%s: breakdown live %d, session live copies %d", when, live, sess.LiveCopies())
		}
	}
	for i, r := range seq.Requests {
		if _, err := sess.Serve(r.Server, r.Time); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after request %d", i))
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	check("after close")
}

// TestSessionSLOLifecycle drives the library-level Session through a good
// prefix, an adversarial ping-pong tail and a calm recovery, and checks
// the embedded SLO tracker walks the Theorem-3 alert through pending,
// firing and resolved while the windowed ratio diverges from (and then
// rejoins) the cumulative one.
func TestSessionSLOLifecycle(t *testing.T) {
	cm := datacache.CostModel{Mu: 1, Lambda: 2}
	sess, err := datacache.NewSession(2, 1, cm, &datacache.SessionOptions{
		Policy:    "migrate",
		SLOWindow: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	slo := sess.SLO()
	if slo == nil {
		t.Fatal("SLO() nil with SLOWindow set")
	}
	var transitions []string
	slo.SetTransitionHook(func(rule datacache.AlertRule, from, to datacache.AlertState, at, value float64) {
		transitions = append(transitions, fmt.Sprintf("%s->%s", from, to))
	})

	now := 0.0
	for i := 0; i < 32; i++ { // good prefix: unit gaps, single server
		now += 1
		if _, err := sess.Serve(1, now); err != nil {
			t.Fatal(err)
		}
	}
	if r := slo.WindowedRatio(); r > 1.5 {
		t.Fatalf("windowed ratio after good prefix = %v", r)
	}
	for i := 0; i < 24; i++ { // adversarial tail: ping-pong, tiny gaps
		now += 0.01
		if _, err := sess.Serve(datacache.ServerID(1+i%2), now); err != nil {
			t.Fatal(err)
		}
	}
	if w, c := slo.WindowedRatio(), slo.CumulativeRatio(); w <= 3 || c >= 3 {
		t.Fatalf("after tail: windowed %v (want > 3), cumulative %v (want < 3)", w, c)
	}
	alerts := slo.Alerts()
	if len(alerts) != 1 || alerts[0].State != datacache.AlertFiring {
		t.Fatalf("alerts after tail = %+v, want theorem3_ratio firing", alerts)
	}
	for i := 0; i < 40; i++ { // calm recovery
		now += 1
		if _, err := sess.Serve(2, now); err != nil {
			t.Fatal(err)
		}
	}
	if st := slo.Alerts()[0].State; st != datacache.AlertResolved {
		t.Fatalf("alert after recovery = %v, want resolved", st)
	}
	want := []string{"inactive->pending", "pending->firing", "firing->resolved"}
	if fmt.Sprint(transitions) != fmt.Sprint(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
}

// TestSessionRegretTelescopesFig6 pins the per-request regret definition
// on the paper's Fig. 6 instance: each Decision.Regret is the online cost
// delta minus the optimum delta for that request, so the regrets summed
// over the whole run must telescope to Cost() − OptimalCost() to 1e-9,
// and re-deriving each regret from consecutive cumulative readouts must
// agree term by term. Also checked on a random workload for robustness.
func TestSessionRegretTelescopesFig6(t *testing.T) {
	seq, cm := offline.Fig6Instance()
	sess, err := datacache.NewSession(seq.M, seq.Origin, cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum, prevCost, prevOpt float64
	for i, r := range seq.Requests {
		d, err := sess.Serve(r.Server, r.Time)
		if err != nil {
			t.Fatal(err)
		}
		want := (d.Cost - prevCost) - (d.Optimal - prevOpt)
		if math.Abs(d.Regret-want) > 1e-12 {
			t.Fatalf("request %d: Regret = %v, cumulative deltas give %v", i, d.Regret, want)
		}
		prevCost, prevOpt = d.Cost, d.Optimal
		sum += d.Regret
	}
	if diff := math.Abs(sum - (sess.Cost() - sess.OptimalCost())); diff > 1e-9 {
		t.Fatalf("regrets sum to %v, Cost−Optimal = %v (diff %g)",
			sum, sess.Cost()-sess.OptimalCost(), diff)
	}

	rng := rand.New(rand.NewSource(99))
	rseq := randomSequence(rng, 6, 150)
	rs, err := datacache.NewSession(rseq.M, rseq.Origin, cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum = 0
	for _, r := range rseq.Requests {
		d, err := rs.Serve(r.Server, r.Time)
		if err != nil {
			t.Fatal(err)
		}
		sum += d.Regret
	}
	if diff := math.Abs(sum - (rs.Cost() - rs.OptimalCost())); diff > 1e-9 {
		t.Fatalf("random workload: regrets sum to %v, Cost−Optimal = %v (diff %g)",
			sum, rs.Cost()-rs.OptimalCost(), diff)
	}
}

// TestSessionDecisionDropsFig6 pins Decision.Drops on Fig. 6's canonical
// SC run: four copies are dropped in total, attributed to the request
// whose arrival drained the expired deadlines (t=2.6 collects the t=1.8
// and two t=2.1 expiries; t=4.0 collects the t=3.6 one).
func TestSessionDecisionDropsFig6(t *testing.T) {
	seq, cm := offline.Fig6Instance()
	sess, err := datacache.NewSession(seq.M, seq.Origin, cm, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	byTime := map[float64]int{}
	for _, r := range seq.Requests {
		d, err := sess.Serve(r.Server, r.Time)
		if err != nil {
			t.Fatal(err)
		}
		total += d.Drops
		byTime[d.Time] = d.Drops
	}
	if total != 4 {
		t.Fatalf("total drops attributed = %d, want 4", total)
	}
	if byTime[2.6] != 3 || byTime[4.0] != 1 {
		t.Fatalf("drop attribution: t=2.6 got %d (want 3), t=4.0 got %d (want 1); all: %v",
			byTime[2.6], byTime[4.0], byTime)
	}
}
