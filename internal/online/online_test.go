package online

import (
	"math"
	"math/rand"
	"testing"

	"datacache/internal/model"
	"datacache/internal/offline"
	"datacache/internal/workload"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b)) }

// Oracle is the off-line optimum exposed through the Runner interface, so
// the policy tests can run OPT beside the online policies. It is not an
// online algorithm: it sees the whole sequence.
type Oracle struct{}

// Name implements Runner.
func (Oracle) Name() string { return "OPT (offline)" }

// Run implements Runner.
func (Oracle) Run(seq *model.Sequence, cm model.CostModel) (*model.Schedule, error) {
	res, err := offline.FastDP(seq, cm)
	if err != nil {
		return nil, err
	}
	return res.Schedule()
}

// randomSequence draws a workload with mixed bursts and gaps so that both
// cache hits and misses occur.
func randomSequence(rng *rand.Rand, m, n int, spread float64) *model.Sequence {
	seq := &model.Sequence{M: m, Origin: model.ServerID(1 + rng.Intn(m))}
	t := 0.0
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			t += 0.01 + rng.Float64()*spread*5 // occasional long gap
		} else {
			t += 0.01 + rng.Float64()*spread
		}
		seq.Requests = append(seq.Requests, model.Request{
			Server: model.ServerID(1 + rng.Intn(m)),
			Time:   t,
		})
	}
	return seq
}

// TestSCHandTrace pins the exact behavior of the engine on a hand-simulated
// scenario (m=2, λ=μ=1, Δt=1):
//
//	r1=(s2,5)   miss  → transfer s1→s2; both deadlines 6
//	r2=(s2,5.5) hit   → s2 deadline 6.5
//	r3=(s1,10)  s1 died at 6 (s2 was fresher); lone s2 extended; miss →
//	            transfer s2→s1
//
// Final schedule: H(s1,0,6), H(s2,5,10), 2 transfers — cost 13.
func TestSCHandTrace(t *testing.T) {
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{
		{Server: 2, Time: 5},
		{Server: 2, Time: 5.5},
		{Server: 1, Time: 10},
	}}
	res, err := Run(SpeculativeCaching{}, seq, model.Unit)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(res.Stats.Cost, 13) {
		t.Fatalf("SC cost = %v, hand trace gives 13 (%s)", res.Stats.Cost, res.Schedule)
	}
	if res.Stats.Transfers != 2 || res.Stats.CacheHits != 1 {
		t.Errorf("stats = %+v, want 2 transfers and 1 hit", res.Stats)
	}
	if res.Stats.Expiries != 1 { // the s1 copy dies at t=6, before the horizon
		t.Errorf("expiries = %d, want 1", res.Stats.Expiries)
	}
	if !res.Schedule.HeldAt(1, 6) || res.Schedule.HeldAt(1, 6.5) {
		t.Errorf("s1 copy should die exactly at its deadline 6: %s", res.Schedule)
	}
	if !res.Schedule.HeldAt(2, 9.9) {
		t.Errorf("lone s2 copy must be extended to the horizon: %s", res.Schedule)
	}
}

// TestSCTieBreakKeepsTarget checks step 4's simultaneous-expiry rule: when
// the source and target of a transfer expire together and are the last two
// copies, the target survives.
func TestSCTieBreakKeepsTarget(t *testing.T) {
	seq := &model.Sequence{M: 3, Origin: 1, Requests: []model.Request{
		{Server: 2, Time: 0.5},
		{Server: 3, Time: 4},
	}}
	res, err := Run(SpeculativeCaching{}, seq, model.Unit)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule.Transfers) != 2 {
		t.Fatalf("want 2 transfers, got %s", res.Schedule)
	}
	second := res.Schedule.Transfers[1]
	if second.From != 2 {
		t.Errorf("second transfer sourced from s%d, want the surviving target s2", second.From)
	}
	if res.Schedule.HeldAt(1, 1.6) {
		t.Errorf("source copy on s1 should be deleted at the simultaneous expiry 1.5: %s", res.Schedule)
	}
}

// TestSCEpochReset checks the epoch restart: with one transfer per epoch the
// algorithm collapses to a single nomadic copy immediately after each miss.
func TestSCEpochReset(t *testing.T) {
	seq := &model.Sequence{M: 3, Origin: 1, Requests: []model.Request{
		{Server: 2, Time: 0.5},
		{Server: 3, Time: 4},
	}}
	res, err := Run(SpeculativeCaching{EpochTransfers: 1}, seq, model.Unit)
	if err != nil {
		t.Fatal(err)
	}
	// H(s1,0,0.5) + H(s2,0.5,4) + 2λ = 0.5 + 3.5 + 2 = 6.
	if !approxEq(res.Stats.Cost, 6) {
		t.Fatalf("epoch-1 SC cost = %v, want 6 (%s)", res.Stats.Cost, res.Schedule)
	}
	if got := res.Schedule.CountReplicas(seq); got != 1 {
		t.Errorf("replicas = %d, want 1 after per-transfer resets", got)
	}
}

func TestSCCacheHitWithinWindow(t *testing.T) {
	cm := model.CostModel{Mu: 1, Lambda: 2} // Δt = 2
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{
		{Server: 1, Time: 1.0},
		{Server: 1, Time: 2.5}, // 1.5 < Δt after previous touch: hit
		{Server: 1, Time: 6.0}, // 3.5 > Δt, but lone copy never dies: hit
	}}
	res, err := Run(SpeculativeCaching{}, seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Transfers != 0 {
		t.Errorf("transfers = %d, want 0 (all requests at the only copy)", res.Stats.Transfers)
	}
	if !approxEq(res.Stats.Cost, 6) { // pure caching of one copy over [0,6]
		t.Errorf("cost = %v, want 6", res.Stats.Cost)
	}
}

func TestTTLWindowOverride(t *testing.T) {
	// A huge window makes TTL behave like KeepEverywhere within the horizon.
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{
		{Server: 2, Time: 1},
		{Server: 1, Time: 5},
		{Server: 2, Time: 9},
	}}
	wide, err := Run(SpeculativeCaching{Window: 100}, seq, model.Unit)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Stats.Transfers != 1 {
		t.Errorf("wide window transfers = %d, want 1 (single replication)", wide.Stats.Transfers)
	}
	// Both copies held to the horizon: caching 9 + 8, one transfer.
	if !approxEq(wide.Stats.Cost, 18) {
		t.Errorf("wide window cost = %v, want 18", wide.Stats.Cost)
	}
	narrow, err := Run(SpeculativeCaching{Window: 0.05}, seq, model.Unit)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Stats.Transfers != 3 {
		t.Errorf("narrow window transfers = %d, want 3 (every request misses)", narrow.Stats.Transfers)
	}
}

func TestSCNames(t *testing.T) {
	if got := (SpeculativeCaching{}).Name(); got != "SC" {
		t.Errorf("Name = %q", got)
	}
	if got := (SpeculativeCaching{EpochTransfers: 7}).Name(); got != "SC(epoch=7)" {
		t.Errorf("Name = %q", got)
	}
	if got := (SpeculativeCaching{Window: 2.5}).Name(); got != "TTL(2.5)" {
		t.Errorf("Name = %q", got)
	}
}

func TestAlwaysMigrateExactCost(t *testing.T) {
	seq := &model.Sequence{M: 3, Origin: 1, Requests: []model.Request{
		{Server: 2, Time: 1},
		{Server: 2, Time: 2},
		{Server: 3, Time: 5},
	}}
	res, err := Run(AlwaysMigrate{}, seq, model.Unit)
	if err != nil {
		t.Fatal(err)
	}
	// One copy over [0,5] plus two migrations: 5 + 2 = 7.
	if !approxEq(res.Stats.Cost, 7) {
		t.Fatalf("cost = %v, want 7 (%s)", res.Stats.Cost, res.Schedule)
	}
	if got := res.Schedule.CountReplicas(seq); got != 1 {
		t.Errorf("replicas = %d, want 1", got)
	}
}

func TestKeepEverywhereExactCost(t *testing.T) {
	seq := &model.Sequence{M: 3, Origin: 1, Requests: []model.Request{
		{Server: 2, Time: 1},
		{Server: 2, Time: 2},
		{Server: 3, Time: 5},
		{Server: 2, Time: 6},
	}}
	res, err := Run(KeepEverywhere{}, seq, model.Unit)
	if err != nil {
		t.Fatal(err)
	}
	// Copies: s1 [0,6], s2 [1,6], s3 [5,6]; transfers: 2. 6+5+1+2 = 14.
	if !approxEq(res.Stats.Cost, 14) {
		t.Fatalf("cost = %v, want 14 (%s)", res.Stats.Cost, res.Schedule)
	}
	if res.Stats.Transfers != 2 {
		t.Errorf("transfers = %d, want 2", res.Stats.Transfers)
	}
}

func TestOracleMatchesFastDP(t *testing.T) {
	seq, cm := offline.Fig6Instance()
	res, err := Run(Oracle{}, seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(res.Stats.Cost, 8.9) {
		t.Errorf("oracle cost = %v, want 8.9", res.Stats.Cost)
	}
}

func TestCompetitiveRatioNeverExceedsThree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	models := []model.CostModel{
		model.Unit,
		{Mu: 1, Lambda: 0.2},
		{Mu: 1, Lambda: 5},
		{Mu: 0.3, Lambda: 1},
		{Mu: 4, Lambda: 1},
	}
	worst := 0.0
	for trial := 0; trial < 300; trial++ {
		cm := models[trial%len(models)]
		seq := randomSequence(rng, 2+rng.Intn(6), 1+rng.Intn(40), cm.Delta())
		pt, err := CompetitiveRatio(SpeculativeCaching{}, seq, cm)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if pt.Ratio > worst {
			worst = pt.Ratio
		}
		if pt.Ratio > 3+1e-9 {
			t.Fatalf("trial %d: ratio %v > 3 (SC=%v OPT=%v)\nseq=%+v cm=%+v",
				trial, pt.Ratio, pt.Cost, pt.Opt, seq, cm)
		}
	}
	t.Logf("worst observed ratio over 300 random instances: %.4f", worst)
	if worst < 1.0 {
		t.Errorf("worst ratio %v < 1: OPT not optimal or SC undercounting", worst)
	}
}

func TestEpochVariantsAlsoCompetitive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		seq := randomSequence(rng, 4, 30, 1)
		for _, epoch := range []int{1, 3, 10} {
			pt, err := CompetitiveRatio(SpeculativeCaching{EpochTransfers: epoch}, seq, model.Unit)
			if err != nil {
				t.Fatal(err)
			}
			if pt.Ratio > 3+1e-9 {
				t.Fatalf("trial %d epoch %d: ratio %v > 3", trial, epoch, pt.Ratio)
			}
		}
	}
}

func TestDTTransformPreservesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		seq := randomSequence(rng, 5, 25, 1.5)
		run, err := Run(SpeculativeCaching{}, seq, model.Unit)
		if err != nil {
			t.Fatal(err)
		}
		dt := DTTransform(seq, model.Unit, run.Schedule)
		if !approxEq(dt.Total, run.Stats.Cost) {
			t.Fatalf("trial %d: Π(DT)=%v != Π(SC)=%v", trial, dt.Total, run.Stats.Cost)
		}
		for i, w := range dt.Weights {
			if w < model.Unit.Lambda-1e-9 {
				t.Fatalf("trial %d: transfer %d weight %v below λ", trial, i, w)
			}
		}
	}
}

func TestLemmaChecksHold(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	models := []model.CostModel{model.Unit, {Mu: 1, Lambda: 3}, {Mu: 2, Lambda: 1}}
	for trial := 0; trial < 200; trial++ {
		cm := models[trial%len(models)]
		seq := randomSequence(rng, 2+rng.Intn(5), 1+rng.Intn(30), cm.Delta()*1.2)
		lc, err := CheckLemmas(seq, cm, SpeculativeCaching{})
		if err != nil {
			t.Fatal(err)
		}
		if !lc.DTEqualsSC {
			t.Fatalf("trial %d: Π(DT)=%v != Π(SC)=%v", trial, lc.DTTotal, lc.SC)
		}
		if !lc.SCUpper {
			t.Fatalf("trial %d: Lemma 7 violated: SC-V-H=%v > 3n'λ=%v (n'=%d)",
				trial, lc.SC-lc.Red.V-lc.Red.H, 3*float64(lc.Red.NPrime)*cm.Lambda, lc.Red.NPrime)
		}
		if !lc.OptLower {
			t.Fatalf("trial %d: Lemma 8 violated: OPT-V-H=%v < n'λ=%v",
				trial, lc.Opt-lc.Red.V-lc.Red.H, float64(lc.Red.NPrime)*cm.Lambda)
		}
		if !lc.Theorem3 {
			t.Fatalf("trial %d: Theorem 3 violated: SC=%v > 3·OPT=%v", trial, lc.SC, 3*lc.Opt)
		}
	}
}

func TestComputeReductionsByHand(t *testing.T) {
	// Instance from TestSCHandTrace: gaps 5, 0.5, 4.5 → V = 4 + 0 + 3.5.
	// σ: r1=+Inf, r2=0.5 (SR), r3=10 → H = 0.5, n' = 2.
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{
		{Server: 2, Time: 5},
		{Server: 2, Time: 5.5},
		{Server: 1, Time: 10},
	}}
	red := ComputeReductions(seq, model.Unit)
	if !approxEq(red.V, 7.5) {
		t.Errorf("V = %v, want 7.5", red.V)
	}
	if !approxEq(red.H, 0.5) {
		t.Errorf("H = %v, want 0.5", red.H)
	}
	if red.NPrime != 2 {
		t.Errorf("n' = %d, want 2", red.NPrime)
	}
}

func TestAllPoliciesFeasibleOnRandomWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	policies := []Runner{
		SpeculativeCaching{},
		SpeculativeCaching{EpochTransfers: 5},
		SpeculativeCaching{Window: 0.3},
		AlwaysMigrate{},
		KeepEverywhere{},
		Oracle{},
	}
	for trial := 0; trial < 60; trial++ {
		seq := randomSequence(rng, 2+rng.Intn(5), rng.Intn(40), 1)
		for _, p := range policies {
			if _, err := Run(p, seq, model.Unit); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

func TestPolicyOrderingOnBurstyWorkload(t *testing.T) {
	// Interleaved tight rounds punish AlwaysMigrate (it ping-pongs a
	// transfer per request) while the long inter-round gaps punish
	// KeepEverywhere (it holds every copy across them). SC must beat both
	// and stay within 3x of OPT.
	seq := &model.Sequence{M: 4, Origin: 1}
	tm := 0.0
	for round := 0; round < 20; round++ {
		a := model.ServerID(1 + round%4)
		b := model.ServerID(1 + (round+1)%4)
		for k := 0; k < 10; k++ {
			tm += 0.1
			sv := a
			if k%2 == 1 {
				sv = b
			}
			seq.Requests = append(seq.Requests, model.Request{Server: sv, Time: tm})
		}
		tm += 10 // long gap between rounds
	}
	cost := func(p Runner) float64 {
		res, err := Run(p, seq, model.Unit)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cost
	}
	sc := cost(SpeculativeCaching{})
	mig := cost(AlwaysMigrate{})
	keep := cost(KeepEverywhere{})
	opt := cost(Oracle{})
	if sc >= mig {
		t.Errorf("SC (%v) should beat AlwaysMigrate (%v) on bursty workloads", sc, mig)
	}
	if sc >= keep {
		t.Errorf("SC (%v) should beat KeepEverywhere (%v) on long-horizon bursts", sc, keep)
	}
	if sc > 3*opt {
		t.Errorf("SC (%v) above 3x OPT (%v)", sc, opt)
	}
}

func TestRunRejectsInvalidInputs(t *testing.T) {
	bad := &model.Sequence{M: 0}
	for _, p := range []Runner{SpeculativeCaching{}, AlwaysMigrate{}, KeepEverywhere{}} {
		if _, err := p.Run(bad, model.Unit); err == nil {
			t.Errorf("%s accepted an invalid sequence", p.Name())
		}
	}
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{{Server: 2, Time: 1}}}
	if _, err := (SpeculativeCaching{}).Run(seq, model.CostModel{}); err == nil {
		t.Error("SC accepted an invalid cost model")
	}
}

func TestEmptySequenceAllPolicies(t *testing.T) {
	seq := &model.Sequence{M: 3, Origin: 2}
	for _, p := range []Runner{SpeculativeCaching{}, AlwaysMigrate{}, KeepEverywhere{}, Oracle{}} {
		res, err := Run(p, seq, model.Unit)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Stats.Cost != 0 {
			t.Errorf("%s: empty sequence cost %v, want 0", p.Name(), res.Stats.Cost)
		}
	}
}

// TestMultiUserFavorsReplication is the regime the cloud service actually
// faces: several concurrent sticky users with distinct home regions. A
// single nomadic copy must ping-pong between homes, while SC holds a copy
// in each — SC must win decisively, and stay within 3x of OPT.
func TestMultiUserFavorsReplication(t *testing.T) {
	// λ = 4 makes transfers dear relative to each user's ~0.9 revisit gap,
	// so holding a copy per home region is clearly right.
	cm := model.CostModel{Mu: 1, Lambda: 4}
	seq := workload.MultiUser{M: 6, Users: 3, Stay: 0.95, MeanGap: 0.3}.
		Generate(rand.New(rand.NewSource(37)), 1500)
	sc, err := Run(SpeculativeCaching{}, seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	mig, err := Run(AlwaysMigrate{}, seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if float64(sc.Stats.Cost)*1.5 > mig.Stats.Cost {
		t.Errorf("SC %v should beat AlwaysMigrate %v by >1.5x on multi-user traffic",
			sc.Stats.Cost, mig.Stats.Cost)
	}
	pt, err := CompetitiveRatio(SpeculativeCaching{}, seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Ratio > 3 {
		t.Errorf("ratio %v exceeds 3", pt.Ratio)
	}
}

// TestAdversarialPressure builds the miss-inducing pattern — alternating
// servers spaced just past the speculative window — and checks the measured
// ratio is materially above 1 (the adversary bites) yet at most 3.
func TestAdversarialPressure(t *testing.T) {
	cm := model.Unit // Δt = 1
	seq := &model.Sequence{M: 2, Origin: 1}
	tm := 0.0
	for i := 0; i < 50; i++ {
		tm += 1.01
		seq.Requests = append(seq.Requests, model.Request{
			Server: model.ServerID(1 + i%2), Time: tm,
		})
	}
	pt, err := CompetitiveRatio(SpeculativeCaching{}, seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Ratio <= 1.2 {
		t.Errorf("adversarial ratio %v unexpectedly small", pt.Ratio)
	}
	if pt.Ratio > 3+1e-9 {
		t.Errorf("adversarial ratio %v exceeds 3", pt.Ratio)
	}
}
