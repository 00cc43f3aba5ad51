package offline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datacache/internal/model"
)

const eps = 1e-9

func approxEq(a, b float64) bool { return math.Abs(a-b) <= 1e-6 }

// VerifyBound confirms B_n <= C(n), the Definition-5 lower-bound property.
// It returns an error describing the violation, if any.
func (r *Result) VerifyBound() error {
	n := len(r.C) - 1
	if r.B[n] > r.C[n]+1e-9 {
		return fmt.Errorf("offline: running bound B_n=%v exceeds optimal cost C_n=%v", r.B[n], r.C[n])
	}
	return nil
}

// randomInstance draws a small random instance for cross-checking the three
// solvers against each other.
func randomInstance(rng *rand.Rand, maxM, maxN int) (*model.Sequence, model.CostModel) {
	m := 1 + rng.Intn(maxM)
	n := rng.Intn(maxN + 1)
	seq := &model.Sequence{M: m, Origin: model.ServerID(1 + rng.Intn(m))}
	t := 0.0
	for i := 0; i < n; i++ {
		t += 0.01 + rng.Float64()*2
		seq.Requests = append(seq.Requests, model.Request{
			Server: model.ServerID(1 + rng.Intn(m)),
			Time:   t,
		})
	}
	cm := model.CostModel{Mu: 0.1 + rng.Float64()*3, Lambda: 0.1 + rng.Float64()*3}
	return seq, cm
}

func TestFig6Golden(t *testing.T) {
	seq, cm := Fig6Instance()
	res, err := FastDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= seq.N(); i++ {
		if !approxEq(res.C[i], Fig6C[i]) {
			t.Errorf("C(%d) = %v, paper prints %v", i, res.C[i], Fig6C[i])
		}
		if Fig6D[i] == Fig6Inf {
			if !math.IsInf(res.D[i], 1) {
				t.Errorf("D(%d) = %v, paper prints +Inf", i, res.D[i])
			}
		} else if !approxEq(res.D[i], Fig6D[i]) {
			t.Errorf("D(%d) = %v, paper prints %v", i, res.D[i], Fig6D[i])
		}
	}
	if !approxEq(res.Cost(), 8.9) {
		t.Errorf("optimal cost = %v, paper prints 8.9", res.Cost())
	}
	if !approxEq(res.B[7], 6.6) {
		t.Errorf("B_7 = %v, paper prints 6.6", res.B[7])
	}
}

// TestFig6SectionIVArithmetic re-derives the four D(7) candidate values the
// paper prints while explaining Recurrence (5):
// boundary C(2)+3.2+B_6-B_2 = 9.6 and pivot κ=4 giving 4.4+3.2+5.6-4 = 9.2.
func TestFig6SectionIVArithmetic(t *testing.T) {
	seq, cm := Fig6Instance()
	res, err := FastDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	boundary := res.C[2] + 3.2 + res.B[6] - res.B[2]
	if !approxEq(boundary, 9.6) {
		t.Errorf("boundary candidate = %v, paper prints 9.6", boundary)
	}
	pivot4 := res.D[4] + 3.2 + res.B[6] - res.B[4]
	if !approxEq(pivot4, 9.2) {
		t.Errorf("κ=4 candidate = %v, paper prints 9.2", pivot4)
	}
	pivot5 := res.D[5] + 3.2 + res.B[6] - res.B[5]
	if !approxEq(pivot5, 10.3) {
		t.Errorf("κ=5 candidate = %v, paper prints 10.3 (its 10.03 is a typo)", pivot5)
	}
	if !approxEq(res.D[7], 9.2) {
		t.Errorf("D(7) = %v, want the κ=4 candidate 9.2", res.D[7])
	}
	if !approxEq(res.C[7], math.Min(res.D[7], res.C[6]+0.8+1)) {
		t.Errorf("C(7) = %v violates Recurrence (2)", res.C[7])
	}
}

func TestFig2Golden(t *testing.T) {
	seq, cm := Fig2Instance()
	res, err := FastDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(res.Cost(), Fig2Cost) {
		t.Fatalf("optimal cost = %v, want %v", res.Cost(), Fig2Cost)
	}
	sched, err := res.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(seq); err != nil {
		t.Fatalf("reconstructed schedule infeasible: %v", err)
	}
	if got := sched.CachingCost(cm); !approxEq(got, Fig2CachingCost) {
		t.Errorf("caching cost = %v, caption prints %v", got, Fig2CachingCost)
	}
	if got := sched.TransferCost(cm); !approxEq(got, Fig2TransferCost) {
		t.Errorf("transfer cost = %v, caption prints %v", got, Fig2TransferCost)
	}
	// Independent certificate of optimality.
	opt, err := SubsetOptimal(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(opt, Fig2Cost) {
		t.Errorf("subset oracle disagrees: %v", opt)
	}
}

func TestFig6ScheduleFeasibleAndOptimal(t *testing.T) {
	seq, cm := Fig6Instance()
	res, err := FastDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := res.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(seq); err != nil {
		t.Fatalf("schedule infeasible: %v", err)
	}
	if got := sched.Cost(cm); !approxEq(got, res.Cost()) {
		t.Errorf("reconstructed cost %v != DP cost %v (%s)", got, res.Cost(), sched)
	}
	opt, err := SubsetOptimal(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(opt, res.Cost()) {
		t.Errorf("subset oracle %v != DP %v", opt, res.Cost())
	}
}

func TestEmptySequence(t *testing.T) {
	seq := &model.Sequence{M: 3, Origin: 2}
	res, err := FastDP(seq, model.Unit)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost() != 0 {
		t.Errorf("empty sequence cost = %v, want 0", res.Cost())
	}
	sched, err := res.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Caches) != 0 || len(sched.Transfers) != 0 {
		t.Errorf("empty sequence schedule not empty: %s", sched)
	}
	opt, err := SubsetOptimal(seq, model.Unit)
	if err != nil || opt != 0 {
		t.Errorf("subset oracle on empty = (%v, %v), want (0, nil)", opt, err)
	}
}

func TestSingleRequestAtOrigin(t *testing.T) {
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{{Server: 1, Time: 3}}}
	res, err := FastDP(seq, model.CostModel{Mu: 2, Lambda: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Cheapest: cache the origin copy for 3 time units at μ=2.
	if !approxEq(res.Cost(), 6) {
		t.Errorf("cost = %v, want 6", res.Cost())
	}
}

func TestSingleRequestElsewhere(t *testing.T) {
	cm := model.CostModel{Mu: 2, Lambda: 5}
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{{Server: 2, Time: 3}}}
	res, err := FastDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	// Cache at origin (6) plus one transfer (5).
	if !approxEq(res.Cost(), 11) {
		t.Errorf("cost = %v, want 11", res.Cost())
	}
	sched, err := res.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(seq); err != nil {
		t.Fatal(err)
	}
	if len(sched.Transfers) != 1 {
		t.Errorf("want exactly 1 transfer, got %s", sched)
	}
}

func TestAllRequestsSameServerCheapCaching(t *testing.T) {
	// With λ huge, the optimum caches the origin copy the whole horizon and
	// never transfers (all requests are at the origin).
	cm := model.CostModel{Mu: 1, Lambda: 1000}
	seq := &model.Sequence{M: 3, Origin: 1}
	for i := 1; i <= 10; i++ {
		seq.Requests = append(seq.Requests, model.Request{Server: 1, Time: float64(i)})
	}
	res, err := FastDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(res.Cost(), 10) {
		t.Errorf("cost = %v, want 10 (pure caching)", res.Cost())
	}
	sched, _ := res.Schedule()
	if len(sched.Transfers) != 0 {
		t.Errorf("expected no transfers, got %s", sched)
	}
}

func TestExpensiveCachingPrefersTransfers(t *testing.T) {
	// With μ huge and requests far apart on two servers, the optimum still
	// must cache *somewhere* but should never double-cache; each request is
	// reached by migrating the single copy.
	cm := model.CostModel{Mu: 100, Lambda: 0.5}
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{
		{Server: 2, Time: 1},
		{Server: 1, Time: 2},
		{Server: 2, Time: 3},
	}}
	res, err := FastDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	// One copy alive over [0,3] on the origin costs 300, serves the middle
	// request for free, and pays two transfers to s2: 300 + 2λ = 301.
	if !approxEq(res.Cost(), 301) {
		t.Errorf("cost = %v, want 301", res.Cost())
	}
	sched, err := res.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(seq); err != nil {
		t.Fatal(err)
	}
	if got := len(sched.Transfers); got != 2 {
		t.Errorf("transfers = %d, want 2 (%s)", got, sched)
	}
}

func TestInvalidInputs(t *testing.T) {
	bad := &model.Sequence{M: 0}
	if _, err := FastDP(bad, model.Unit); err == nil {
		t.Error("FastDP accepted invalid sequence")
	}
	if _, err := NaiveDP(bad, model.Unit); err == nil {
		t.Error("NaiveDP accepted invalid sequence")
	}
	if _, err := SubsetOptimal(bad, model.Unit); err == nil {
		t.Error("SubsetOptimal accepted invalid sequence")
	}
	seq, _ := Fig6Instance()
	if _, err := FastDP(seq, model.CostModel{}); err == nil {
		t.Error("FastDP accepted invalid cost model")
	}
	big := &model.Sequence{M: MaxSubsetServers + 1, Origin: 1}
	if _, err := SubsetOptimal(big, model.Unit); err == nil {
		t.Error("SubsetOptimal accepted oversized m")
	}
}

func TestFastEqualsNaiveEqualsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		seq, cm := randomInstance(rng, 5, 12)
		fast, err := FastDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := SweepDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fast.C {
			if !approxEq(fast.C[i], naive.C[i]) || !approxEq(fast.C[i], sweep.C[i]) {
				t.Fatalf("trial %d: C(%d) fast %v naive %v sweep %v\nseq=%+v cm=%+v",
					trial, i, fast.C[i], naive.C[i], sweep.C[i], seq, cm)
			}
			di, dj, dk := fast.D[i], naive.D[i], sweep.D[i]
			if math.IsInf(di, 1) != math.IsInf(dj, 1) || (!math.IsInf(di, 1) && !approxEq(di, dj)) {
				t.Fatalf("trial %d: D(%d) fast %v != naive %v", trial, i, di, dj)
			}
			if math.IsInf(di, 1) != math.IsInf(dk, 1) || (!math.IsInf(di, 1) && !approxEq(di, dk)) {
				t.Fatalf("trial %d: D(%d) fast %v != sweep %v", trial, i, di, dk)
			}
		}
		opt, err := SubsetOptimal(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(opt, fast.Cost()) {
			t.Fatalf("trial %d: oracle %v != FastDP %v\nseq=%+v cm=%+v",
				trial, opt, fast.Cost(), seq, cm)
		}
	}
}

func TestReconstructionFeasibleAndTight(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 400; trial++ {
		seq, cm := randomInstance(rng, 6, 16)
		res, err := FastDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := res.Schedule()
		if err != nil {
			t.Fatalf("trial %d: %v\nseq=%+v", trial, err, seq)
		}
		if err := sched.Validate(seq); err != nil {
			t.Fatalf("trial %d: infeasible reconstruction: %v\nseq=%+v cm=%+v sched=%s",
				trial, err, seq, cm, sched)
		}
		if got := sched.Cost(cm); !approxEq(got, res.Cost()) {
			t.Fatalf("trial %d: reconstructed cost %v != DP %v\nseq=%+v cm=%+v sched=%s",
				trial, got, res.Cost(), seq, cm, sched)
		}
		if err := res.VerifyBound(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestNaiveReconstructionAlsoOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		seq, cm := randomInstance(rng, 4, 10)
		res, err := NaiveDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := res.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Validate(seq); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := sched.Cost(cm); !approxEq(got, res.Cost()) {
			t.Fatalf("trial %d: cost %v != %v", trial, got, res.Cost())
		}
	}
}

// TestRunningBoundTightOnSparseSequences checks the known structure: when
// consecutive requests are farther apart than λ/μ and alternate servers,
// the bound B_n = nλ while the optimum also pays coverage, so B_n < C(n)
// strictly; on dense same-server sequences the bound is tight.
func TestRunningBoundTightOnSparseSequences(t *testing.T) {
	cm := model.Unit
	dense := &model.Sequence{M: 2, Origin: 1}
	for i := 1; i <= 20; i++ {
		dense.Requests = append(dense.Requests, model.Request{Server: 1, Time: float64(i) * 0.1})
	}
	res, err := FastDP(dense, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(res.Cost(), res.B[dense.N()]) {
		t.Errorf("dense same-server: C %v should equal B %v", res.Cost(), res.B[dense.N()])
	}

	sparse := &model.Sequence{M: 2, Origin: 1}
	for i := 1; i <= 20; i++ {
		sparse.Requests = append(sparse.Requests, model.Request{
			Server: model.ServerID(1 + i%2), Time: float64(i) * 5,
		})
	}
	res, err = FastDP(sparse, cm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost() <= res.B[sparse.N()]+eps {
		t.Errorf("sparse alternating: C %v should strictly exceed B %v", res.Cost(), res.B[sparse.N()])
	}
}

// TestScalingSanity runs FastDP on a larger instance to exercise the pointer
// machinery beyond toy sizes and confirms agreement with NaiveDP.
func TestScalingSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	seq := &model.Sequence{M: 32, Origin: 1}
	tm := 0.0
	for i := 0; i < 3000; i++ {
		tm += 0.01 + rng.Float64()
		seq.Requests = append(seq.Requests, model.Request{
			Server: model.ServerID(1 + rng.Intn(32)), Time: tm,
		})
	}
	cm := model.CostModel{Mu: 1, Lambda: 4}
	fast, err := FastDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := SweepDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(fast.Cost(), sweep.Cost()) {
		t.Fatalf("fast %v != sweep %v at n=3000", fast.Cost(), sweep.Cost())
	}
	sched, err := fast.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(seq); err != nil {
		t.Fatal(err)
	}
	if got := sched.Cost(cm); !approxEq(got, fast.Cost()) {
		t.Fatalf("reconstructed %v != %v", got, fast.Cost())
	}
}
