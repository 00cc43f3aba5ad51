package hetero

import (
	"math"
	"math/rand"
	"testing"

	"datacache/internal/model"
	"datacache/internal/offline"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b)) }

func randomInstance(rng *rand.Rand, maxM, maxN int) *model.Sequence {
	m := 1 + rng.Intn(maxM)
	seq := &model.Sequence{M: m, Origin: model.ServerID(1 + rng.Intn(m))}
	t := 0.0
	for i := 0; i < rng.Intn(maxN+1); i++ {
		t += 0.01 + rng.Float64()*2
		seq.Requests = append(seq.Requests, model.Request{
			Server: model.ServerID(1 + rng.Intn(m)), Time: t,
		})
	}
	return seq
}

func TestUniformModelMatchesFastDP(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		seq := randomInstance(rng, 5, 10)
		cm := model.CostModel{Mu: 0.2 + rng.Float64()*2, Lambda: 0.2 + rng.Float64()*2}
		h := NewUniform(seq.M, cm)
		got, err := Optimal(seq, h)
		if err != nil {
			t.Fatal(err)
		}
		want, err := offline.FastDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(got, want.Cost()) {
			t.Fatalf("trial %d: hetero uniform %v != FastDP %v\nseq=%+v cm=%+v",
				trial, got, want.Cost(), seq, cm)
		}
	}
}

func TestHeteroOptimalNeverAboveUniformPricing(t *testing.T) {
	// Pricing the homogeneous-optimal schedule under the heterogeneous model
	// upper-bounds the heterogeneous optimum (it is one feasible schedule).
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 100; trial++ {
		seq := randomInstance(rng, 5, 10)
		cm := model.Unit
		h := NewUniform(seq.M, cm)
		h.Perturb(0.4, rng.Float64)
		res, err := offline.FastDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := res.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Optimal(seq, h)
		if err != nil {
			t.Fatal(err)
		}
		if priced := PriceSchedule(sched, h); priced < opt-1e-6 {
			t.Fatalf("trial %d: homogeneous schedule priced %v below hetero optimum %v",
				trial, priced, opt)
		}
	}
}

func TestHomogeneousGapGrowsWithSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	seq := &model.Sequence{M: 4, Origin: 1}
	tm := 0.0
	for i := 0; i < 40; i++ {
		tm += 0.2 + rng.Float64()
		seq.Requests = append(seq.Requests, model.Request{
			Server: model.ServerID(1 + rng.Intn(4)), Time: tm,
		})
	}
	cm := model.Unit
	res, err := offline.FastDP(seq, cm)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := res.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	// The gap is E9's regret of assuming homogeneity: the homogeneous
	// optimum priced under the skewed truth, relative to the skewed optimum.
	gapAt := func(eps float64, seed int64) float64 {
		h := NewUniform(seq.M, cm)
		pr := rand.New(rand.NewSource(seed))
		h.Perturb(eps, pr.Float64)
		opt, err := Optimal(seq, h)
		if err != nil {
			t.Fatal(err)
		}
		return (PriceSchedule(sched, h) - opt) / opt
	}
	small := gapAt(0.01, 7)
	large := gapAt(0.8, 7)
	if small < -1e-9 {
		t.Errorf("gap at eps=0.01 is negative: %v", small)
	}
	if large <= small {
		t.Errorf("gap should grow with skew: eps=0.01 → %v, eps=0.8 → %v", small, large)
	}
}

func TestHeteroExploitsCheapServer(t *testing.T) {
	// Server 2 caches nearly for free and receives a request of its own, so
	// the optimum migrates there and parks: s1 [0,10] (10) + transfer (1) +
	// s2 [10,20] (0.01) + transfer back (1) = 12.01.
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{
		{Server: 2, Time: 10},
		{Server: 1, Time: 20},
	}}
	h := NewUniform(2, model.Unit)
	h.Mu[2] = 0.001
	opt, err := Optimal(seq, h)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 + 1 + 0.01 + 1.0
	if !approxEq(opt, want) {
		t.Errorf("opt = %v, want %v", opt, want)
	}
}

func TestStandardFormExcludesVantageParking(t *testing.T) {
	// Both requests are on s1, so the copy can never legally move to the
	// free-caching s2 (standard-form transfers end on requesting servers):
	// the optimum is plain caching on s1 over [0,20].
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{
		{Server: 1, Time: 10},
		{Server: 1, Time: 20},
	}}
	h := NewUniform(2, model.Unit)
	h.Mu[2] = 0.001
	opt, err := Optimal(seq, h)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(opt, 20) {
		t.Errorf("opt = %v, want 20 (vantage parking is outside the policy class)", opt)
	}
}

func TestHeteroAsymmetricTransfers(t *testing.T) {
	// s1->s2 is expensive, s2->s1 cheap; serving a one-shot request on s2
	// still needs the expensive direction.
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{
		{Server: 2, Time: 1},
		{Server: 1, Time: 2},
	}}
	h := NewUniform(2, model.Unit)
	h.Lambda[1][2] = 5
	h.Lambda[2][1] = 0.1
	opt, err := Optimal(seq, h)
	if err != nil {
		t.Fatal(err)
	}
	// Either keep s1 alive (cache 2.0) + one expensive transfer (5) = 7, or
	// migrate: s1 [0,1] + 5 + s2 [1,2] + 0.1 = 7.1. Optimum picks 7... but
	// keeping both copies [0,1]+[1,2] vs single: single copy s1 [0,2] = 2,
	// transfer 5 (copy deleted immediately on s2) → 7.
	if !approxEq(opt, 7) {
		t.Errorf("opt = %v, want 7", opt)
	}
}

func TestValidateErrors(t *testing.T) {
	h := NewUniform(3, model.Unit)
	if err := h.Validate(4); err == nil {
		t.Error("size mismatch accepted")
	}
	h.Mu[2] = -1
	if err := h.Validate(3); err == nil {
		t.Error("negative rate accepted")
	}
	h = NewUniform(3, model.Unit)
	h.Lambda[1][2] = 0
	if err := h.Validate(3); err == nil {
		t.Error("zero transfer cost accepted")
	}
	big := &model.Sequence{M: MaxServers + 1, Origin: 1}
	if _, err := Optimal(big, NewUniform(MaxServers+1, model.Unit)); err == nil {
		t.Error("oversized m accepted")
	}
	if _, err := Optimal(&model.Sequence{M: 0}, h); err == nil {
		t.Error("invalid sequence accepted")
	}
}

func TestEmptySequenceZeroCost(t *testing.T) {
	seq := &model.Sequence{M: 2, Origin: 1}
	opt, err := Optimal(seq, NewUniform(2, model.Unit))
	if err != nil || opt != 0 {
		t.Errorf("empty: (%v, %v)", opt, err)
	}
}
