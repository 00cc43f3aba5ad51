package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datacache/internal/model"
	"datacache/internal/offline"
)

// Scale returns a copy of the sequence with every request time multiplied
// by alpha > 0. Together with dividing the caching rate μ by alpha it
// leaves every schedule cost invariant — the time-unit freedom of the cost
// model, asserted by TestScaleInvariance.
func Scale(seq *model.Sequence, alpha float64) (*model.Sequence, error) {
	if !(alpha > 0) {
		return nil, fmt.Errorf("workload: scale factor %v must be positive", alpha)
	}
	out := seq.Clone()
	for i := range out.Requests {
		out.Requests[i].Time *= alpha
	}
	return out, out.Validate()
}

func approxEq(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b)) }

// TestScaleInvariance asserts the time-unit freedom of the cost model: for
// any α > 0, the optimal cost of the α-scaled instance under rate μ/α
// equals the optimal cost of the original under μ.
func TestScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	for trial := 0; trial < 100; trial++ {
		seq := Uniform{M: 2 + rng.Intn(4), MeanGap: 0.5}.Generate(rng, 1+rng.Intn(30))
		cm := model.CostModel{Mu: 0.3 + rng.Float64()*2, Lambda: 0.3 + rng.Float64()*2}
		alpha := 0.1 + rng.Float64()*5
		scaled, err := Scale(seq, alpha)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := offline.FastDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		scaledRes, err := offline.FastDP(scaled, model.CostModel{Mu: cm.Mu / alpha, Lambda: cm.Lambda})
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(orig.Cost(), scaledRes.Cost()) {
			t.Fatalf("trial %d: scale invariance broken: %v vs %v (α=%v)",
				trial, orig.Cost(), scaledRes.Cost(), alpha)
		}
	}
}

// TestCostHomogeneity asserts degree-1 homogeneity: multiplying both rates
// by c multiplies the optimum by c.
func TestCostHomogeneity(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 100; trial++ {
		seq := MarkovHop{M: 4, Stay: 0.7, MeanGap: 0.8}.Generate(rng, 1+rng.Intn(25))
		cm := model.CostModel{Mu: 0.5 + rng.Float64(), Lambda: 0.5 + rng.Float64()}
		c := 0.2 + rng.Float64()*8
		a, err := offline.FastDP(seq, cm)
		if err != nil {
			t.Fatal(err)
		}
		b, err := offline.FastDP(seq, model.CostModel{Mu: c * cm.Mu, Lambda: c * cm.Lambda})
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(c*a.Cost(), b.Cost()) {
			t.Fatalf("trial %d: homogeneity broken: c*%v != %v (c=%v)", trial, a.Cost(), b.Cost(), c)
		}
	}
}

func TestScaleErrors(t *testing.T) {
	seq := &model.Sequence{M: 2, Origin: 1, Requests: []model.Request{{Server: 1, Time: 1}}}
	for _, alpha := range []float64{0, -1, math.Inf(1)} {
		if _, err := Scale(seq, alpha); err == nil && alpha <= 0 {
			t.Errorf("Scale accepted alpha=%v", alpha)
		}
	}
}
