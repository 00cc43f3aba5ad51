package engine

import (
	"math"
	"math/rand"
	"testing"

	"datacache/internal/model"
)

// The per-server attribution must sum to what the schedule-based
// accounting reports, up to floating-point accumulation order, at every
// prefix and after Finish, for every SC parameterization that exercises
// transfers, drops, epoch resets and capacity evictions.
func TestCostBreakdownSumsToCost(t *testing.T) {
	cm := model.CostModel{Mu: 1, Lambda: 2}
	deciders := map[string]func() Decider{
		"sc":    func() Decider { return &SC{} },
		"epoch": func() Decider { return &SC{EpochTransfers: 5} },
		"cap":   func() Decider { return &SC{MaxCopies: 2} },
		"ttl":   func() Decider { return &SC{Window: 0.3} },
	}
	for name, mk := range deciders {
		t.Run(name, func(t *testing.T) {
			const m = 6
			rng := rand.New(rand.NewSource(7))
			st, err := NewStream(mk(), State{M: m, Origin: 1, Model: cm})
			if err != nil {
				t.Fatal(err)
			}
			now := 0.0
			for i := 0; i < 400; i++ {
				now += 0.05 + rng.Float64()*2.5
				if _, err := st.Serve(model.ServerID(1+rng.Intn(m)), now); err != nil {
					t.Fatal(err)
				}
				if i%17 == 0 {
					checkBreakdown(t, st, cm, st.Cost(cm))
				}
			}
			checkBreakdown(t, st, cm, st.Cost(cm))

			sched, err := st.Finish(now + 1)
			if err != nil {
				t.Fatal(err)
			}
			checkBreakdown(t, st, cm, sched.Cost(cm))
		})
	}
}

func checkBreakdown(t *testing.T, st *Stream, cm model.CostModel, want float64) {
	t.Helper()
	bd := st.CostBreakdown(cm)
	sum, xfers, live := 0.0, 0, 0
	for _, sc := range bd {
		if sc.Caching < 0 || sc.Transfer < 0 {
			t.Fatalf("negative attribution on s%d: %+v", sc.Server, sc)
		}
		sum += sc.Cost()
		xfers += sc.Transfers
		if sc.Live {
			live++
		}
	}
	if math.Abs(sum-want) > 1e-9 {
		t.Fatalf("breakdown sum %v != stream cost %v (diff %g)", sum, want, sum-want)
	}
	if xfers != st.Transfers() {
		t.Fatalf("breakdown transfers %d != stream transfers %d", xfers, st.Transfers())
	}
	if live != st.Live() {
		t.Fatalf("breakdown live count %d != stream live %d", live, st.Live())
	}
}
