package online

import (
	"math"

	"datacache/internal/engine"
	"datacache/internal/model"
	"datacache/internal/offline"
)

// AlwaysMigrate keeps exactly one copy at all times and migrates it to every
// request that misses: serve-by-transfer, delete the source. It is the
// natural "no speculation" lower end of the policy family: its caching cost
// is exactly μ·t_n (one copy, always) and its transfer cost λ per server
// switch.
type AlwaysMigrate struct{}

// Name implements Runner.
func (AlwaysMigrate) Name() string { return "AlwaysMigrate" }

// Run implements Runner by replaying the sequence through the engine's
// Migrate decider.
func (AlwaysMigrate) Run(seq *model.Sequence, cm model.CostModel) (*model.Schedule, error) {
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	return engine.Replay(&engine.Migrate{}, seq, cm)
}

// KeepEverywhere replicates greedily and never deletes: the first miss on a
// server pulls a copy that then stays alive to the end of the horizon. It is
// the "infinite cache, no cost control" upper end of the family — few
// transfers, unbounded caching spend.
type KeepEverywhere struct{}

// Name implements Runner.
func (KeepEverywhere) Name() string { return "KeepEverywhere" }

// Run implements Runner by replaying the sequence through the engine's
// Replicate decider.
func (KeepEverywhere) Run(seq *model.Sequence, cm model.CostModel) (*model.Schedule, error) {
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	return engine.Replay(&engine.Replicate{}, seq, cm)
}

// CompetitivePoint is one measured ratio sample.
type CompetitivePoint struct {
	Policy string
	N      int
	Cost   float64 // policy cost
	Opt    float64 // FastDP optimum
	Ratio  float64 // Cost / Opt (1 when Opt == 0)
}

// CompetitiveRatio runs a policy and the off-line optimum on the same
// instance and reports the ratio. Theorem 3 promises Ratio <= 3 for
// SpeculativeCaching on every instance; the property tests and experiment E6
// assert exactly that.
func CompetitiveRatio(p Runner, seq *model.Sequence, cm model.CostModel) (CompetitivePoint, error) {
	run, err := Run(p, seq, cm)
	if err != nil {
		return CompetitivePoint{}, err
	}
	opt, err := offline.FastDP(seq, cm)
	if err != nil {
		return CompetitivePoint{}, err
	}
	pt := CompetitivePoint{Policy: p.Name(), N: seq.N(), Cost: run.Stats.Cost, Opt: opt.Cost()}
	if pt.Opt > 0 {
		pt.Ratio = pt.Cost / pt.Opt
	} else if pt.Cost == 0 {
		pt.Ratio = 1
	} else {
		pt.Ratio = math.Inf(1)
	}
	return pt, nil
}
