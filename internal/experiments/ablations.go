package experiments

import (
	"fmt"
	"math/rand"

	"datacache/internal/model"
	"datacache/internal/offline"
	"datacache/internal/online"
	"datacache/internal/stats"
	"datacache/internal/workload"
)

// Replication is ablation E10: how much of the optimum's advantage comes
// from holding multiple copies? It compares the unrestricted optimum
// (FastDP) against the optimal *single-copy* schedule and the cheap O(n)
// bounds, across workloads whose revisit gaps straddle the speculative
// window — the regime boundary where replication starts paying.
func Replication(seed int64, n int) (*Report, error) {
	cm := model.Unit
	rep := &Report{
		ID:    "E10/Replication",
		Title: "Value of replication: unrestricted vs single-copy optimum",
		Table: &stats.Table{Header: []string{"workload", "OPT", "single-copy OPT", "single/OPT", "lower bound", "upper bound"}},
	}
	gens := []workload.Generator{
		workload.MarkovHop{M: 6, Stay: 0.9, MeanGap: 0.2}, // tight revisits: replication pays
		workload.MarkovHop{M: 6, Stay: 0.9, MeanGap: 2.0}, // loose revisits: one copy suffices
		workload.Bursty{M: 6, BurstLen: 8, WithinGap: 0.1, BetweenGap: 6},
		workload.Uniform{M: 6, MeanGap: 0.15},
		workload.Uniform{M: 6, MeanGap: 3},
	}
	for _, g := range gens {
		seq := g.Generate(rand.New(rand.NewSource(seed)), n)
		opt, err := offline.FastDP(seq, cm)
		if err != nil {
			return nil, err
		}
		single, err := offline.SingleCopyOptimal(seq, cm)
		if err != nil {
			return nil, err
		}
		bounds, err := offline.ComputeBounds(seq, cm)
		if err != nil {
			return nil, err
		}
		rep.Table.Add(g.Name(), opt.Cost(), single, single/opt.Cost(), bounds.Lower, bounds.Upper)
	}
	rep.notef("single/OPT ≈ 1 when revisit gaps exceed Δt=λ/μ; replication pays below it")
	return rep, nil
}

// Window is ablation E11: the retention-window design choice. It sweeps
// fixed TTL multiples of Δt and includes the learning AdaptiveTTL, across
// workload families; SC is the w = Δt column. The sweep shows Δt is the
// best *fixed* window only in the worst case — per-workload optima differ,
// which is precisely what AdaptiveTTL exploits.
func Window(seed int64, n int) (*Report, error) {
	cm := model.Unit
	multiples := []float64{0.25, 0.5, 1, 2, 4}
	header := []string{"workload", "OPT"}
	for _, f := range multiples {
		if f == 1 {
			header = append(header, "SC(Δt)/OPT")
		} else {
			header = append(header, fmt.Sprintf("TTL(%gΔt)/OPT", f))
		}
	}
	header = append(header, "AdaptiveTTL/OPT")
	rep := &Report{
		ID:    "E11/Window",
		Title: "Retention-window ablation: fixed TTL sweep vs learning",
		Table: &stats.Table{Header: header},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, g := range workload.Standard(8, cm.Delta()) {
		seq := g.Generate(rng, n)
		opt, err := offline.FastDP(seq, cm)
		if err != nil {
			return nil, err
		}
		row := []interface{}{g.Name(), opt.Cost()}
		for _, f := range multiples {
			res, err := online.Run(online.SpeculativeCaching{Window: cm.Delta() * f}, seq, cm)
			if err != nil {
				return nil, err
			}
			row = append(row, res.Stats.Cost/opt.Cost())
		}
		ad, err := online.Run(online.AdaptiveTTL{}, seq, cm)
		if err != nil {
			return nil, err
		}
		row = append(row, ad.Stats.Cost/opt.Cost())
		rep.Table.Add(row...)
	}
	rep.notef("only w = Δt carries the 3-competitive guarantee; AdaptiveTTL trades the proof for per-workload fit")
	return rep, nil
}

// Epoch is ablation E12: the epoch-restart design choice of the SC
// algorithm. The proof is per-epoch, so any epoch size keeps the bound;
// the sweep measures what restarts actually cost or save, and each finite
// epoch size's run is carved into its epochs (online.AnalyzeEpochs) to
// check the per-epoch form of Theorem 3 directly.
func Epoch(seed int64, n int) (*Report, error) {
	cm := model.Unit
	epochs := []int{0, 1, 4, 16, 64}
	header := []string{"workload"}
	for _, e := range epochs {
		if e == 0 {
			header = append(header, "no epochs")
		} else {
			header = append(header, fmt.Sprintf("epoch=%d", e))
		}
	}
	rep := &Report{
		ID:    "E12/Epoch",
		Title: "Epoch-size ablation for SC (cost normalized to OPT)",
		Table: &stats.Table{Header: header},
	}
	rng := rand.New(rand.NewSource(seed))
	worst, worstEpoch := 0.0, 0.0
	for _, g := range workload.Standard(8, cm.Delta()) {
		seq := g.Generate(rng, n)
		opt, err := offline.FastDP(seq, cm)
		if err != nil {
			return nil, err
		}
		row := []interface{}{g.Name()}
		for _, e := range epochs {
			res, err := online.Run(online.SpeculativeCaching{EpochTransfers: e}, seq, cm)
			if err != nil {
				return nil, err
			}
			ratio := res.Stats.Cost / opt.Cost()
			if ratio > worst {
				worst = ratio
			}
			row = append(row, ratio)
			if e > 0 {
				epochStats, err := online.AnalyzeEpochs(seq, cm, e)
				if err != nil {
					return nil, err
				}
				if w := online.WorstEpochRatio(epochStats); w > worstEpoch {
					worstEpoch = w
				}
			}
		}
		rep.Table.Add(row...)
	}
	rep.notef("worst ratio across all epoch sizes: %.4f <= 3 (the per-epoch proof composes)", worst)
	rep.notef("worst per-epoch ratio, each epoch against its own sub-instance's OPT: %.4f <= 3 (Theorem 3 per epoch)", worstEpoch)
	return rep, nil
}
