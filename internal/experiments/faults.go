package experiments

import (
	"math/rand"

	"datacache/internal/cloudsim"
	"datacache/internal/model"
	"datacache/internal/online"
	"datacache/internal/stats"
	"datacache/internal/workload"
)

// Faults is experiment E14: availability economics under copy loss. The
// paper's model guarantees a live copy by construction; real clusters lose
// copies. The sweep injects Poisson copy-wipes at increasing intensity and
// measures the total bill and the number of β-uploads (recoveries from
// external storage, the paper's Table II β) for two β regimes — cheap
// re-upload and expensive re-upload — quantifying how much the
// speculative-caching redundancy is worth as insurance.
func Faults(seed int64, n int) (*Report, error) {
	cm := model.Unit
	rep := &Report{
		ID:    "E14/Faults",
		Title: "Fault injection: cost and β-uploads vs copy-loss intensity",
		Table: &stats.Table{Header: []string{"fault rate", "faults", "losses", "uploads(β=2)", "cost(β=2)", "uploads(β=20)", "cost(β=20)", "baseline"}},
	}
	rng := rand.New(rand.NewSource(seed))
	seq := workload.MarkovHop{M: 6, Stay: 0.75, MeanGap: 0.6}.Generate(rng, n)
	base, err := online.Run(online.SpeculativeCaching{}, seq, cm)
	if err != nil {
		return nil, err
	}
	horizon := seq.End()
	for _, rate := range []float64{0, 0.02, 0.05, 0.1, 0.25} {
		faults := poissonFaults(rand.New(rand.NewSource(seed+7)), seq.M, horizon, rate)
		cheap, err := cloudsim.RunWithFaults(seq, cm, faults, 2)
		if err != nil {
			return nil, err
		}
		dear, err := cloudsim.RunWithFaults(seq, cm, faults, 20)
		if err != nil {
			return nil, err
		}
		rep.Table.Add(rate, len(faults), cheap.Lost, cheap.Uploads, cheap.Cost,
			dear.Uploads, dear.Cost, base.Stats.Cost)
	}
	rep.notef("losses rarely force uploads until the wipe rate rivals the request rate: the speculative replicas double as fault tolerance")
	return rep, nil
}

// poissonFaults draws per-server Poisson wipe times over the horizon.
func poissonFaults(rng *rand.Rand, m int, horizon, ratePerServer float64) []cloudsim.Fault {
	var out []cloudsim.Fault
	if ratePerServer <= 0 {
		return out
	}
	for j := 1; j <= m; j++ {
		t := 0.0
		for {
			t += rng.ExpFloat64() / ratePerServer
			if t >= horizon {
				break
			}
			out = append(out, cloudsim.Fault{Server: model.ServerID(j), At: t})
		}
	}
	// RunWithFaults sorts; keep the draw order stable regardless.
	return out
}
