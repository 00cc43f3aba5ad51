package online

import (
	"sort"

	"datacache/internal/engine"
	"datacache/internal/model"
)

// AdaptiveTTL is a learning extension of SC (beyond the paper): instead of
// the fixed worst-case window Δt = λ/μ, it learns each server's empirical
// revisit-gap distribution online and retains each copy for the window that
// minimizes the empirical ski-rental cost
//
//	cost(w) = Σ_gaps ( μ·min(gap, w) + λ·[gap > w] ),
//
// evaluated over the candidate windows {0} ∪ {observed gaps ≤ Δt} ∪ {Δt}.
// Candidates above Δt are pointless: retention beyond λ/μ already costs
// more than the transfer it avoids. With fewer than MinSamples
// observations for a server it falls back to the SC window, so the policy
// degrades gracefully to SC on unpredictable traffic.
//
// AdaptiveTTL keeps SC's structural rules (last copy never dies, transfer
// refreshes both endpoints), so it always produces feasible schedules; it
// does not inherit SC's worst-case proof, which is exactly the trade-off
// experiment E11 quantifies.
type AdaptiveTTL struct {
	// MaxSamples caps the per-server gap history (default 64).
	MaxSamples int
	// MinSamples gates learning (default 4).
	MinSamples int
}

// Name implements Runner.
func (AdaptiveTTL) Name() string { return "AdaptiveTTL" }

// Run implements Runner by replaying the sequence through Decider.
func (p AdaptiveTTL) Run(seq *model.Sequence, cm model.CostModel) (*model.Schedule, error) {
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	return engine.Replay(p.Decider(), seq, cm)
}

// Decider returns a fresh engine decider running the policy: the gap
// learner observes each arrival at the top of OnRequest (strictly
// online: only past arrivals are used), then engine.SC serves it with
// the learned windows through WindowOf.
func (p AdaptiveTTL) Decider() engine.Decider {
	a := &adaptive{learner: gapLearner{maxSamples: p.MaxSamples, minSamples: p.MinSamples}}
	if a.learner.maxSamples <= 0 {
		a.learner.maxSamples = 64
	}
	if a.learner.minSamples <= 0 {
		a.learner.minSamples = 4
	}
	a.SC.WindowOf = func(j model.ServerID) float64 { return a.learner.window[j] }
	return a
}

// adaptive is AdaptiveTTL as an engine.Decider: engine.SC with its
// windows supplied by a gap learner.
type adaptive struct {
	engine.SC
	learner gapLearner
}

// Init implements engine.Decider: every server starts at the SC window.
func (a *adaptive) Init(st engine.State) []engine.Action {
	g := &a.learner
	g.cm = st.Model
	g.lastSeen = make([]float64, st.M+1)
	g.gaps = make([][]float64, st.M+1)
	g.window = make([]float64, st.M+1)
	for j := range g.lastSeen {
		g.lastSeen[j] = -1
		g.window[j] = st.Model.Delta()
	}
	return a.SC.Init(st)
}

// OnRequest implements engine.Decider: learn from the arrival, then let
// SC serve it with the refreshed window.
func (a *adaptive) OnRequest(server model.ServerID, t float64) ([]engine.Action, error) {
	a.learner.observe(int(server), t)
	return a.SC.OnRequest(server, t)
}

// gapLearner tracks per-server revisit gaps and their cost-optimal windows.
type gapLearner struct {
	cm         model.CostModel
	maxSamples int
	minSamples int
	lastSeen   []float64
	gaps       [][]float64
	window     []float64
}

// observe records the arrival and re-optimizes the server's window.
func (g *gapLearner) observe(server int, t float64) {
	if last := g.lastSeen[server]; last >= 0 {
		gap := t - last
		if len(g.gaps[server]) >= g.maxSamples {
			// Sliding window: drop the oldest sample.
			copy(g.gaps[server], g.gaps[server][1:])
			g.gaps[server] = g.gaps[server][:g.maxSamples-1]
		}
		g.gaps[server] = append(g.gaps[server], gap)
		if len(g.gaps[server]) >= g.minSamples {
			g.window[server] = bestWindow(g.gaps[server], g.cm)
		}
	}
	g.lastSeen[server] = t
}

// bestWindow minimizes the empirical ski-rental cost over the candidate
// set. Sorting the gaps lets each candidate be evaluated in O(1) with
// prefix sums: for w = sorted[i], every smaller gap is cached in full,
// every larger gap is cached for w and then pays a transfer.
func bestWindow(gaps []float64, cm model.CostModel) float64 {
	delta := cm.Delta()
	sorted := append([]float64(nil), gaps...)
	sort.Float64s(sorted)
	prefix := make([]float64, len(sorted)+1)
	for i, gp := range sorted {
		prefix[i+1] = prefix[i] + gp
	}
	n := len(sorted)
	total := func(w float64) float64 {
		// Number of gaps <= w.
		k := sort.SearchFloat64s(sorted, w+1e-15)
		return cm.Mu*prefix[k] + float64(n-k)*(cm.Mu*w+cm.Lambda)
	}
	best, bestCost := 0.0, total(0)
	for _, gp := range sorted {
		if gp > delta {
			break
		}
		if c := total(gp); c < bestCost {
			best, bestCost = gp, c
		}
	}
	if c := total(delta); c < bestCost {
		best = delta
	}
	return best
}
