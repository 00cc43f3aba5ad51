// Package online implements the paper's online side: the 3-competitive
// Speculative Caching (SC) algorithm of Section V, the TTL(τ) family it
// belongs to, simple online baselines, and the analysis machinery of the
// competitiveness proof (the Double-Transfer transform of Definition 10 and
// the V-/H-reductions of Definitions 11 and 12) as executable checks.
//
// Every policy consumes requests strictly in time order with no lookahead
// and emits a model.Schedule, so the offline validator and cost accounting
// apply unchanged; the competitive ratio of a run is simply the policy's
// schedule cost divided by the FastDP optimum.
package online

import (
	"cmp"
	"fmt"
	"slices"

	"datacache/internal/model"
)

// Runner is an online caching policy: it serves a request sequence with no
// knowledge of future requests and returns the schedule it produced. The
// schedule's caching costs are truncated at the horizon t_n so that policies
// are compared with the off-line optimum over the same window.
type Runner interface {
	// Name identifies the policy in reports.
	Name() string
	// Run serves the sequence online and returns a feasible schedule.
	Run(seq *model.Sequence, cm model.CostModel) (*model.Schedule, error)
}

// Stats summarizes one online run for reports and tests.
type Stats struct {
	Requests  int
	CacheHits int     // requests served by a live local copy
	Transfers int     // requests served by a transfer
	Expiries  int     // copies deleted before the horizon (expired or evicted)
	Cost      float64 // total cost over [0, t_n]
}

// Result bundles a run's schedule with its statistics.
type Result struct {
	Policy   string
	Schedule *model.Schedule
	Stats    Stats
}

// Run executes a policy and prices its schedule, validating feasibility.
func Run(p Runner, seq *model.Sequence, cm model.CostModel) (*Result, error) {
	sched, err := p.Run(seq, cm)
	if err != nil {
		return nil, fmt.Errorf("online: %s: %w", p.Name(), err)
	}
	if err := sched.Validate(seq); err != nil {
		return nil, fmt.Errorf("online: %s produced an infeasible schedule: %w", p.Name(), err)
	}
	res := &Result{Policy: p.Name(), Schedule: sched}
	res.Stats.Requests = seq.N()
	res.Stats.Cost = sched.Cost(cm)
	res.Stats.Transfers = len(sched.Transfers)
	res.Stats.CacheHits = seq.N() - countServedByTransfer(seq, sched)
	end := seq.End()
	for _, h := range sched.Caches {
		if h.To < end-1e-12 {
			res.Stats.Expiries++
		}
	}
	return res, nil
}

// countServedByTransfer counts requests coinciding with a transfer into
// their server, in one pass over the requests and the time-sorted
// transfers.
func countServedByTransfer(seq *model.Sequence, s *model.Schedule) int {
	trs := slices.Clone(s.Transfers)
	slices.SortFunc(trs, func(a, b model.Transfer) int { return cmp.Compare(a.Time, b.Time) })
	n, k := 0, 0
	for _, r := range seq.Requests {
		for k < len(trs) && !(trs[k].Time >= r.Time) { // NaN sorts first and never matches
			k++
		}
		for j := k; j < len(trs) && trs[j].Time == r.Time; j++ {
			if trs[j].To == r.Server {
				n++
				break
			}
		}
	}
	return n
}
